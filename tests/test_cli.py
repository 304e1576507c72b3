import argparse
import ast
import dataclasses
import hashlib
import inspect
import json
import os
import struct

import numpy as np
import pytest

from varnamer import bpe, cli, corpus, fileio, inference, metrics, model, training

import toycorpus


@pytest.fixture(scope="module")
def workspace(tmp_path_factory, desk_vocab):
    """Functions file, corpus, vocab, and a small trained checkpoint."""
    root = tmp_path_factory.mktemp("cli")
    functions = toycorpus.generate_functions(seed=55, count=24)
    functions_path = root / "functions.jsonl"
    with open(functions_path, "w") as fh:
        for code in functions:
            fh.write(json.dumps({"code": code}) + "\n")

    records, _ = corpus.adapt_corpus(functions, seed=9, validation_fraction=0.0,
                                     test_fraction=0.0)
    corpus_path = root / "corpus.jsonl"
    corpus.save_corpus(records, str(corpus_path))

    vocab_path = root / "model.vocab"
    bpe.save_vocab(desk_vocab, str(vocab_path))

    config = model.ModelConfig(vocab_size=desk_vocab.size, num_layers=1,
                               hidden_dim=32, num_heads=4, ffn_dim=64,
                               max_seq_len=128, dropout=0.0)
    params = model.init_params(config, 0)
    tc = training.TrainConfig(max_epochs=3, batch_size=8, seed=0,
                              max_seq_len=128, learning_rate=3e-3)
    training.pretrain(tc, params, records, desk_vocab)
    model_path = root / "model.rfbt"
    model.save_checkpoint(params, str(model_path))
    return {
        "root": root,
        "functions": str(functions_path),
        "corpus": str(corpus_path),
        "vocab": str(vocab_path),
        "model": str(model_path),
        "records": records,
    }


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert cli.run(["frobnicate"]) == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_flag_rejected(self, workspace, capsys):
        code = cli.run(["evaluate", "--model", workspace["model"],
                       "--data", workspace["corpus"], "--bogus", "1"])
        assert code == 1

    def test_missing_required_flag(self, capsys):
        assert cli.run(["evaluate", "--model", "m.rfbt"]) == 1

    def test_no_subcommand(self, capsys):
        assert cli.run([]) == 1

    def test_help_exits_zero(self, capsys):
        assert cli.run(["--help"]) == 0

    def test_print_config(self, capsys, tmp_path):
        assert cli.run(["--print-config"]) == 0
        out = capsys.readouterr().out
        assert len(out.splitlines()) == len(dataclasses.fields(training.TrainConfig)) == 11
        parsed = training.TrainConfig.from_text(out)
        assert parsed == training.TrainConfig()
        saved = tmp_path / "printed.cfg"
        saved.write_text(out)
        args = cli.build_parser().parse_args(["pretrain", "--data", "d.jsonl", "--vocab", "v",
                                              "--config", str(saved)])
        assert cli._train_config(args) == training.TrainConfig()

    def test_package_runs_as_a_module(self):
        import subprocess
        import sys

        import varnamer

        env = dict(os.environ,
                   PYTHONPATH=os.path.dirname(os.path.dirname(varnamer.__file__)))
        proc = subprocess.run([sys.executable, "-m", "varnamer", "--print-config"],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "learning_rate = 0.001" in proc.stdout.splitlines()


class TestDataErrors:
    def test_missing_data_file(self, workspace, capsys):
        code = cli.run(["evaluate", "--model", workspace["model"],
                       "--data", "/nonexistent/x.jsonl"])
        assert code == 2

    def test_malformed_corpus(self, workspace, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"id": "x"}\n')
        code = cli.run(["evaluate", "--model", workspace["model"],
                       "--data", str(bad)])
        assert code == 2

    def test_truncated_checkpoint_exits_2_without_traceback(self, workspace, tmp_path):
        import subprocess
        import sys

        import varnamer

        blob = open(workspace["model"], "rb").read()
        cut = tmp_path / "cut.rfbt"
        cut.write_bytes(blob[:len(blob) // 2])
        env = dict(os.environ,
                   PYTHONPATH=os.path.dirname(os.path.dirname(varnamer.__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "varnamer.cli", "evaluate", "--model", str(cut),
             "--vocab", workspace["vocab"], "--data", workspace["corpus"]],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "cut.rfbt" in proc.stderr and "offset" in proc.stderr

    @pytest.mark.parametrize("command", ["suggest", "evaluate", "baseline-eval",
                                         "finetune-lp"])
    def test_vocab_checkpoint_size_mismatch(self, workspace, tmp_path, capsys, command):
        small = bpe.train_bpe(toycorpus.generate_functions(seed=3, count=4),
                              bpe.MIN_VOCAB_SIZE + 3)
        vocab_path = tmp_path / "small.vocab"
        bpe.save_vocab(small, str(vocab_path))
        record = workspace["records"][0]
        source = tmp_path / "f.java"
        source.write_text(record.code_before)
        args = {
            "suggest": ["--code", str(source), "--var", record.variable_before],
            "evaluate": ["--data", workspace["corpus"]],
            "baseline-eval": ["--data", workspace["corpus"],
                              "--train-data", workspace["corpus"]],
            "finetune-lp": ["--data", workspace["corpus"], "--out", str(tmp_path / "ft")],
        }[command]
        code = cli.run([command, "--model", workspace["model"],
                        "--vocab", str(vocab_path)] + args)
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err
        assert str(vocab_path) in err and workspace["model"] in err
        assert str(small.size) in err
        assert str(model.load_checkpoint(workspace["model"]).config.vocab_size) in err

    def test_suggest_variable_not_found(self, workspace, tmp_path, capsys):
        source = tmp_path / "f.java"
        source.write_text("int f() {\n  int a = 1;\n  return a;\n}")
        code = cli.run(["suggest", "--model", workspace["model"],
                       "--code", str(source), "--var", "ghost"])
        assert code == 2
        assert "ghost" in capsys.readouterr().err

    def test_config_with_a_dropout_line_names_the_key(self, workspace, tmp_path, capsys):
        # the rate belongs to the model: pretrain --dropout
        config = tmp_path / "old.cfg"
        config.write_text("max_epochs = 1\ndropout = 0.0\n")
        code = cli.run(["pretrain", "--data", workspace["corpus"], "--vocab", workspace["vocab"],
                        "--out", str(tmp_path / "run"), "--config", str(config)])
        assert code == 2
        assert "line 2: unknown key 'dropout'" in capsys.readouterr().err

    def test_config_that_is_not_utf8_names_its_line(self, workspace, tmp_path, capsys):
        config = tmp_path / "latin1.cfg"
        config.write_bytes(b"max_epochs = 1\n# caf\xff\nseed = 2\n")
        code = cli.run(["pretrain", "--data", workspace["corpus"], "--vocab", workspace["vocab"],
                        "--out", str(tmp_path / "run"), "--config", str(config)])
        assert code == 2
        assert capsys.readouterr().err == "error: config line 2: not UTF-8\n"

    def test_code_that_is_not_utf8_names_the_file_and_its_line(self, workspace, tmp_path,
                                                               capsys):
        source = tmp_path / "latin1.java"
        source.write_bytes(b"int f() {\n  int caf\xe9 = 1;\n  return 0;\n}")
        code = cli.run(["suggest", "--model", workspace["model"],
                        "--code", str(source), "--var", "x"])
        assert code == 2
        assert capsys.readouterr().err == f"error: {source}: line 2: not UTF-8\n"

    @pytest.mark.parametrize("text", ["a\r\nb\n", "a\rb\r\n\rc\n\n", "café\r\n",
                                      "\r", "x\u2028y\x0bz\x85", "no newline"])
    def test_text_is_read_as_text_mode_reads_it(self, tmp_path, text):
        path = tmp_path / "code.java"
        path.write_bytes(text.encode("utf-8"))
        with open(path, encoding="utf-8") as fh:
            assert fileio.read_text(str(path), AssertionError) == fh.read()

    def test_config_with_a_repeated_key_names_both_lines(self, workspace, tmp_path, capsys):
        # the last value won silently
        config = tmp_path / "twice.cfg"
        config.write_text("max_epochs = 1\nlambda_bot = 0.1\nlambda_bot = 0.5\n")
        out = tmp_path / "run"
        code = cli.run(["pretrain", "--data", workspace["corpus"], "--vocab", workspace["vocab"],
                        "--out", str(out), "--config", str(config)] + _SMALL_MODEL)
        assert code == 2
        assert "config line 3: key 'lambda_bot' repeats line 2" in capsys.readouterr().err
        assert not out.exists()

    def test_checkpoint_config_without_vocab_size_exits_2(self, workspace, tmp_path, capsys):
        # ModelConfig(**values) raised TypeError, a traceback and exit 1
        blob = open(workspace["model"], "rb").read()
        head = len(model.CHECKPOINT_MAGIC) + 4
        (config_len,) = struct.unpack("<I", blob[head:head + 4])
        text = blob[head + 4:head + 4 + config_len].decode("utf-8")
        kept = "".join(line for line in text.splitlines(keepends=True)
                       if not line.startswith("vocab_size"))
        bad = tmp_path / "bad.rfbt"
        bad.write_bytes(blob[:head] + struct.pack("<I", len(kept.encode("utf-8")))
                        + kept.encode("utf-8") + blob[head + 4 + config_len:])
        record = workspace["records"][0]
        source = tmp_path / "f.java"
        source.write_text(record.code_before)
        code = cli.run(["suggest", "--model", str(bad), "--vocab", workspace["vocab"],
                        "--code", str(source), "--var", record.variable_before])
        captured = capsys.readouterr()
        assert code == 2
        assert "Traceback" not in captured.err and captured.out == ""
        assert f"{bad}: config at offset {head + 4}: missing key 'vocab_size'" in captured.err

    def test_record_of_another_refactoring_type_exits_2(self, workspace, tmp_path, capsys):
        # it was evaluated (and trained on) as a rename
        row = dataclasses.asdict(workspace["records"][0])
        row["refactoring_type"] = "ExtractMethod"
        data = tmp_path / "extract.jsonl"
        data.write_text(json.dumps(row) + "\n")
        code = cli.run(["evaluate", "--model", workspace["model"], "--vocab", workspace["vocab"],
                        "--data", str(data)])
        captured = capsys.readouterr()
        assert code == 2
        assert row["id"] in captured.err
        assert "refactoring_type must be 'RenameVariable'" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("flag,field", [("--heads=0", "num_heads"),
                                            ("--heads=-2", "num_heads"),
                                            ("--hidden-dim=0", "hidden_dim")])
    def test_nonpositive_model_size_names_the_field(self, workspace, tmp_path, capsys,
                                                    flag, field):
        out = tmp_path / "run"
        code = cli.run(["pretrain", "--data", workspace["corpus"], "--vocab", workspace["vocab"],
                        "--out", str(out), flag])
        assert code == 2
        assert f"{field} must be positive" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("validation,test", [
        ("0.6", "0.6"), ("-0.5", "0.1"), ("0.1", "1.5"), ("nan", "0.1")])
    def test_split_fractions_that_cannot_be_met_exit_2(self, workspace, tmp_path, capsys,
                                                       validation, test):
        out = tmp_path / "built"
        code = cli.run(["build-corpus", "--data", workspace["functions"], "--out", str(out),
                        "--validation-fraction", validation, "--test-fraction", test])
        assert code == 2
        assert (f"validation_fraction {float(validation)} and test_fraction {float(test)} "
                "must lie in [0, 1] and sum to at most 1") in capsys.readouterr().err
        assert not (out / "corpus.jsonl").exists()

    @pytest.mark.parametrize("functions", ["int f() { return 1; }\nint g() { return 2; }", ""],
                             ids=["too_short", "empty"])
    def test_build_corpus_without_records_exits_2(self, tmp_path, capsys, functions):
        # it wrote an empty corpus; train-tokenizer was the first to fail
        data = tmp_path / "functions.jsonl"
        data.write_text("".join(json.dumps({"code": code}) + "\n"
                                for code in functions.splitlines()))
        out = tmp_path / "built"
        code = cli.run(["build-corpus", "--data", str(data), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        count = len(functions.splitlines())
        assert f"no rename records from {data}: of {count} functions, excluded" in err
        assert f'"too_short": {count}' in err
        assert not (out / "corpus.jsonl").exists() and not (out / "manifest.json").exists()

    def test_build_corpus_on_a_line_nested_too_deeply_exits_2(self, tmp_path):
        # json.loads raised RecursionError: a traceback and exit 1
        import subprocess
        import sys

        import varnamer

        data = tmp_path / "functions.jsonl"
        data.write_text(json.dumps({"code": "int f() {\n  int a;\n  return a;\n}"}) + "\n"
                        + "[" * 100_000 + "\n")
        env = dict(os.environ,
                   PYTHONPATH=os.path.dirname(os.path.dirname(varnamer.__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "varnamer", "build-corpus", "--data", str(data),
             "--out", str(tmp_path / "built")],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 2
        [line] = proc.stderr.splitlines()
        assert line.startswith("error: line 2: invalid JSON: maximum recursion depth exceeded")
        assert not (tmp_path / "built").exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("field", ["adam_beta1", "adam_beta2", "adam_epsilon"])
    def test_config_setting_a_removed_adam_key_names_the_key(self, workspace, tmp_path, capsys,
                                                             field, value):
        # Adam runs at training's ADAM_BETA1, ADAM_BETA2 and ADAM_EPSILON
        config = tmp_path / "old.cfg"
        config.write_text(f"max_epochs = 1\nbatch_size = 8\n{field} = {value}\n")
        out = tmp_path / "run"
        code = cli.run(["pretrain", "--data", workspace["corpus"], "--vocab", workspace["vocab"],
                        "--out", str(out), "--config", str(config)] + _SMALL_MODEL)
        assert code == 2
        assert f"config line 3: unknown key '{field}'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(training.TrainConfig)
                                       if f.type == "float"])
    def test_non_finite_config_number_names_the_field(self, workspace, tmp_path, capsys,
                                                      field, value):
        # NaN passes every range check by comparison; training on it wrote NaN weights
        config = tmp_path / "bad.cfg"
        config.write_text(f"max_epochs = 1\nbatch_size = 8\n{field} = {value}\n")
        out = tmp_path / "run"
        code = cli.run(["pretrain", "--data", workspace["corpus"], "--vocab", workspace["vocab"],
                        "--out", str(out), "--config", str(config)] + _SMALL_MODEL)
        assert code == 2
        assert f"{field} must be a finite number, got {float(value)}" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_names_the_field(self, workspace, tmp_path, capsys):
        out = tmp_path / "run"
        code = cli.run(["pretrain", "--data", workspace["corpus"], "--vocab", workspace["vocab"],
                        "--out", str(out), "--config", _quick_config(tmp_path),
                        "--seed", "-1"] + _SMALL_MODEL)
        assert code == 2
        assert "seed must be non-negative, got -1" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_checks_every_value_before_training(self, workspace, tmp_path, capsys):
        out = tmp_path / "sweep"
        code = cli.run(["sweep", "--param", "tau", "--values", "0.05,nan",
                        "--config", _quick_config(tmp_path), "--data", workspace["corpus"],
                        "--model", workspace["model"], "--vocab", workspace["vocab"],
                        "--out", str(out)])
        assert code == 2
        assert "tau must be a finite number, got nan" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("coords", ["0", "-3"])
    def test_gradcheck_without_coordinates_exits_2(self, capsys, coords):
        # at 0 it compared nothing and reported a perfect score
        assert cli.run(["gradcheck", "--coords", coords]) == 2
        captured = capsys.readouterr()
        assert f"coords_per_tensor {coords} must be >= 1" in captured.err
        assert captured.out == ""

    def test_gradcheck_negative_seed_names_the_field(self, capsys):
        assert cli.run(["gradcheck", "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert "seed must be non-negative, got -1" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("param,value,message", [
        ("lmax", "2.5", "max_name_tokens = '2.5' is not a valid int"),
        ("lmax", "nan", "max_name_tokens = 'nan' is not a valid int"),
        ("lmax", "abc", "max_name_tokens = 'abc' is not a valid int"),
        ("tau", "abc", "tau = 'abc' is not a valid float"),
    ])
    def test_sweep_value_of_the_wrong_type_names_the_field(self, workspace, tmp_path, capsys,
                                                           param, value, message):
        # lmax 2.5 trained at 2 while its CSV row read 2.5
        out = tmp_path / "sweep"
        code = cli.run(["sweep", "--param", param, "--values", value,
                        "--config", _quick_config(tmp_path), "--data", workspace["corpus"],
                        "--model", workspace["model"], "--vocab", workspace["vocab"],
                        "--out", str(out)])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags,message", [
        (["--smoothing", "0"], "smoothing_k 0.0 must be positive"),
        (["--ngram-n", "1"], "n-gram order 1 must be >= 2"),
        (["--smoothing", "nan"], "smoothing_k nan must be positive"),
        (["--smoothing", "inf"], "smoothing_k inf must be positive"),
    ])
    def test_bad_ngram_settings_exit_2(self, workspace, capsys, flags, message):
        code = cli.run(["baseline-eval", "--data", workspace["corpus"],
                        "--train-data", workspace["corpus"],
                        "--model", workspace["model"]] + flags)
        assert code == 2
        assert message in capsys.readouterr().err


class TestEveryFlagIsRead:
    """A flag that ``cli`` parses but never reads sets nothing."""

    @staticmethod
    def _dests(parser) -> set[str]:
        dests = set()
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for sub in action.choices.values():
                    dests |= TestEveryFlagIsRead._dests(sub)
            if not isinstance(action, argparse._HelpAction):
                dests.add(action.dest)
        return dests

    def test_every_dest_is_read_outside_its_add_argument(self):
        reads = set()

        class Reads(ast.NodeVisitor):
            def visit_Call(self, node):
                if isinstance(node.func, ast.Attribute) and node.func.attr == "add_argument":
                    return
                if (isinstance(node.func, ast.Name) and node.func.id == "getattr"
                        and isinstance(node.args[1], ast.Constant)):
                    reads.add(node.args[1].value)
                self.generic_visit(node)

            def visit_Attribute(self, node):
                if isinstance(node.value, ast.Name) and node.value.id == "args":
                    reads.add(node.attr)
                self.generic_visit(node)

        Reads().visit(ast.parse(inspect.getsource(cli)))
        assert self._dests(cli.build_parser()) - reads == set()


@pytest.mark.parametrize("param", list(cli.SWEEP_PARAMETERS))
def test_sweep_value_sets_its_field_in_the_declared_type(param):
    field = cli.SWEEP_PARAMETERS[param]
    kind = {f.name: f.type for f in dataclasses.fields(training.TrainConfig)}[field]
    raw = "3" if kind == "int" else "0.25"
    args = cli.build_parser().parse_args(["sweep", "--param", param, "--values", raw,
                                          "--data", "d", "--model", "m", "--vocab", "v"])
    value = getattr(cli._train_config(args, raw), field)
    assert value != getattr(training.TrainConfig(), field)
    assert type(value).__name__ == kind and value == float(raw)


class TestHappyPaths:
    def test_build_corpus(self, workspace, tmp_path, capsys):
        out = tmp_path / "built"
        code = cli.run(["build-corpus", "--data", workspace["functions"],
                       "--seed", "3", "--out", str(out)])
        assert code == 0
        result = json.loads(capsys.readouterr().out)
        assert result["records"] > 0
        loaded = corpus.load_corpus(str(out / "corpus.jsonl"))
        assert len(loaded) == result["records"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "build-corpus"
        assert workspace["functions"] in manifest["inputs"]
        numeric = manifest["numeric_environment"]
        assert numeric["numpy"] == np.__version__
        assert isinstance(numeric["blas"], str) and numeric["blas"]
        assert numeric["threads"] == {
            var: os.environ.get(var) for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
        # the count OpenBLAS runs, which the variables may leave unset
        assert numeric["openblas_threads"] == cli._openblas_threads()
        assert numeric["openblas_threads"] is None or numeric["openblas_threads"] >= 1
        assert "model_dtype" not in manifest

    def test_train_tokenizer(self, workspace, tmp_path, capsys):
        out = tmp_path / "tok"
        code = cli.run(["train-tokenizer", "--data", workspace["corpus"],
                       "--vocab-size", "300", "--out", str(out)])
        assert code == 0
        result = json.loads(capsys.readouterr().out)
        assert result["vocab_size"] == 300
        loaded = bpe.load_vocab(str(out / "vocab.txt"))
        assert loaded.size == 300

    def test_train_tokenizer_reports_the_bad_record(self, workspace, tmp_path, capsys):
        records = [json.loads(line) for line in open(workspace["corpus"])][:4]
        records[2]["id"] = "000002"
        records[2]["variable_before"] = records[2]["variable_after"]
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n" + "".join(json.dumps(r) + "\n" for r in records))
        code = cli.run(["train-tokenizer", "--data", str(bad), "--vocab-size", "300",
                        "--out", str(tmp_path / "tok")])
        assert code == 2
        err = capsys.readouterr().err
        assert "000002" in err and "variable_before equals variable_after" in err
        assert not (tmp_path / "tok").exists()

    def test_train_tokenizer_reports_the_bad_function(self, workspace, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"code": "int f() { return 1; }"}\n{"code": 3}\n')
        code = cli.run(["train-tokenizer", "--data", str(bad), "--out", str(tmp_path)])
        assert code == 2
        assert 'line 2: "code" must be a string' in capsys.readouterr().err

    def test_train_tokenizer_on_blank_lines_is_a_data_error(self, tmp_path, capsys):
        blank = tmp_path / "blank.jsonl"
        blank.write_text("\n  \n")
        out = tmp_path / "tok"
        code = cli.run(["train-tokenizer", "--data", str(blank), "--out", str(out)])
        assert code == 2
        assert "error: no texts to train the tokenizer on" in capsys.readouterr().err
        assert not (out / "vocab.txt").exists()

    @pytest.mark.parametrize("command", ["evaluate", "baseline-eval"])
    def test_evaluation_manifest_records_the_model_dtype(self, workspace, tmp_path,
                                                         capsys, command):
        out = tmp_path / command
        extra = (["--train-data", workspace["corpus"], "--ngram-n", "2"]
                 if command == "baseline-eval" else [])
        code = cli.run([command, "--model", workspace["model"],
                        "--data", workspace["corpus"], "--out", str(out)] + extra)
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["model_dtype"] == "float32"
        assert manifest["numeric_environment"]["numpy"] == np.__version__
        assert json.loads((out / "report.json").read_text())["evaluated"] > 0
        assert (out / "per_example.jsonl").exists()

    def test_per_example_lines_are_the_report_rows(self, workspace, tmp_path, capsys):
        out = tmp_path / "report"
        code = cli.run(["evaluate", "--model", workspace["model"],
                        "--data", workspace["corpus"], "--out", str(out)])
        assert code == 0
        params = model.load_checkpoint(workspace["model"])
        vocab = bpe.load_vocab(workspace["vocab"])
        report = metrics.evaluate_corpus(
            inference.ModelPredictor(params, vocab), workspace["records"], vocab,
            max_name_tokens=params.config.max_name_tokens)
        lines = (out / "per_example.jsonl").read_text(encoding="utf-8").splitlines()
        assert [json.loads(line) for line in lines] == [
            dataclasses.asdict(row) for row in report.rows]
        assert len(lines) == report.evaluated > 0

    def test_evaluate_excludes_a_record_past_the_window(self, workspace, tmp_path, capsys):
        # The checkpoint reads 128 tokens; ``late`` names its variable only after them.
        filler = "other = other + 1;\n" * 80
        late = toycorpus.make_record(
            "late", f"int f() {{\n  {filler}  int pick = 1;\n  return pick;\n}}",
            "pick", "tmp", split="test")
        records = workspace["records"][:2]
        data = tmp_path / "late.jsonl"
        corpus.save_corpus([records[0], late, records[1]], str(data))
        out = tmp_path / "report"
        code = cli.run(["evaluate", "--model", workspace["model"],
                        "--data", str(data), "--out", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["evaluated"] == 2 and report["excluded"] == 1
        assert report["excluded_reasons"] == {"NameTruncated": 1}

    def test_evaluate_json_on_stdout(self, workspace, capsys):
        # vocab is discovered as the sibling model.vocab
        code = cli.run(["evaluate", "--model", workspace["model"],
                       "--data", workspace["corpus"]])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert set(report) >= {"hit_at_1", "accuracy", "exact_match",
                               "mean_cer", "mean_token_ed", "evaluated"}

    def test_suggest_outputs_json(self, workspace, tmp_path, capsys):
        record = workspace["records"][0]
        source = tmp_path / "f.java"
        source.write_text(record.code_before)
        code = cli.run(["suggest", "--model", workspace["model"],
                       "--code", str(source), "--var", record.variable_before])
        assert code == 0
        suggestion = json.loads(capsys.readouterr().out)
        assert suggestion["suggested_name"] == "".join(suggestion["sub_tokens"])

    def test_pretrain_writes_artifacts(self, workspace, tmp_path, capsys):
        out = tmp_path / "run"
        code = cli.run([
            "pretrain", "--data", workspace["corpus"],
            "--vocab", workspace["vocab"], "--seed", "1", "--out", str(out),
            "--layers", "1", "--hidden-dim", "32", "--ffn-dim", "64",
            "--max-seq-len", "128",
        ] + ["--config", _quick_config(tmp_path)])
        assert code == 0
        result = json.loads(capsys.readouterr().out)
        assert os.path.exists(result["checkpoint"])
        assert (out / "manifest.json").exists()
        assert (out / "pretrain-log.jsonl").exists()

    def test_pretrain_dropout_sets_the_model_rate(self, workspace, tmp_path, capsys):
        code = cli.run(["pretrain", "--data", workspace["corpus"], "--vocab", workspace["vocab"],
                        "--out", str(tmp_path / "run"), "--config", _quick_config(tmp_path),
                        "--dropout", "0.25"] + _SMALL_MODEL)
        assert code == 0, capsys.readouterr().err
        checkpoint = json.loads(capsys.readouterr().out)["checkpoint"]
        assert model.load_checkpoint(checkpoint).config.dropout == 0.25

    @pytest.mark.parametrize("stage", ["pretrain", "finetune-lp", "finetune-tg"])
    def test_training_manifest_records_the_precision(self, workspace, tmp_path, capsys,
                                                     stage):
        out = tmp_path / "run"
        source = (["--layers", "1", "--hidden-dim", "32", "--ffn-dim", "64"]
                  if stage == "pretrain" else ["--model", workspace["model"]])
        code = cli.run([stage, "--data", workspace["corpus"], "--vocab", workspace["vocab"],
                        "--out", str(out), "--config", _quick_config(tmp_path)] + source)
        assert code == 0, capsys.readouterr().err
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == stage
        assert manifest["training_precision"] == {"compute": "float32", "master": "float64",
                                                  "moments": "float32"}
        assert "model_dtype" not in manifest

    def test_config_seed_holds_without_the_seed_flag(self, workspace, tmp_path, capsys):
        config = tmp_path / "seeded.cfg"
        config.write_text(training.TrainConfig(max_epochs=1, batch_size=8, seed=7,
                                               max_seq_len=128).to_text())

        def pretrain(out, *extra):
            code = cli.run(["pretrain", "--data", workspace["corpus"],
                            "--vocab", workspace["vocab"], "--out", str(out),
                            "--config", str(config)] + _SMALL_MODEL + list(extra))
            assert code == 0, capsys.readouterr().err
            return json.loads(capsys.readouterr().out)["checkpoint"]

        from_config = pretrain(tmp_path / "config")
        from_flag = pretrain(tmp_path / "flag", "--seed", "7")
        manifest = json.loads((tmp_path / "config" / "manifest.json").read_text())
        assert "seed = 7" in manifest["config"].splitlines()
        assert manifest["arguments"]["seed"] is None
        with open(from_config, "rb") as a, open(from_flag, "rb") as b:
            assert a.read() == b.read()

    def test_finetune_requires_model(self, workspace, tmp_path):
        code = cli.run(["finetune-lp", "--data", workspace["corpus"],
                       "--vocab", workspace["vocab"], "--out", str(tmp_path / "x")])
        assert code == 1

    def test_baseline_eval(self, workspace, capsys):
        code = cli.run(["baseline-eval", "--data", workspace["corpus"],
                       "--train-data", workspace["corpus"],
                       "--model", workspace["model"], "--ngram-n", "2"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["hit_at_1"] is not None
        assert report["exact_match"] is not None

    def test_baseline_eval_fits_the_ngram_on_train_records_only(self, workspace, tmp_path,
                                                                capsys):
        splits = ["train", "validation", "test"]
        records = [dataclasses.replace(r, split=splits[i % 3])
                   for i, r in enumerate(workspace["records"])]
        data = tmp_path / "split.jsonl"
        corpus.save_corpus(records, str(data))
        out = tmp_path / "baseline"
        code = cli.run(["baseline-eval", "--data", str(data), "--train-data", str(data),
                        "--model", workspace["model"], "--ngram-n", "2", "--out", str(out)])
        assert code == 0, capsys.readouterr().err
        lines = (out / "ngram.txt").read_text().splitlines()
        candidates = {line.split("\t")[1] for line in lines[lines.index("#CANDIDATES") + 1:]}
        train_names = {r.variable_after for r in records if r.split == "train"}
        held_out = {r.variable_after for r in records if r.split != "train"} - train_names
        assert held_out and candidates and candidates <= train_names

    def test_baseline_eval_without_train_records_exits_2(self, workspace, tmp_path, capsys):
        data = tmp_path / "held_out.jsonl"
        corpus.save_corpus([dataclasses.replace(r, split="validation")
                            for r in workspace["records"]], str(data))
        code = cli.run(["baseline-eval", "--data", workspace["corpus"],
                        "--train-data", str(data), "--model", workspace["model"]])
        assert code == 2
        err = capsys.readouterr().err
        assert "no train record in" in err and "held_out.jsonl" in err
        assert "Traceback" not in err

    def test_gradcheck_passes(self, capsys):
        code = cli.run(["gradcheck", "--seed", "0", "--coords", "3"])
        assert code == 0
        results = json.loads(capsys.readouterr().out)
        assert set(results) == {"cmlm", "lp", "bot", "cl", "combined", "batch"}
        assert all(v < 1e-4 for v in results.values())


_SMALL_MODEL = ["--layers", "1", "--hidden-dim", "32", "--ffn-dim", "64"]


class TestZeroLengthCap:
    """``--lmax 0`` leaves no room for a name: a typed error, exit 2."""

    @pytest.mark.parametrize("command", [
        ["finetune-lp", "--lmax", "0"],
        ["sweep", "--param", "lmax", "--values", "0"],
        ["evaluate", "--lmax", "0"],
    ], ids=lambda argv: argv[0])
    def test_exits_2_without_traceback(self, workspace, tmp_path, capsys, command):
        argv = command + ["--data", workspace["corpus"], "--model", workspace["model"],
                          "--vocab", workspace["vocab"], "--out", str(tmp_path / "out")]
        assert cli.run(argv) == 2
        err = capsys.readouterr().err
        assert "max_name_tokens must be >= 1" in err
        assert "Traceback" not in err


class TestModelLimits:
    def test_pretrain_window_narrower_than_the_config(self, workspace, tmp_path, capsys):
        # The config keeps its default 512-token window; the model reads 40.
        config = tmp_path / "wide.cfg"
        config.write_text(training.TrainConfig(max_epochs=1, batch_size=8).to_text())
        out = tmp_path / "run"
        code = cli.run(["pretrain", "--data", workspace["corpus"],
                        "--vocab", workspace["vocab"], "--out", str(out),
                        "--config", str(config), "--max-seq-len", "40"] + _SMALL_MODEL)
        assert code == 0, capsys.readouterr().err
        checkpoint = json.loads(capsys.readouterr().out)["checkpoint"]
        assert model.load_checkpoint(checkpoint).config.max_seq_len == 40

    @pytest.mark.parametrize("command", ["finetune-lp", "finetune-tg"])
    def test_model_shape_flags_only_on_pretrain(self, workspace, tmp_path, capsys, command):
        code = cli.run([command, "--data", workspace["corpus"], "--vocab", workspace["vocab"],
                        "--model", workspace["model"], "--out", str(tmp_path),
                        "--hidden-dim", "64"])
        assert code == 1
        assert "--hidden-dim" in capsys.readouterr().err

    def test_model_flags_beside_model_are_a_usage_error(self, workspace, tmp_path, capsys):
        out = tmp_path / "run"
        code = cli.run(["pretrain", "--data", workspace["corpus"], "--vocab", workspace["vocab"],
                        "--model", workspace["model"], "--out", str(out),
                        "--hidden-dim", "64", "--layers", "3", "--dropout", "0.5"])
        assert code == 1
        err = capsys.readouterr().err
        assert "--hidden-dim" in err and "--model" in err
        assert not out.exists()

    def test_pretrain_without_model_flags_takes_the_model_config_defaults(
            self, workspace, tmp_path, capsys):
        config = tmp_path / "one.cfg"
        config.write_text(training.TrainConfig(max_epochs=1, batch_size=8,
                                               max_seq_len=128).to_text())
        out = tmp_path / "run"
        code = cli.run(["pretrain", "--data", workspace["corpus"], "--vocab", workspace["vocab"],
                        "--out", str(out), "--config", str(config)])
        assert code == 0, capsys.readouterr().err
        checkpoint = json.loads(capsys.readouterr().out)["checkpoint"]
        vocab_size = bpe.load_vocab(workspace["vocab"]).size
        assert model.load_checkpoint(checkpoint).config == model.ModelConfig(
            vocab_size=vocab_size, max_name_tokens=training.TrainConfig().max_name_tokens)
        arguments = json.loads((out / "manifest.json").read_text())["arguments"]
        assert arguments["hidden_dim"] is None and arguments["dropout"] is None

    def test_length_head_resized_only_by_lmax(self, workspace, tmp_path, capsys):
        def train(stage, *extra):
            out = tmp_path / stage
            code = cli.run([stage, "--data", workspace["corpus"],
                            "--vocab", workspace["vocab"], "--out", str(out),
                            "--config", _quick_config(tmp_path)] + list(extra))
            assert code == 0, capsys.readouterr().err
            return json.loads(capsys.readouterr().out)["checkpoint"]

        def head(path):
            params = model.load_checkpoint(path)
            return (params.config.max_name_tokens, params["length_head.weight"].data,
                    params["length_head.bias"].data)

        pretrained = train("pretrain", "--lmax", "3", *_SMALL_MODEL)
        lp = train("finetune-lp", "--model", pretrained)
        lp_lmax, lp_weight, lp_bias = head(lp)
        assert lp_lmax == 3 and lp_weight.shape == (3, 32)
        # TG does not train the length head, so it leaves as it came in.
        lmax, weight, bias = head(train("finetune-tg", "--model", lp))
        assert lmax == 3
        assert np.array_equal(weight, lp_weight) and np.array_equal(bias, lp_bias)
        lmax, weight, bias = head(train("finetune-tg", "--model", lp, "--lmax", "4"))
        assert lmax == 4 and weight.shape == (4, 32)
        assert np.array_equal(weight[:3], lp_weight) and np.array_equal(bias[:3], lp_bias)


class TestLossFlags:
    """The loss weights and tau are flags of finetune-tg, the one stage
    whose loss reads them."""

    @pytest.mark.parametrize("flag", ["--lambda-cmlm", "--lambda-bot", "--lambda-cl", "--tau"])
    @pytest.mark.parametrize("stage", ["pretrain", "finetune-lp"])
    def test_stages_that_ignore_them_reject_them(self, workspace, tmp_path, capsys,
                                                 stage, flag):
        out = tmp_path / "run"
        code = cli.run([stage, "--data", workspace["corpus"], "--vocab", workspace["vocab"],
                        "--model", workspace["model"], "--out", str(out), flag, "7"])
        assert code == 1
        assert flag in capsys.readouterr().err
        assert not out.exists()

    def test_finetune_tg_records_the_weight(self, workspace, tmp_path, capsys):
        out = tmp_path / "run"
        code = cli.run(["finetune-tg", "--data", workspace["corpus"],
                        "--vocab", workspace["vocab"], "--model", workspace["model"],
                        "--out", str(out), "--config", _quick_config(tmp_path),
                        "--lambda-bot", "0.5"])
        assert code == 0, capsys.readouterr().err
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert "lambda_bot = 0.5" in config.splitlines()


def _sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class TestManifestInputs:
    """A manifest names every file the run read, with its sha256."""

    def test_finetune_records_its_checkpoint(self, workspace, tmp_path, capsys):
        out = tmp_path / "lp"
        code = cli.run(["finetune-lp", "--data", workspace["corpus"],
                        "--vocab", workspace["vocab"], "--model", workspace["model"],
                        "--out", str(out), "--config", _quick_config(tmp_path)])
        assert code == 0, capsys.readouterr().err
        inputs = json.loads((out / "manifest.json").read_text())["inputs"]
        assert inputs == {path: _sha256(path) for path in
                          (workspace["corpus"], workspace["vocab"], workspace["model"])}

    @pytest.mark.parametrize("command", ["evaluate", "baseline-eval"])
    def test_evaluation_records_the_vocabulary_it_found(self, workspace, tmp_path, capsys,
                                                        command):
        # no --vocab: the model's sibling model.vocab is read
        out = tmp_path / command
        extra = (["--train-data", workspace["corpus"], "--ngram-n", "2"]
                 if command == "baseline-eval" else [])
        code = cli.run([command, "--model", workspace["model"],
                        "--data", workspace["corpus"], "--out", str(out)] + extra)
        assert code == 0, capsys.readouterr().err
        inputs = json.loads((out / "manifest.json").read_text())["inputs"]
        assert inputs == {path: _sha256(path) for path in
                          (workspace["corpus"], workspace["model"], workspace["vocab"])}


def _quick_config(tmp_path) -> str:
    config = training.TrainConfig(max_epochs=2, batch_size=8, seed=1,
                                  max_seq_len=128)
    path = tmp_path / "train.cfg"
    path.write_text(config.to_text())
    return str(path)


class TestSweep:
    def test_tau_sweep_rows(self, workspace, tmp_path, capsys):
        out = tmp_path / "sweep"
        config = tmp_path / "sweep.cfg"
        config.write_text(training.TrainConfig(
            max_epochs=1, batch_size=8, seed=0, max_seq_len=128).to_text())
        code = cli.run(["sweep", "--param", "tau",
                       "--values", "0.02,0.05,0.10",
                       "--config", str(config),
                       "--data", workspace["corpus"],
                       "--model", workspace["model"],
                       "--vocab", workspace["vocab"],
                       "--out", str(out)])
        assert code == 0
        result = json.loads(capsys.readouterr().out)
        assert result["path"] == str(out / "sweep_tau.jsonl")
        rows = [json.loads(line) for line in (out / "sweep_tau.jsonl").read_text().splitlines()]
        assert rows == result["rows"]
        assert [row["value"] for row in rows] == [0.02, 0.05, 0.1]

    def test_all_train_corpus_is_scored_on_its_training_records(self, workspace, tmp_path,
                                                               capsys):
        assert {r.split for r in workspace["records"]} == {"train"}
        code = cli.run(["sweep", "--param", "tau", "--values", "0.05",
                        "--config", _quick_config(tmp_path), "--data", workspace["corpus"],
                        "--model", workspace["model"], "--vocab", workspace["vocab"],
                        "--out", str(tmp_path / "sweep")])
        assert code == 0
        captured = capsys.readouterr()
        result = json.loads(captured.out)
        assert result["scored_split"] == "train"
        assert result["rows"][0]["evaluated"] == len(workspace["records"])
        assert "warning: no validation or test records" in captured.err

    def test_single_value_sweep(self, workspace, tmp_path, capsys):
        out = tmp_path / "sweep1"
        code = cli.run(["sweep", "--param", "lambda_bot", "--values", "0.1",
                       "--config", _quick_config(tmp_path),
                       "--data", workspace["corpus"],
                       "--model", workspace["model"],
                       "--vocab", workspace["vocab"],
                       "--out", str(out)])
        assert code == 0
        lines = (out / "sweep_lambda_bot.jsonl").read_text().splitlines()
        assert len(lines) == 1

    def test_lmax_sweep_resizes_the_length_head(self, workspace, tmp_path, capsys):
        out = tmp_path / "sweep_lmax"
        code = cli.run(["sweep", "--param", "lmax", "--values", "2,4",
                       "--config", _quick_config(tmp_path),
                       "--data", workspace["corpus"],
                       "--model", workspace["model"],
                       "--vocab", workspace["vocab"],
                       "--out", str(out)])
        assert code == 0
        lines = (out / "sweep_lmax.jsonl").read_text().splitlines()
        assert [json.loads(line)["value"] for line in lines] == [2, 4]

    def test_null_accuracy_comes_with_its_exclusions(self, workspace, desk_vocab, tmp_path,
                                                    capsys):
        # every validation name has 3 sub-tokens: at lmax 2 none is evaluated
        def length(r):
            return len(bpe.encode(desk_vocab, r.variable_after))

        records = [dataclasses.replace(r, split="validation" if length(r) == 3 else "train")
                   for r in workspace["records"]]
        held_out = sum(r.split == "validation" for r in records)
        assert 0 < held_out < len(records)
        data = tmp_path / "split.jsonl"
        corpus.save_corpus(records, str(data))
        out = tmp_path / "sweep_null"
        code = cli.run(["sweep", "--param", "lmax", "--values", "2,3",
                        "--config", _quick_config(tmp_path), "--data", str(data),
                        "--model", workspace["model"], "--vocab", workspace["vocab"],
                        "--out", str(out)])
        assert code == 0, capsys.readouterr().err
        captured = capsys.readouterr()
        result = json.loads(captured.out)
        assert result["scored_split"] == "validation"
        assert "no validation or test records" not in captured.err
        short, full = result["rows"]
        assert short == {"value": 2, "accuracy": None, "evaluated": 0,
                         "excluded_reasons": {"too_long": held_out}}
        assert full["accuracy"] is not None and full["evaluated"] == held_out
        assert full["excluded_reasons"] == {}
        lines = (out / "sweep_lmax.jsonl").read_text().splitlines()
        assert [json.loads(line) for line in lines] == [short, full]
