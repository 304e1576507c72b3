import json
import os

import numpy as np
import pytest

from varnamer import bpe, cli, corpus, model, training

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
                              max_seq_len=128, dropout=0.0, learning_rate=3e-3)
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

    def test_print_config(self, capsys):
        assert cli.run(["--print-config"]) == 0
        out = capsys.readouterr().out
        parsed = training.TrainConfig.from_text(out)
        assert parsed == training.TrainConfig()

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
        assert (out / "per_example.csv").exists()

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
        assert (out / "pretrain-log.csv").exists()

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
        assert manifest["training_precision"] == {"compute": "float32", "master": "float64"}
        assert "model_dtype" not in manifest

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
        config.write_text(training.TrainConfig(max_epochs=1, batch_size=8,
                                               dropout=0.0).to_text())
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


def _quick_config(tmp_path) -> str:
    config = training.TrainConfig(max_epochs=2, batch_size=8, seed=1,
                                  max_seq_len=128, dropout=0.0)
    path = tmp_path / "train.cfg"
    path.write_text(config.to_text())
    return str(path)


class TestSweep:
    def test_tau_sweep_csv_shape(self, workspace, tmp_path, capsys):
        out = tmp_path / "sweep"
        config = tmp_path / "sweep.cfg"
        config.write_text(training.TrainConfig(
            max_epochs=1, batch_size=8, seed=0, max_seq_len=128,
            dropout=0.0).to_text())
        code = cli.run(["sweep", "--param", "tau",
                       "--values", "0.02,0.05,0.10",
                       "--config", str(config),
                       "--data", workspace["corpus"],
                       "--model", workspace["model"],
                       "--vocab", workspace["vocab"],
                       "--out", str(out)])
        assert code == 0
        lines = (out / "sweep_tau.csv").read_text().splitlines()
        assert lines[0] == "parameter,value,accuracy"
        assert len(lines) == 4
        values = [line.split(",")[1] for line in lines[1:]]
        assert values == ["0.02", "0.05", "0.1"]

    def test_single_value_sweep(self, workspace, tmp_path, capsys):
        out = tmp_path / "sweep1"
        code = cli.run(["sweep", "--param", "lambda_bot", "--values", "0.1",
                       "--config", _quick_config(tmp_path),
                       "--data", workspace["corpus"],
                       "--model", workspace["model"],
                       "--vocab", workspace["vocab"],
                       "--out", str(out)])
        assert code == 0
        lines = (out / "sweep_lambda_bot.csv").read_text().splitlines()
        assert len(lines) == 2

    def test_lmax_sweep_resizes_the_length_head(self, workspace, tmp_path, capsys):
        out = tmp_path / "sweep_lmax"
        code = cli.run(["sweep", "--param", "lmax", "--values", "2,4",
                       "--config", _quick_config(tmp_path),
                       "--data", workspace["corpus"],
                       "--model", workspace["model"],
                       "--vocab", workspace["vocab"],
                       "--out", str(out)])
        assert code == 0
        lines = (out / "sweep_lmax.csv").read_text().splitlines()
        assert [line.split(",")[:2] for line in lines[1:]] == [["lmax", "2.0"], ["lmax", "4.0"]]
