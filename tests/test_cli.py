import json
import os

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

    def test_train_tokenizer(self, workspace, tmp_path, capsys):
        out = tmp_path / "tok"
        code = cli.run(["train-tokenizer", "--data", workspace["corpus"],
                       "--vocab-size", "300", "--out", str(out)])
        assert code == 0
        result = json.loads(capsys.readouterr().out)
        assert result["vocab_size"] == 300
        loaded = bpe.load_vocab(str(out / "vocab.txt"))
        assert loaded.size == 300

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
        assert set(results) == {"cmlm", "lp", "bot", "cl", "combined"}
        assert all(v < 1e-4 for v in results.values())


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
