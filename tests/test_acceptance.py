"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines
as they complete. The heavyweight criteria (6, 8, 9) train real models and
dominate the runtime.
"""

import copy
import functools
import itertools
import json
import math

import numpy as np
import pytest

from varnamer import (
    baseline,
    bpe,
    cli,
    corpus,
    gradcheck,
    inference,
    losses as L,
    masking,
    metrics,
    model,
    training,
)

import toycorpus


def criterion(number, name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {number} {name}: FAIL")
                raise
            suffix = f" ({detail})" if detail else ""
            print(f"\nACCEPTANCE {number} {name}: PASS{suffix}")
        return wrapper
    return decorate


# --- 1: analytic loss values --------------------------------------------------

@criterion(1, "loss-analytics")
def test_loss_analytics():
    assert abs(L.cmlm_loss(np.full((1, 4), 0.25), [2]).item() - math.log(4)) <= 1e-9

    assert abs(L.lp_loss(np.full((1, 5), 0.2), [3]).item() - math.log(5)) <= 1e-9

    def unit_pair(cos_after, cos_before):
        gen = np.array([1.0, 0.0])
        mk = lambda c: np.array([c, math.sqrt(max(0.0, 1 - c * c))])
        return [gen], [mk(cos_after)], [mk(cos_before)]

    for tau in (0.02, 0.05, 0.25):
        equal = unit_pair(0.4, 0.4)
        assert abs(L.cl_loss(*equal, tau).item() - math.log(2)) <= 1e-9
    separated = unit_pair(1.0, -1.0)
    assert L.cl_loss(*separated, 0.05).item() < 1e-12


# --- 2: gradient fidelity -----------------------------------------------------

@criterion(2, "gradient-fidelity")
def test_gradient_fidelity():
    params, example = gradcheck.toy_model(vocab_size=64, hidden_dim=32,
                                          num_layers=2, seed=0)
    suite = gradcheck.loss_suite(example)
    worst = {}
    for name, fn in suite.items():
        # 6 coordinates across each of the 40 tensors: 240 sampled per loss,
        # at the default step of the numeric derivative
        worst[name] = gradcheck.gradient_check(fn, params, coords_per_tensor=6, seed=13)
        assert worst[name] < 1e-4, f"{name}: {worst[name]:.3e}"
    return "max rel err " + ", ".join(f"{k}={v:.2e}" for k, v in worst.items())


# --- 3: bag-of-tokens order invariance ----------------------------------------

@criterion(3, "bot-order-invariance")
def test_bot_order_invariance():
    rng = np.random.default_rng(33)
    for _ in range(1000):
        g = int(rng.integers(1, 6))
        vocab_size = int(rng.integers(8, 33))
        probs = rng.dirichlet(np.ones(vocab_size), size=g)
        targets = rng.integers(0, vocab_size, size=g).tolist()
        z = L.bot_distribution(probs)
        reference = L.bot_loss(z, targets).item()
        permuted = [targets[i] for i in rng.permutation(g)]
        assert L.bot_loss(z, permuted).item() == reference

    probs = np.array([[0.7, 0.1, 0.1, 0.1], [0.1, 0.7, 0.1, 0.1]])
    straight = L.cmlm_loss(probs, [0, 1]).item()
    crossed = L.cmlm_loss(probs, [1, 0]).item()
    assert straight != crossed


# --- 4: metric oracles --------------------------------------------------------

def brute_force_edit_distance(a, b):
    if not a:
        return len(b)
    if not b:
        return len(a)
    options = [1 + brute_force_edit_distance(a[1:], b),
               1 + brute_force_edit_distance(a, b[1:])]
    options.append((0 if a[0] == b[0] else 1)
                   + brute_force_edit_distance(a[1:], b[1:]))
    return min(options)


@criterion(4, "metric-oracles")
def test_metric_oracles():
    alphabet = ["a", "b", "c"]
    sequences = [list(s) for n in range(5)
                 for s in itertools.product(alphabet, repeat=n)]
    for a in sequences:
        for b in sequences:
            assert metrics.token_edit_distance(a, b) == \
                brute_force_edit_distance(a, b)

    assert metrics.exact_match("ImgFolder", "ImageFolder") == 0
    assert metrics.token_edit_distance(["Img", "Folder"], ["Image", "Folder"]) == 1
    assert abs(metrics.cer("ImgFolder", "ImageFolder") - 18.18) <= 0.01
    return f"{len(sequences)**2} sequence pairs vs brute force"


# --- 5: masking contracts -----------------------------------------------------

@pytest.fixture(scope="module")
def masking_corpus():
    rng = np.random.default_rng(500)
    soup_alphabet = list("zqxjvwkyh")
    functions = toycorpus.generate_functions(seed=202, count=185)
    for i in range(15):
        name = "".join(rng.choice(soup_alphabet, size=12)) + str(i)
        functions.append(toycorpus.make_function(
            name, f"edge{i}", int(rng.integers(1, 900)),
            int(rng.integers(1, 90)), 1000 + i))
    records, _ = corpus.adapt_corpus(
        functions, seed=11, validation_fraction=0.0, test_fraction=0.0)
    vocab = bpe.train_bpe(functions, 420)
    return records, vocab


@criterion(5, "masking-contracts")
def test_masking_contracts(masking_corpus):
    records, vocab = masking_corpus
    assert len(records) == 200
    over_limit = sum(1 for r in records
                     if len(bpe.encode(vocab, r.variable_after)) > 5)
    assert over_limit > 0

    config = training.TrainConfig(max_name_tokens=5, max_seq_len=512)
    cmlm_examples, cmlm_stats = training.build_cmlm_dataset(vocab, records, config)
    num_examples, num_stats = training.build_num_dataset(vocab, records, config)
    assert cmlm_stats["too_long"] == over_limit
    assert num_stats["too_long"] == over_limit
    assert len(cmlm_examples) == 200 - over_limit

    for example, record in zip(cmlm_examples,
                               [r for r in records
                                if len(bpe.encode(vocab, r.variable_after)) <= 5]):
        expected = [bpe.CLS] + bpe.encode(vocab, record.code_after) + [bpe.SEP]
        assert masking.restore_targets(example) == expected

    for example in num_examples:
        counts = example.input_ids.count(bpe.NUM)
        assert counts == len(example.mask_positions)
        assert all(len(group) == 1 for group in example.mask_positions)
        assert bpe.MASK not in example.input_ids
    return f"{len(cmlm_examples)} kept, {over_limit} excluded"


@pytest.mark.parametrize("max_seq_len", [512, 64, 24])
@pytest.mark.parametrize("source", ["toy", "masking"])
def test_stage2_after_input_is_the_restored_masked_input(
        request, desk_vocab, toy_records, source, max_seq_len):
    # Stage 2 packs restore_targets(masked) as the after-rename input; this
    # checks it against the window run over code_after with the name itself.
    records, vocab = (request.getfixturevalue("masking_corpus") if source == "masking"
                      else (toy_records, desk_vocab))
    config = training.TrainConfig(max_seq_len=max_seq_len)
    kept = 0
    for record in records:
        examples, _ = training.build_tg_dataset(vocab, [record], config)
        for example in examples:
            ids, groups = masking.encode_with_positions(
                vocab, record.code_after, record.variable_after, max_seq_len)
            assert masking.restore_targets(example.masked) == ids
            assert example.masked.mask_positions == groups
            kept += 1
    assert kept > 0


# --- 6: overfit sanity --------------------------------------------------------

def _overfit_pipeline():
    functions = toycorpus.generate_functions(seed=101, count=50)
    records, _ = corpus.adapt_corpus(
        functions, seed=7, validation_fraction=0.0, test_fraction=0.0)
    vocab = bpe.train_bpe(functions, 420)
    config = model.ModelConfig(
        vocab_size=vocab.size, num_layers=2, hidden_dim=128, num_heads=4,
        ffn_dim=512, max_seq_len=128, dropout=0.0)
    params = model.init_params(config, 0)

    pre_cfg = training.TrainConfig(max_epochs=80, batch_size=10, seed=0,
                                   max_seq_len=128, learning_rate=3e-3)
    pre = training.pretrain(pre_cfg, params, records, vocab)

    lp_cfg = training.TrainConfig(max_epochs=100, batch_size=10, seed=0,
                                  max_seq_len=128, learning_rate=5e-4)
    training.finetune_lp(lp_cfg, params, records, vocab)
    predictor = inference.ModelPredictor(params, vocab)
    lp_report = metrics.evaluate_corpus(predictor, records, vocab)

    tg_cfg = training.TrainConfig(max_epochs=30, batch_size=10, seed=0,
                                  max_seq_len=128, learning_rate=5e-4)
    training.finetune_tg(tg_cfg, params, records, vocab)
    final_report = metrics.evaluate_corpus(predictor, records, vocab)
    return params, pre.history[-1]["loss"], lp_report, final_report


@pytest.mark.slow
@criterion(6, "overfit-sanity")
def test_overfit_sanity():
    params_a, pre_loss_a, lp_report_a, final_a = _overfit_pipeline()
    assert pre_loss_a < 0.1
    assert lp_report_a.hit_at_1 >= 0.9
    assert final_a.exact_match >= 0.9

    params_b, pre_loss_b, lp_report_b, final_b = _overfit_pipeline()
    assert pre_loss_b == pre_loss_a
    assert lp_report_b.hit_at_1 == lp_report_a.hit_at_1
    assert final_b.exact_match == final_a.exact_match
    for name in params_a.tensors:
        assert np.array_equal(params_a[name].data, params_b[name].data)
    return (f"pretrain loss {pre_loss_a:.4f}, Hit@1 {lp_report_a.hit_at_1:.2f}, "
            f"EM {final_a.exact_match:.2f}, deterministic")


# --- 7: uniqueness decoding ---------------------------------------------------

@criterion(7, "uniqueness-decoding")
def test_uniqueness_decoding(desk_vocab, toy_records):
    count = 0
    for block in range(5):
        config = model.ModelConfig(
            vocab_size=desk_vocab.size, num_layers=1, hidden_dim=32,
            num_heads=4, ffn_dim=64, max_seq_len=128, dropout=0.0)
        params = model.init_params(config, seed=100 + block)
        for i in range(100):
            record = toy_records[i % len(toy_records)]
            g = (i % 5) + 1
            tokens = inference.generate(params, desk_vocab, record.code_before,
                                        record.variable_before, g).sub_tokens
            assert len(tokens) == g
            assert len(set(tokens)) == g
            count += 1
    assert count == 500

    # shared argmax across slots: the duplicated leader is taken once and
    # the second slot falls back to its runner-up
    specials = len(bpe.SPECIAL_TOKENS)
    field, pattern, value = specials, specials + 1, specials + 2
    table = np.full((3, specials + 3), 1e-9)
    table[0, field] = 0.9
    table[0, pattern] = 0.05
    table[1, field] = 0.6
    table[1, value] = 0.3
    table[2, value] = 0.8
    table[2, pattern] = 0.1
    ids = inference.decode_unique(table)
    assert ids[0] == field
    assert len(set(ids)) == 3
    assert ids.count(field) == 1
    return "500 random instances, no duplicates"


# --- 8: ablation reachability -------------------------------------------------

@criterion(8, "ablation-reachability")
def test_ablation_reachability(desk_vocab, toy_records, tmp_path):
    records = toy_records[:12]
    variants = {
        "no_bot": dict(lambda_bot=0.0),
        "no_cl": dict(lambda_cl=0.0),
        "no_bot_no_cl": dict(lambda_bot=0.0, lambda_cl=0.0),
        "no_cmlm": dict(lambda_cmlm=0.0),
    }
    for name, overrides in variants.items():
        config = model.ModelConfig(
            vocab_size=desk_vocab.size, num_layers=1, hidden_dim=32,
            num_heads=4, ffn_dim=64, max_seq_len=128, dropout=0.0)
        params = model.init_params(config, 0)
        tc = training.TrainConfig(max_epochs=2, batch_size=6, seed=0,
                                  max_seq_len=128, **overrides)
        result = training.finetune_tg(tc, params, records, desk_vocab)
        assert len(result.history) == 2
        assert all(np.isfinite(row["loss"]) for row in result.history)

    # sweep subcommand emits the parameter-vs-accuracy rows as JSON lines
    corpus_path = tmp_path / "corpus.jsonl"
    corpus.save_corpus(records, str(corpus_path))
    vocab_path = tmp_path / "vocab.txt"
    bpe.save_vocab(desk_vocab, str(vocab_path))
    config = model.ModelConfig(
        vocab_size=desk_vocab.size, num_layers=1, hidden_dim=32, num_heads=4,
        ffn_dim=64, max_seq_len=128, dropout=0.0)
    model.save_checkpoint(model.init_params(config, 0), str(tmp_path / "base.rfbt"))
    cfg_path = tmp_path / "train.cfg"
    cfg_path.write_text(training.TrainConfig(
        max_epochs=1, batch_size=6, seed=0, max_seq_len=128).to_text())

    for param, values, rows in (("tau", "0.02,0.05,0.10", 3),
                                ("lambda_bot", "0.0,0.1", 2)):
        out_dir = tmp_path / f"sweep_{param}"
        code = cli.run(["sweep", "--param", param, "--values", values,
                        "--config", str(cfg_path),
                        "--data", str(corpus_path),
                        "--model", str(tmp_path / "base.rfbt"),
                        "--vocab", str(vocab_path),
                        "--out", str(out_dir)])
        assert code == 0
        parsed = [json.loads(line)
                  for line in (out_dir / f"sweep_{param}.jsonl").read_text().splitlines()]
        assert all({"value", "accuracy", "evaluated"} <= set(row) for row in parsed)
        assert len(parsed) == rows
        listed = [str(row["value"]) for row in parsed]
        assert listed == [str(float(v)) for v in values.split(",")]
    return "4 loss variants trained; tau and lambda sweeps emitted JSON lines"


# --- 9: directional bag-of-tokens effect --------------------------------------

@pytest.mark.slow
@criterion(9, "directional-bot-effect")
def test_directional_bot_effect():
    bags = [("data", "count"), ("total", "size"), ("item", "index"),
            ("node", "key")]
    records = toycorpus.bag_corpus(seed=5, bags=bags, per_bag=10)
    words = sorted({w for bag in bags for w in bag}
                   | {"int", "compute", "while", "return", "bound", "tmp"})
    vocab = toycorpus.handmade_vocab(words)

    config = model.ModelConfig(vocab_size=vocab.size, num_layers=2,
                               hidden_dim=64, num_heads=4, ffn_dim=128,
                               max_seq_len=150, dropout=0.0)
    base = model.init_params(config, 0)
    lp_cfg = training.TrainConfig(max_epochs=30, batch_size=8, seed=0,
                                  max_seq_len=150, learning_rate=1e-3)
    training.finetune_lp(lp_cfg, base, records, vocab)

    accuracy = {}
    for label, lambda_bot in (("default", 0.1), ("no_bot", 0.0)):
        params = copy.deepcopy(base)
        tg_cfg = training.TrainConfig(max_epochs=40, batch_size=8, seed=0,
                                      max_seq_len=150, learning_rate=1e-3, lambda_bot=lambda_bot)
        training.finetune_tg(tg_cfg, params, records, vocab)
        report = metrics.evaluate_corpus(
            inference.ModelPredictor(params, vocab), records, vocab)
        accuracy[label] = report.accuracy
    assert accuracy["default"] >= accuracy["no_bot"]
    return (f"set accuracy with BoT {accuracy['default']:.3f} >= "
            f"without {accuracy['no_bot']:.3f}")


# --- 10: baseline properties --------------------------------------------------

@criterion(10, "baseline-properties")
def test_baseline_properties(desk_vocab, toy_records):
    ngram = baseline.train_ngram(toy_records, desk_vocab, n=3, smoothing_k=0.01)
    rng = np.random.default_rng(4)
    contexts = list(ngram.counts)
    sampled = [contexts[i] for i in
               rng.choice(len(contexts), size=min(25, len(contexts)), replace=False)]
    sampled.append((desk_vocab.size - 1, desk_vocab.size - 2))  # unseen context
    for context in sampled:
        total = sum(ngram.conditional(context, t) for t in range(ngram.vocab_size))
        assert abs(total - 1.0) <= 1e-9

    known = set(ngram.all_names())
    for record in toy_records[:20]:
        ranked = baseline.ngram_suggest(
            ngram, desk_vocab, record.code_before, record.variable_before, top_k=3)
        assert all(name in known for name, _ in ranked)

    eval_code = "int f() {\n  int key = 7;\n  use(key);\n  return key;\n}"
    other_code = "int g() {\n  int sum = 9;\n  sum += 3;\n  return sum;\n}"
    memorized = [toycorpus.make_record("a", eval_code, "key", "tmp1"),
                 toycorpus.make_record("b", other_code, "sum", "tmp2")]
    ng2 = baseline.train_ngram(memorized, desk_vocab, n=2)
    ranked = baseline.ngram_suggest(
        ng2, desk_vocab, memorized[0].code_before, "tmp1", top_k=5)
    assert ranked[0][0] == "key"
    return "smoothing sums, closed vocabulary, memorization case"
