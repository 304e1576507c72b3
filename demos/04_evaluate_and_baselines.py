"""Metrics and baselines: scoring a predictor the way the tables do.

Compares a ground-truth echo predictor (upper bound), the closed-vocabulary
n-gram suggester, and the average-probability length heuristic on a small
generated corpus.
"""

import numpy as np

from varnamer import baseline, bpe, corpus, metrics, model

rng = np.random.default_rng(9)
bank = ["count", "total", "value", "index", "size", "sum"]
functions = []
for i in range(20):
    parts = [bank[j] for j in rng.choice(len(bank), size=rng.integers(1, 3),
                                         replace=False)]
    name = parts[0] + "".join(p.capitalize() for p in parts[1:])
    functions.append(
        f"int run{i}(int limit{i}) {{\n"
        f"    int {name} = {rng.integers(1, 900)};\n"
        f"    {name} += limit{i};\n"
        f"    return {name};\n"
        f"}}"
    )

records, _ = corpus.adapt_corpus(functions, seed=2, validation_fraction=0.0,
                                 test_fraction=0.0)
vocab = bpe.train_bpe(functions, 320)

print("=== single metrics ===")
print(f"  EM('ImgFolder','ImageFolder') = {metrics.exact_match('ImgFolder', 'ImageFolder')}")
print(f"  token ED ['Img','Folder'] vs ['Image','Folder'] = "
      f"{metrics.token_edit_distance(['Img', 'Folder'], ['Image', 'Folder'])}")
print(f"  CER('ImgFolder','ImageFolder') = {metrics.cer('ImgFolder', 'ImageFolder'):.2f}")


def echo_predictor(record):
    """A predictor is one call: (ranked (length, score) pairs, name)."""
    truth = len(bpe.encode(vocab, record.variable_after))
    ranking = [(g, float(g == truth)) for g in sorted(range(1, 6), key=lambda g: g != truth)]
    return ranking, record.variable_after


print("\n=== echo predictor (upper bound) ===")
report = metrics.evaluate_corpus(echo_predictor, records, vocab)
print(report.summary_table())

print("\n=== n-gram baseline (closed vocabulary) ===")
ngram = baseline.train_ngram(records, vocab, n=3)
report = metrics.evaluate_corpus(baseline.NgramPredictor(ngram, vocab), records, vocab)
print(report.summary_table())

print("\n=== length heuristic on an untrained model ===")
config = model.ModelConfig(vocab_size=vocab.size, num_layers=1, hidden_dim=32,
                           num_heads=4, ffn_dim=64, max_seq_len=128, dropout=0.0)
params = model.init_params(config, seed=0)
report = metrics.evaluate_corpus(baseline.HeuristicLengthPredictor(params, vocab),
                                 records, vocab)
print(report.summary_table())
