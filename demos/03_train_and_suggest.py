"""End-to-end desk-scale run: pretrain, both fine-tuning stages, suggest.

Trains a small encoder to memorize a dozen generated functions, then asks
it to rename the decoy variables. Takes about a minute on a laptop CPU.
"""

import numpy as np

from varnamer import bpe, corpus, inference, model, training


def make_function(name, arg, lit1, lit2, tag):
    return (
        f"int compute{tag}(int {arg}) {{\n"
        f"    int {name} = {lit1};\n"
        f"    while ({name} < {arg}) {{\n"
        f"        {name} += {lit2};\n"
        f"    }}\n"
        f"    return {name};\n"
        f"}}"
    )


rng = np.random.default_rng(3)
bank = ["count", "total", "value", "index", "buffer", "size", "sum", "node"]
functions = []
for i in range(12):
    parts = [bank[j] for j in rng.choice(len(bank), size=rng.integers(1, 3),
                                         replace=False)]
    name = parts[0] + "".join(p.capitalize() for p in parts[1:])
    functions.append(make_function(name, f"limit{i}", rng.integers(1, 900),
                                   rng.integers(1, 90), i))

records, _ = corpus.adapt_corpus(functions, seed=1, validation_fraction=0.0,
                                 test_fraction=0.0)
vocab = bpe.train_bpe(functions, 320)
print(f"{len(records)} records, vocab {vocab.size}")

config = model.ModelConfig(vocab_size=vocab.size, num_layers=2, hidden_dim=64,
                           num_heads=4, ffn_dim=128, max_seq_len=128, dropout=0.0)
params = model.init_params(config, seed=0)

print("\npretraining (masked-token cross entropy only)...")
pre_cfg = training.TrainConfig(max_epochs=60, batch_size=6, seed=0,
                               max_seq_len=128, learning_rate=3e-3)
result = training.pretrain(pre_cfg, params, records, vocab)
print(f"  final loss {result.history[-1]['loss']:.4f}")

print("stage 1: length prediction (token head frozen)...")
lp_cfg = training.TrainConfig(max_epochs=60, batch_size=6, seed=0,
                              max_seq_len=128, learning_rate=5e-4)
result = training.finetune_lp(lp_cfg, params, records, vocab)
print(f"  final loss {result.history[-1]['loss']:.4f}")

print("stage 2: token generation (combined loss, length head frozen)...")
tg_cfg = training.TrainConfig(max_epochs=25, batch_size=6, seed=0,
                              max_seq_len=128, learning_rate=5e-4)
result = training.finetune_tg(tg_cfg, params, records, vocab)
last = result.history[-1]
print(f"  components: cmlm {last['cmlm']:.4f}, bot {last['bot']:.4f}, "
      f"cl {last['cl']:.4f}")

print("\nsuggestions on the training records:")
for record in records[:6]:
    suggestion = inference.suggest(params, vocab, record.code_before,
                                   record.variable_before)
    marker = "=" if suggestion.name == record.variable_after else "x"
    print(f"  [{marker}] {record.variable_before!r} -> {suggestion.name!r}"
          f" (truth {record.variable_after!r},"
          f" predicted {suggestion.length_used} sub-tokens)")
