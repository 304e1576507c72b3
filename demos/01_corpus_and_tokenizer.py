"""Build a rename corpus from plain Java functions and train a tokenizer.

Walks through the data side of the pipeline: variable extraction, the
seeded pick/substitute adaptation, corpus validation, and byte-pair
subword training.
"""

from varnamer import bpe, corpus, javalex

# A couple of tiny Java functions. In real use these come from a JSONL
# file of mined code; here they are inline for readability.
functions = [
    (
        "int sumUpTo(int limit) {\n"
        "    int runningTotal = 0;\n"
        "    for (int i = 0; i < limit; i++) {\n"
        "        runningTotal += i;\n"
        "    }\n"
        "    return runningTotal;\n"
        "}"
    ),
    (
        "String firstName(List<String> names) {\n"
        "    String candidate = names.get(0);\n"
        "    if (candidate == null) {\n"
        "        return \"\";\n"
        "    }\n"
        "    return candidate;\n"
        "}"
    ),
    (
        "int clampValue(int rawValue, int maxBound) {\n"
        "    int clamped = rawValue;\n"
        "    if (clamped > maxBound) {\n"
        "        clamped = maxBound;\n"
        "    }\n"
        "    return clamped;\n"
        "}"
    ),
]

print("=== variable extraction ===")
for code in functions:
    names = [(v.name, len(v.spans)) for v in javalex.extract_variables(code)]
    print(f"  {names}")

print("\n=== corpus adaptation ===")
# One variable per function becomes the ground truth; a decoy name sampled
# from the pool of picked names becomes the 'before' state.
records, stats = corpus.adapt_corpus(functions, seed=42,
                                     validation_fraction=0.0, test_fraction=0.0)
print(f"  adapted {len(records)} records, stats {stats}")
for record in records:
    print(f"  {record.id}: {record.variable_before!r} -> {record.variable_after!r}")
corpus.validate_record(records[0])
print("  first record passes all invariants")

print("\n=== subword tokenizer ===")
vocab = bpe.train_bpe(functions, vocab_size=bpe.MIN_VOCAB_SIZE + 40)
print(f"  vocab size {vocab.size}, merges {len(vocab.merges)}")
name = records[0].variable_after
print(f"  {name!r} -> {bpe.tokenize_variable(vocab, name)}")
roundtrip = bpe.decode(vocab, bpe.encode(vocab, functions[0]))
print(f"  encode/decode round-trip exact: {roundtrip == functions[0]}")
