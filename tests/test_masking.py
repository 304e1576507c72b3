import pytest

from varnamer import bpe, javalex, masking
from varnamer.bpe import CLS, MASK, NUM, SEP
from varnamer.errors import NameTooLong, NameTruncated, ShapeMismatch

import toycorpus


def wrap_encode(vocab, code):
    return [CLS] + bpe.encode(vocab, code) + [SEP]


class TestCmlmMask:
    def test_mask_count_and_grouping(self, desk_vocab):
        # two-sub-token name with three occurrences: six slots, three groups
        code = "int f() {\n  int zqxFoo = 1;\n  zqxFoo += 2;\n  return zqxFoo;\n}"
        record = toycorpus.make_record("r", code, "zqxFoo", "tmp")
        g = len(bpe.encode(desk_vocab, "zqxFoo"))
        example = masking.apply_cmlm_mask(desk_vocab, record, max_name_tokens=g)
        assert all(example.input_ids[p] == MASK for p in example.flat_positions)
        assert example.length_label == g
        assert len(example.mask_positions) == 3
        assert all(len(group) == g for group in example.mask_positions)
        assert example.input_ids.count(MASK) == 3 * g
        assert NUM not in example.input_ids

    def test_single_token_single_occurrence(self, desk_vocab):
        code = "void f() {\n  int x;\n  int kept = 1;\n  use(kept);\n}"
        record = toycorpus.make_record("r", code, "x", "tmp")
        example = masking.apply_cmlm_mask(desk_vocab, record)
        assert example.input_ids.count(MASK) == 1

    def test_restore_roundtrip(self, desk_vocab, toy_records):
        for record in toy_records[:25]:
            example = masking.apply_cmlm_mask(desk_vocab, record)
            assert masking.restore_targets(example) == wrap_encode(
                desk_vocab, record.code_after)

    def test_name_too_long_rejected(self, desk_vocab):
        code = ("int f() {\n  int zz9qv8wy7xk = 1;\n  return zz9qv8wy7xk;\n}")
        record = toycorpus.make_record("r", code, "zz9qv8wy7xk", "tmp")
        g = len(bpe.encode(desk_vocab, "zz9qv8wy7xk"))
        assert g > 3
        with pytest.raises(NameTooLong):
            masking.apply_cmlm_mask(desk_vocab, record, max_name_tokens=3)

    def test_truncation_drops_late_occurrences(self, desk_vocab):
        filler = "other = other + 1;\n" * 40
        code = f"int f() {{\n  int pick = 1;\n  {filler}  return pick;\n}}"
        record = toycorpus.make_record("r", code, "pick", "tmp")
        short = masking.apply_cmlm_mask(desk_vocab, record, max_seq_len=64)
        assert len(short.mask_positions) == 1
        assert len(short.input_ids) <= 64

    def test_all_occurrences_truncated(self, desk_vocab):
        filler = "other = other + 1;\n" * 40
        code = f"int f() {{\n  {filler}  int pick = 1;\n  return pick;\n}}"
        record = toycorpus.make_record("r", code, "pick", "tmp")
        with pytest.raises(NameTruncated):
            masking.apply_cmlm_mask(desk_vocab, record, max_seq_len=64)

    def test_restore_rejects_a_num_example_of_a_longer_name(self, desk_vocab):
        # [NUM] leaves one slot per occurrence, which cannot hold g > 1 targets
        code = "int f() {\n  int zqxFoo = 1;\n  return zqxFoo;\n}"
        record = toycorpus.make_record("r", code, "zqxFoo", "tmp")
        g = len(bpe.encode(desk_vocab, "zqxFoo"))
        assert g > 1
        example = masking.apply_num_mask(desk_vocab, record, max_name_tokens=g)
        with pytest.raises(ShapeMismatch, match="one slot per target"):
            masking.restore_targets(example)


class TestNumMask:
    def test_one_placeholder_per_occurrence(self, desk_vocab):
        code = "int f() {\n  int zqxFoo = 1;\n  zqxFoo += 2;\n  return zqxFoo;\n}"
        record = toycorpus.make_record("r", code, "zqxFoo", "tmp")
        g = len(bpe.encode(desk_vocab, "zqxFoo"))
        example = masking.apply_num_mask(desk_vocab, record, max_name_tokens=g)
        assert example.input_ids.count(NUM) == 3
        assert MASK not in example.input_ids
        assert example.length_label == len(bpe.encode(desk_vocab, "zqxFoo"))

    def test_shorter_than_cmlm_by_arithmetic(self, desk_vocab):
        code = "int f() {\n  int zqxFoo = 1;\n  zqxFoo += 2;\n  return zqxFoo;\n}"
        record = toycorpus.make_record("r", code, "zqxFoo", "tmp")
        g = len(bpe.encode(desk_vocab, "zqxFoo"))
        cmlm = masking.apply_cmlm_mask(desk_vocab, record, max_name_tokens=g)
        num = masking.apply_num_mask(desk_vocab, record, max_name_tokens=g)
        assert len(cmlm.input_ids) - len(num.input_ids) == (g - 1) * 3

    def test_no_length_leak(self, desk_vocab):
        # same surrounding code, names with different sub-token counts:
        # the [NUM]-masked inputs must be identical
        template = "int f() {{\n  int {n} = 1;\n  {n} += 2;\n  return {n};\n}}"
        short = toycorpus.make_record(
            "a", template.format(n="sum"), "sum", "tmp")
        long = toycorpus.make_record(
            "b", template.format(n="countValueIndex"), "countValueIndex", "tmp")
        ex_short = masking.apply_num_mask(desk_vocab, short)
        ex_long = masking.apply_num_mask(desk_vocab, long)
        assert ex_short.input_ids == ex_long.input_ids
        assert ex_short.length_label != ex_long.length_label

    def test_before_and_after_sides_mask_identically(self, desk_vocab, toy_records):
        # masking the decoy in code_before equals masking the truth in
        # code_after; this is what lets inference reuse the training view
        for record in toy_records[:10]:
            from_after, _ = masking.masked_sequence(
                desk_vocab, record.code_after, record.variable_after,
                masking.SCHEME_NUM, 1, 512)
            from_before, _ = masking.masked_sequence(
                desk_vocab, record.code_before, record.variable_before,
                masking.SCHEME_NUM, 1, 512)
            assert from_after == from_before


class TestEncodeWithPositions:
    def test_positions_cover_name_tokens(self, desk_vocab, toy_records):
        for record in toy_records[:10]:
            ids, groups = masking.encode_with_positions(
                desk_vocab, record.code_after, record.variable_after, 512)
            assert ids == wrap_encode(desk_vocab, record.code_after)
            name_ids = bpe.encode(desk_vocab, record.variable_after)
            for group in groups:
                assert [ids[p] for p in group] == name_ids


class TestSegmentMemo:
    def test_memoised_segments_equal_a_fresh_split(self, desk_vocab, toy_records):
        masking.segments.cache_clear()
        for record in toy_records[:12] + toy_records[:12]:   # second round hits
            pieces = masking.segments(record.code_after, record.variable_after)
            assert isinstance(pieces, tuple)
            assert "".join(text for text, _ in pieces) == record.code_after
            spans = javalex.find_identifier_occurrences(
                record.code_after, record.variable_after)
            assert [text for text, hit in pieces if hit] == (
                [record.code_after[a:b] for a, b in spans])

    def test_memo_is_bounded(self, toy_records):
        masking.segments.cache_clear()
        for record in toy_records[:3 * masking.SEGMENT_CACHE_LIMIT]:
            masking.segments(record.code_after, record.variable_after)
        assert masking.segments.cache_info().currsize == masking.SEGMENT_CACHE_LIMIT

    def test_missing_name_raises_every_time(self):
        for _ in range(2):
            with pytest.raises(masking.VariableNotFound):
                masking.segments("int a = 1;", "missing")
