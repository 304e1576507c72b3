import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varnamer import bpe
from varnamer.errors import CorruptVocab, EmptyCorpus, EmptyName, VocabTooSmall

IDENTIFIER = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd"),
                           max_codepoint=127),
    min_size=1, max_size=24,
).filter(lambda s: not s[0].isdigit())


class TestTraining:
    def test_repeated_pair_merges(self):
        # one chunk "aaaa": pair (a,a) occurs 3 times and merges; the
        # follow-up pair (aa,aa) occurs once, below the frequency floor.
        vocab = bpe.train_bpe(["aaaa"], bpe.MIN_VOCAB_SIZE + 2)
        assert vocab.merges == [("a", "a")]

    def test_no_merge_below_frequency_floor(self):
        vocab = bpe.train_bpe(["ab"], bpe.MIN_VOCAB_SIZE + 1)
        assert vocab.merges == []
        assert vocab.size == bpe.MIN_VOCAB_SIZE

    def test_vocab_too_small(self):
        with pytest.raises(VocabTooSmall):
            bpe.train_bpe(["abc"], bpe.MIN_VOCAB_SIZE - 1)

    def test_deterministic(self, toy_functions):
        a = bpe.train_bpe(toy_functions, 400)
        b = bpe.train_bpe(toy_functions, 400)
        assert a.merges == b.merges
        assert a.token_to_id == b.token_to_id

    def test_vocab_size_reached(self, toy_functions):
        vocab = bpe.train_bpe(toy_functions, 300)
        assert vocab.size == 300

    def test_ids_dense_and_inverse(self, desk_vocab):
        assert sorted(desk_vocab.id_to_token) == list(range(desk_vocab.size))
        for token, token_id in desk_vocab.token_to_id.items():
            assert desk_vocab.id_to_token[token_id] == token

    def test_specials_distinct_and_first(self, desk_vocab):
        ids = [desk_vocab.special_ids[t] for t in bpe.SPECIAL_TOKENS]
        assert ids == [0, 1, 2, 3, 4, 5]

    def test_more_merges_never_split_finer(self, toy_functions):
        small = bpe.train_bpe(toy_functions, 300)
        large = bpe.train_bpe(toy_functions, 400)
        for text in toy_functions[:10]:
            assert len(bpe.encode(large, text)) <= len(bpe.encode(small, text))


class TestEncodeDecode:
    def test_empty(self, desk_vocab):
        assert bpe.encode(desk_vocab, "") == []

    def test_roundtrip_on_code(self, desk_vocab, toy_functions):
        for code in toy_functions:
            assert bpe.decode(desk_vocab, bpe.encode(desk_vocab, code)) == code

    @settings(max_examples=200, deadline=None)
    @given(st.text(max_size=60))
    def test_roundtrip_arbitrary_text(self, text):
        vocab = bpe.train_bpe(["the quick brown fox"], bpe.MIN_VOCAB_SIZE + 4)
        assert bpe.decode(vocab, bpe.encode(vocab, text)) == text

    def test_no_special_ids_in_output(self, desk_vocab, toy_functions):
        for code in toy_functions[:10]:
            assert all(not desk_vocab.is_special(i)
                       for i in bpe.encode(desk_vocab, code))
        literal = "tokens like [CLS] and [MASK] in text"
        assert all(not desk_vocab.is_special(i)
                   for i in bpe.encode(desk_vocab, literal))
        assert bpe.decode(desk_vocab, bpe.encode(desk_vocab, literal)) == literal


def merge_without_memo(vocab, text):
    """encode() as it is without the chunk memo: merges applied per chunk."""
    return [vocab.token_to_id[symbol]
            for chunk in bpe._WORD_RE.findall(text)
            for symbol in bpe._apply_merges(vocab, bpe._to_symbols(chunk))]


# Two vocabularies that split the shared words differently.
MEMO_VOCABS = (
    bpe.train_bpe(["the quick brown fox the quick fox"], bpe.MIN_VOCAB_SIZE + 12),
    bpe.train_bpe(["lazy dog over the lazy dog thee"], bpe.MIN_VOCAB_SIZE + 12),
)
MEMO_TEXT = st.lists(
    st.sampled_from(["the", "quick", "fox", "lazy", "dog", "thee", " ", "\n  ", "."])
    | st.text(max_size=6),
    max_size=12,
).map("".join)


class TestChunkMemo:
    def test_vocabularies_differ_on_shared_words(self):
        a, b = MEMO_VOCABS
        assert merge_without_memo(a, "the quick") != merge_without_memo(b, "the quick") \
            or merge_without_memo(a, "the lazy") != merge_without_memo(b, "the lazy")

    @settings(max_examples=300, deadline=None)
    @given(MEMO_TEXT)
    def test_memoised_encode_equals_merges(self, text):
        for vocab in MEMO_VOCABS + MEMO_VOCABS:   # second round hits the memo
            assert bpe.encode(vocab, text) == merge_without_memo(vocab, text)
        a, b = MEMO_VOCABS
        assert a._chunk_ids is not b._chunk_ids

    def test_memo_is_bounded(self, monkeypatch):
        vocab = bpe.train_bpe(["the quick brown fox"], bpe.MIN_VOCAB_SIZE + 4)
        monkeypatch.setattr(bpe, "CHUNK_CACHE_LIMIT", 3)
        text = "a bb the quick ccc fox d the"
        assert bpe.encode(vocab, text) == merge_without_memo(vocab, text)
        assert 0 < len(vocab._chunk_ids) <= 3


class TestTokenizeVariable:
    def test_known_split(self):
        # a vocabulary holding both halves splits the camelCase name in two
        vocab = toy_vocab(["backups", "Dir"])
        assert bpe.tokenize_variable(vocab, "backupsDir") == ["backups", "Dir"]

    def test_single_char(self, desk_vocab):
        assert bpe.tokenize_variable(desk_vocab, "x") == ["x"]

    def test_empty_name(self, desk_vocab):
        with pytest.raises(EmptyName):
            bpe.tokenize_variable(desk_vocab, "")

    @settings(max_examples=300, deadline=None)
    @given(IDENTIFIER)
    def test_partition_contract(self, name):
        vocab = bpe.train_bpe(
            ["alpha beta gammaValue someLongIdentifier x1"],
            bpe.MIN_VOCAB_SIZE + 8)
        assert "".join(bpe.tokenize_variable(vocab, name)) == name

    def test_partition_on_desk_vocab(self, desk_vocab, toy_records):
        for record in toy_records[:20]:
            name = record.variable_after
            assert "".join(bpe.tokenize_variable(desk_vocab, name)) == name


def toy_vocab(words):
    import toycorpus

    return toycorpus.handmade_vocab(words)


class TestVocabFile:
    def test_save_load_roundtrip(self, desk_vocab, tmp_path, toy_functions):
        path = tmp_path / "vocab.txt"
        bpe.save_vocab(desk_vocab, str(path))
        loaded = bpe.load_vocab(str(path))
        assert loaded.merges == desk_vocab.merges
        assert loaded.token_to_id == desk_vocab.token_to_id
        assert loaded.special_ids == desk_vocab.special_ids
        code = toy_functions[0]
        assert bpe.encode(loaded, code) == bpe.encode(desk_vocab, code)
        assert loaded == desk_vocab     # the chunk memo takes no part in equality

    def test_header_format(self, desk_vocab, tmp_path):
        path = tmp_path / "vocab.txt"
        bpe.save_vocab(desk_vocab, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == f"BPE v1 {desk_vocab.size}"
        assert "#SPECIALS" in lines
        specials = lines[lines.index("#SPECIALS") + 1:]
        assert len(specials) == 6
        assert specials[0].split() == ["[CLS]", "0"]

    def test_failed_save_keeps_previous_file(self, desk_vocab, tmp_path, monkeypatch):
        path = tmp_path / "vocab.txt"
        bpe.save_vocab(desk_vocab, str(path))
        before = path.read_bytes()
        first_merges = desk_vocab.merges[:3]

        def merges_then_failure():
            yield from first_merges
            raise OSError("disk full")

        monkeypatch.setattr(desk_vocab, "merges", merges_then_failure())
        with pytest.raises(OSError, match="disk full"):
            bpe.save_vocab(desk_vocab, str(path))
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["vocab.txt"]


VALID_HEADER = f"BPE v1 {bpe.MIN_VOCAB_SIZE}\n"
SPECIALS = "#SPECIALS\n" + "".join(f"{name} {i}\n" for i, name in enumerate(bpe.SPECIAL_TOKENS))


@pytest.mark.parametrize("content, line_no", [
    (b"", 1),
    (b"hello world\n", 1),
    (b"BPE v1 lots\n#SPECIALS\n", 1),
    (VALID_HEADER.encode() + b"ab\n", 2),
    (VALID_HEADER.encode() + b"a b c\n", 2),
    (VALID_HEADER.encode() + b"#SPECIALS\n[CLS] 0\n[SEP] one\n", 4),
    (VALID_HEADER.encode() + b"#SPECIALS\n[CLS]\n", 3),
    (VALID_HEADER.encode() + b"a b\n\xff \xfe\n", 3),
    (VALID_HEADER.encode() + "a b\n\u20ac x\n".encode(), 3),
    (f"BPE v1 {bpe.MIN_VOCAB_SIZE + 5}\na b\n".encode(), 1),
    # the special ids are fixed by the order of SPECIAL_TOKENS
    (VALID_HEADER.encode() + b"#SPECIALS\n[MASK] 9\n", 3),
    (VALID_HEADER.encode() + b"#SPECIALS\n[SEP] 1\n[CLS] 0\n", 3),
    (VALID_HEADER.encode() + b"#SPECIALS\n[CLS] 0\n[SEP] 2\n", 4),
    (VALID_HEADER.encode(), 2),
    ((VALID_HEADER + SPECIALS.rsplit("[UNK]", 1)[0]).encode(), 8),
    ((VALID_HEADER + SPECIALS + "[CLS] 0\n").encode(), 9),
])
def test_malformed_vocab_names_path_and_line(tmp_path, content, line_no):
    path = tmp_path / "bad.vocab"
    path.write_bytes(content)
    with pytest.raises(CorruptVocab, match=f"bad.vocab: line {line_no}: ") as info:
        bpe.load_vocab(str(path))
    assert info.value.line_no == line_no


def test_a_merge_string_already_a_token_adds_no_id(tmp_path):
    # "[CLS]" equals a special, and ("a", "ab") repeats the string of ("aa", "b")
    merges = [("a", "a"), ("aa", "b"), ("a", "b"), ("a", "ab"), ("[", "C"), ("[C", "L"),
              ("[CL", "S"), ("[CLS", "]"), ("b", "b")]
    added = ["aa", "aab", "ab", "[C", "[CL", "[CLS", "bb"]
    path = tmp_path / "dup.vocab"
    path.write_text(f"BPE v1 {bpe.MIN_VOCAB_SIZE + len(added)}\n"
                    + "".join(f"{left} {right}\n" for left, right in merges) + SPECIALS)
    vocab = bpe.load_vocab(str(path))
    assert vocab.token_to_id["[CLS]"] == bpe.CLS
    assert [vocab.id_to_token[i] for i in range(bpe.MIN_VOCAB_SIZE, vocab.size)] == added
    bpe.save_vocab(vocab, str(path))
    assert bpe.load_vocab(str(path)) == vocab


def test_no_texts_is_an_empty_corpus():
    with pytest.raises(EmptyCorpus, match="no texts"):
        bpe.train_bpe([], bpe.MIN_VOCAB_SIZE)


def test_minimal_vocab_file_loads(tmp_path):
    path = tmp_path / "min.vocab"
    path.write_text(VALID_HEADER + SPECIALS)
    vocab = bpe.load_vocab(str(path))
    assert vocab.special_ids == dict(zip(bpe.SPECIAL_TOKENS, range(len(bpe.SPECIAL_TOKENS))))
    assert vocab.size == bpe.MIN_VOCAB_SIZE and vocab.merges == []
