"""Exception types shared across the package."""


class VarnamerError(Exception):
    """Base class for all errors raised by this package."""


# --- corpus -----------------------------------------------------------------

class MalformedCode(VarnamerError):
    """Input is empty or has unbalanced braces."""


class NoVariables(VarnamerError):
    """Function declares no local variables or parameters."""


class PoolExhausted(VarnamerError):
    """Every candidate name in the pool equals the picked variable."""


class SchemaViolation(VarnamerError):
    """A corpus line does not match the record schema."""

    def __init__(self, line_no: int, reason: str):
        super().__init__(f"line {line_no}: {reason}")
        self.line_no = line_no
        self.reason = reason


class InvariantViolation(VarnamerError):
    """A record violates a structural invariant."""

    def __init__(self, record_id: str, reason: str):
        super().__init__(f"record {record_id!r}: {reason}")
        self.record_id = record_id
        self.reason = reason


# --- tokenizer --------------------------------------------------------------

class VocabTooSmall(VarnamerError):
    """Requested vocabulary cannot hold the base alphabet plus specials."""


class EmptyName(VarnamerError):
    """An identifier argument was empty."""


# --- model ------------------------------------------------------------------

class InvalidConfig(VarnamerError):
    """Model or training configuration violates its invariants."""


class SequenceTooLong(VarnamerError):
    """Token sequence exceeds the configured maximum length."""


class UnknownTokenId(VarnamerError):
    """A token id is outside the vocabulary range."""


class EmptyPositions(VarnamerError):
    """Pooling was requested over an empty position list."""


class InvalidRows(VarnamerError):
    """Encoder output rows were requested that are empty or out of range."""


class ZeroVector(VarnamerError):
    """Pooled representation is exactly zero and cannot be normalized."""


class NonFiniteGradient(VarnamerError):
    """An analytic gradient contains NaN or infinity."""


class ShapeMismatch(VarnamerError):
    """Tensor shapes disagree between parameters, gradients, or checkpoints."""


class CorruptCheckpoint(VarnamerError):
    """A checkpoint file is truncated or its bytes cannot be decoded."""


# --- losses -----------------------------------------------------------------

class LengthOutOfRange(VarnamerError):
    """A length label falls outside 1..max_name_tokens."""


# --- masking / training -----------------------------------------------------

class NameTooLong(VarnamerError):
    """Target name has more sub-tokens than the configured maximum."""


class NameTruncated(VarnamerError):
    """All occurrences of the target name fall beyond the truncation point."""


class NonFiniteLoss(VarnamerError):
    """Training loss became NaN or infinite."""


# --- inference --------------------------------------------------------------

class VariableNotFound(VarnamerError):
    """The requested variable does not occur in the given code."""


class VocabExhausted(VarnamerError):
    """More unique tokens requested than the vocabulary can provide."""


# --- metrics ----------------------------------------------------------------

class EmptyTruth(VarnamerError):
    """Ground-truth name or token list is empty."""


# --- baseline ---------------------------------------------------------------

class EmptyCorpus(VarnamerError):
    """Training corpus contains no usable records."""


class NoCandidates(VarnamerError):
    """The candidate index is empty; the model saw no names at all."""


# --- cli --------------------------------------------------------------------

class UsageError(VarnamerError):
    """Bad command-line arguments."""
