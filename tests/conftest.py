import os
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from varnamer import bpe, corpus  # noqa: E402

import toycorpus  # noqa: E402

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pytest_report_header(config):
    """The numeric setting the bit-level and acceptance gates depend on
    (a GEMM's summation order follows the BLAS thread count)."""
    threads = ", ".join(f"{var}={os.environ.get(var, 'unset')}" for var in BLAS_THREAD_VARS)
    return f"numpy {np.__version__}; {threads}"


@pytest.fixture(scope="session")
def toy_functions() -> list[str]:
    return toycorpus.generate_functions(seed=101, count=60)


@pytest.fixture(scope="session")
def desk_vocab(toy_functions) -> bpe.SubwordVocab:
    return bpe.train_bpe(toy_functions, vocab_size=420)


@pytest.fixture(scope="session")
def toy_records(toy_functions):
    records, _ = corpus.adapt_corpus(
        toy_functions, seed=7, validation_fraction=0.0, test_fraction=0.0)
    return records
