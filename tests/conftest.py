import os
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))
# The benchmark's modules, for the tests that pin what it relies on.
sys.path.append(str(Path(__file__).parent.parent / "bench"))

from varnamer import bpe, cli, corpus  # noqa: E402

import toycorpus  # noqa: E402

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def numeric_setting() -> str:
    """The numeric setting the bit-level and acceptance gates depend on
    (a GEMM's summation order follows the BLAS thread count)."""
    threads = ", ".join(f"{var}={os.environ.get(var, 'unset')}" for var in BLAS_THREAD_VARS)
    openblas = cli._openblas_threads()
    return (f"numpy {np.__version__}; {threads}; "
            f"OpenBLAS threads {'unknown' if openblas is None else openblas}")


def pytest_report_header(config):
    return numeric_setting()


def pytest_terminal_summary(terminalreporter):
    # the report header is hidden under -q; this line is not
    terminalreporter.write_line(f"numeric setting: {numeric_setting()}")


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
