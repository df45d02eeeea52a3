import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))  # for oracles.py

from ckinv import ck
from ckinv.selftest import make_corpus


class Reports(list):
    """Invariant reports, with ``elapsed``, the seconds they took."""

    elapsed: float


@pytest.fixture(scope="session")
def corpus500():
    return make_corpus(500)


@pytest.fixture(scope="session")
def reports500(corpus500):
    start = time.perf_counter()
    reports = Reports(ck.invariants(a) for a in corpus500)
    reports.elapsed = time.perf_counter() - start
    return reports
