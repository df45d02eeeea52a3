"""Acceptance criteria, one test per criterion.

Every comparison is exact equality of canonical forms.  The checks are
those of ``ckinv selftest`` (:mod:`ckinv.selftest`), run here on larger
inputs; each returns None when it holds, else its first failure.  Each
test prints one PASS line (visible with ``pytest -s``); stated wall-clock
budgets are asserted where given.  Criteria 4-8 and 11 run on the
session corpus of 500 seeded random valid matrices of size up to 12;
criterion 4's budget covers computing their 500 invariant reports, which
the later criteria reuse.
"""

import itertools
import random
import time

from ckinv import ck, intmat, realize
from ckinv.selftest import check_amplified_fixtures, check_cuntz_fixtures, \
    check_five_term, check_hat_factorization, check_isomorphism_coherence, \
    check_rank_identities, check_realize_roundtrip, check_smith_properties, \
    check_stable_equality, check_torsion_splitting, \
    check_transpose_pair_fixture, check_unit_class_cross_check, \
    random_matrices, random_targets

from oracles import bareiss_det, naive_snf_diagonal, object_array


def _announce(num, name, elapsed):
    print(f"ACCEPTANCE {num:2d} PASS {name} ({elapsed:.2f}s)")


def test_criterion_01_cuntz_fixtures():
    t0 = time.perf_counter()
    assert check_cuntz_fixtures() is None
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _announce(1, "Cuntz-algebra fixtures N=2..12", elapsed)


def test_criterion_02_amplification_fixtures():
    t0 = time.perf_counter()
    assert check_amplified_fixtures() is None
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _announce(2, "amplification fixtures 2<=N<=5, 1<=k<=6", elapsed)


def test_criterion_03_transposed_pair_fixture():
    t0 = time.perf_counter()
    assert check_transpose_pair_fixture() is None
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _announce(3, "3x3 transposed pair: published groups and verdicts",
              elapsed)


def test_criterion_04_rank_identities(reports500):
    t0 = time.perf_counter()
    assert len(reports500) >= 500
    assert check_rank_identities(reports500) is None
    elapsed = reports500.elapsed + (time.perf_counter() - t0)
    assert elapsed < 20.0
    _announce(4, "rank identities on 500-matrix corpus", elapsed)


def test_criterion_05_torsion_splitting(reports500):
    t0 = time.perf_counter()
    assert check_torsion_splitting(reports500) is None
    _announce(5, "pi1 = pi2 + torsion(K0) on the corpus",
              time.perf_counter() - t0)


def test_criterion_06_stable_equality(reports500):
    t0 = time.perf_counter()
    assert check_stable_equality(reports500) is None
    _announce(6, "stable pi1 = stable pi2 on the corpus",
              time.perf_counter() - t0)


def test_criterion_07_five_term_exactness(corpus500):
    t0 = time.perf_counter()
    assert check_five_term(corpus500) is None
    _announce(7, "five-term sequence exact at all nodes on the corpus",
              time.perf_counter() - t0)


def test_criterion_08_hat_factorization(corpus500):
    t0 = time.perf_counter()
    assert check_hat_factorization(corpus500) is None
    _announce(8, "I - A^hat = (I-A)(I-R_1) on the corpus",
              time.perf_counter() - t0)


def test_criterion_09_decision_coherence(corpus500):
    t0 = time.perf_counter()
    pool = corpus500[:60] + [ck.gen_cuntz(n) for n in range(2, 6)] + \
        [ck.gen_amplified(n, k) for n in (2, 3, 4) for k in (1, 2, 3)]
    rng = random.Random(2718)
    pairs = [(rng.choice(pool), rng.choice(pool)) for _ in range(170)]
    pairs += [(m, m) for m in pool[:30]]  # guaranteed positives
    assert len(pairs) >= 200
    assert check_isomorphism_coherence(pairs, positives=30) is None
    _announce(9, f"isomorphism verdicts agree on {len(pairs)} pairs",
              time.perf_counter() - t0)


def test_criterion_10_realization_roundtrip():
    t0 = time.perf_counter()
    targets = [realize.RealizationTarget(r, factors) for r in range(4)
               for length in range(4)
               for factors in itertools.product(range(2, 13), repeat=length)]
    # independent spot check with the full invariant machinery
    assert check_realize_roundtrip(targets, random_targets(60, 31415)) \
        is None
    elapsed = time.perf_counter() - t0
    assert len(targets) == 4 * (1 + 11 + 11 ** 2 + 11 ** 3)
    assert elapsed < 10.0
    _announce(10, f"realization roundtrip on all {len(targets)} targets",
              elapsed)


def test_criterion_11_unit_class_cross_check(corpus500, reports500):
    t0 = time.perf_counter()
    assert check_unit_class_cross_check(corpus500, reports500) is None
    _announce(11, "ExtS1 = Z + K0/(unit class) on the corpus",
              time.perf_counter() - t0)


def test_criterion_12_smith_oracle_equivalence():
    t0 = time.perf_counter()
    matrices = random_matrices(1000, 1618)
    assert check_smith_properties(matrices) is None
    for m in matrices:
        dec = intmat.smith_normal_form(m)
        mm = object_array(m)
        assert ((dec.u @ mm @ dec.v) == dec.s).all()
        assert abs(bareiss_det(dec.u.tolist())) == 1
        assert abs(bareiss_det(dec.v.tolist())) == 1
        diag = dec.diagonal
        for i in range(len(diag) - 1):
            if diag[i] == 0:
                assert diag[i + 1] == 0
            else:
                assert diag[i + 1] % diag[i] == 0
        assert list(diag) == naive_snf_diagonal(m)
    _announce(12, "Smith form vs naive elementary-operation oracle, "
                  "1000 matrices", time.perf_counter() - t0)
