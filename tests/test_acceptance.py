"""Acceptance criteria, one test per criterion.

Every comparison is exact equality of canonical forms.  Each test prints
one PASS line (visible with ``pytest -s``); stated wall-clock budgets are
asserted where given.  Criteria 4-8 and 11 run on a fixed corpus of 500
seeded random valid matrices of size up to 12; criterion 4 pays the cost
of computing the 500 invariant reports, the later criteria reuse them.
"""

import itertools
import random
import time
from math import gcd

import numpy as np
import pytest

from ckinv import ck, intmat, realize
from ckinv.groups import FgAbGroup, TRIVIAL, Z, canonical_from_cyclic
from ckinv.presented import quotient_by_elements

from conftest import make_corpus
from oracles import bareiss_det, naive_snf_diagonal

EX3_A = [[1, 1, 1], [1, 1, 1], [1, 0, 0]]

_cache = {}


def corpus500_shared():
    if "corpus" not in _cache:
        _cache["corpus"] = make_corpus(500)
    return _cache["corpus"]


def reports500_shared():
    if "reports" not in _cache:
        corpus = corpus500_shared()
        t0 = time.perf_counter()
        _cache["reports"] = [ck.invariants(a) for a in corpus]
        _cache["reports_elapsed"] = time.perf_counter() - t0
    return _cache["reports"]


def _announce(num, name, elapsed):
    print(f"ACCEPTANCE {num:2d} PASS {name} ({elapsed:.2f}s)")


def test_criterion_01_cuntz_fixtures():
    t0 = time.perf_counter()
    for n in range(2, 13):
        r = ck.invariants(ck.gen_cuntz(n))
        cyclic = canonical_from_cyclic([n - 1])
        assert r.k0 == cyclic
        assert r.k1 == TRIVIAL
        assert r.ext_s1 == Z
        assert r.ext_s0 == TRIVIAL
        assert r.pi1_aut == cyclic
        assert r.pi2_aut == TRIVIAL
        assert r.pi1_aut_stable == cyclic
        assert r.pi2_aut_stable == cyclic
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _announce(1, "Cuntz-algebra fixtures N=2..12", elapsed)


def test_criterion_02_amplification_fixtures():
    t0 = time.perf_counter()
    for n in range(2, 6):
        for k in range(1, 7):
            r = ck.invariants(ck.gen_amplified(n, k))
            g = gcd(n - 1, k)
            assert r.ext_s1 == Z.direct_sum(canonical_from_cyclic([g]))
            assert r.pi1_aut == canonical_from_cyclic([n - 1, g])
            assert r.pi2_aut == canonical_from_cyclic([g])
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _announce(2, "amplification fixtures 2<=N<=5, 1<=k<=6", elapsed)


def test_criterion_03_transposed_pair_fixture():
    t0 = time.perf_counter()
    a = ck.validate(EX3_A)
    b = a.transpose()
    ra, rb = ck.invariants(a), ck.invariants(b)
    z2 = FgAbGroup(0, (2,))
    assert ra.k0 == z2 and rb.k0 == z2
    assert ra.ext_s1 == Z and rb.ext_s1 == FgAbGroup(1, (2,))
    assert ra.pi1_aut == z2 and rb.pi1_aut == FgAbGroup(0, (2, 2))
    assert ra.pi2_aut == TRIVIAL and rb.pi2_aut == z2
    for r in (ra, rb):
        assert r.pi1_aut_stable == z2 and r.pi2_aut_stable == z2
    assert not ck.is_isomorphic_ck(a, b)
    assert ck.is_stably_isomorphic_ck(a, b)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _announce(3, "3x3 transposed pair: published groups and verdicts",
              elapsed)


def test_criterion_04_rank_identities():
    reports = reports500_shared()
    t0 = time.perf_counter()
    assert len(reports) >= 500
    for r in reports:
        assert r.ext_s1.free_rank == r.ext_s0.free_rank + 1
        assert r.k0.free_rank == r.k1.free_rank
    elapsed = _cache["reports_elapsed"] + (time.perf_counter() - t0)
    assert elapsed < 20.0
    _announce(4, "rank identities on 500-matrix corpus", elapsed)


def test_criterion_05_torsion_splitting():
    t0 = time.perf_counter()
    for r in reports500_shared():
        assert r.pi1_aut == r.pi2_aut.direct_sum(r.k0.torsion)
    _announce(5, "pi1 = pi2 + torsion(K0) on the corpus",
              time.perf_counter() - t0)


def test_criterion_06_stable_equality():
    t0 = time.perf_counter()
    for r in reports500_shared():
        assert r.pi1_aut_stable == r.pi2_aut_stable
    _announce(6, "stable pi1 = stable pi2 on the corpus",
              time.perf_counter() - t0)


def test_criterion_07_five_term_exactness():
    t0 = time.perf_counter()
    for a in corpus500_shared():
        seq = ck.five_term_sequence(a)
        assert seq.verified, a.entries
        assert all(seq.nodes_exact)
    _announce(7, "five-term sequence exact at all nodes on the corpus",
              time.perf_counter() - t0)


def test_criterion_08_hat_factorization():
    t0 = time.perf_counter()
    for a in corpus500_shared():
        ia = ck.i_minus(a.entries)
        ir1 = ck.i_minus(ck.ones_row_matrix(a.n))
        assert (ia @ ir1 == ck.i_minus(ck.hat_matrix(a))).all()
    _announce(8, "I - A^hat = (I-A)(I-R_1) on the corpus",
              time.perf_counter() - t0)


def test_criterion_09_decision_coherence():
    t0 = time.perf_counter()
    corpus = corpus500_shared()
    pool = corpus[:60] + [ck.gen_cuntz(n) for n in range(2, 6)] + \
        [ck.gen_amplified(n, k) for n in (2, 3, 4) for k in (1, 2, 3)]
    rng = random.Random(2718)
    pairs = [(rng.choice(pool), rng.choice(pool)) for _ in range(170)]
    pairs += [(m, m) for m in pool[:30]]  # guaranteed positives
    assert len(pairs) >= 200
    positives = 0
    for a, b in pairs:
        by_invariant_pair = ck.is_isomorphic_ck(a, b)
        by_homotopy = (ck.pi_aut(a, 1) == ck.pi_aut(b, 1)
                       and ck.pi_aut(a, 2) == ck.pi_aut(b, 2))
        assert by_invariant_pair == by_homotopy
        positives += by_invariant_pair
    assert positives >= 30
    _announce(9, f"isomorphism verdicts agree on {len(pairs)} pairs",
              time.perf_counter() - t0)


def test_criterion_10_realization_roundtrip():
    t0 = time.perf_counter()
    count = 0
    for r in range(4):
        for length in range(4):
            for factors in itertools.product(range(2, 13), repeat=length):
                target = realize.RealizationTarget(r, factors)
                matrix = realize.realize_k0(target)  # verifies internally
                count += 1
    # independent spot check with the full invariant machinery
    rng = random.Random(31415)
    for _ in range(60):
        target = realize.RealizationTarget(
            rng.randint(0, 3),
            tuple(rng.randint(2, 12) for _ in range(rng.randint(0, 3))))
        rep = ck.invariants(realize.realize_k0(target))
        assert rep.ext_w1 == target.group()
        assert rep.k1 == FgAbGroup(target.rank)
    elapsed = time.perf_counter() - t0
    assert count == 4 * (1 + 11 + 11 ** 2 + 11 ** 3)
    assert elapsed < 10.0
    _announce(10, f"realization roundtrip on all {count} targets", elapsed)


def test_criterion_11_unit_class_cross_check():
    t0 = time.perf_counter()
    corpus = corpus500_shared()
    reports = reports500_shared()
    for a, r in zip(corpus, reports):
        k0_group, unit = ck.k0_pair(a)
        predicted = Z.direct_sum(quotient_by_elements(k0_group, [unit]))
        assert predicted == r.ext_s1
    _announce(11, "ExtS1 = Z + K0/(unit class) on the corpus",
              time.perf_counter() - t0)


def test_criterion_12_smith_oracle_equivalence():
    t0 = time.perf_counter()
    rng = random.Random(1618)
    for _ in range(1000):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        m = [[rng.randint(-5, 5) for _ in range(cols)]
             for _ in range(rows)]
        dec = intmat.smith_normal_form(m)
        mm = intmat.as_intmat(m)
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
