"""Built-in fixture and property checks behind ``ckinv selftest``.

Each check is a named function returning True/False; the runner prints one
line per check with its elapsed time.  Seeds are fixed so the run is
reproducible; the pytest suite covers the same ground with larger corpora.
"""

from __future__ import annotations

import random
import time
from math import gcd

from . import ck, intmat, realize
from .groups import FgAbGroup, Z, TRIVIAL, canonical_from_cyclic


def _corpus(count: int):
    return [ck.gen_random_irreducible(2 + i % 11, 0.15 + 0.08 * (i % 8),
                                      seed=i)
            for i in range(count)]


def check_cuntz_fixtures() -> bool:
    for n in range(2, 13):
        r = ck.invariants(ck.gen_cuntz(n))
        cyc = canonical_from_cyclic([n - 1])
        if not (r.k0 == cyc and r.k1 == TRIVIAL and r.ext_s1 == Z
                and r.ext_s0 == TRIVIAL and r.pi1_aut == cyc
                and r.pi2_aut == TRIVIAL and r.pi1_aut_stable == cyc
                and r.pi2_aut_stable == cyc):
            return False
    return True


def check_amplified_fixtures() -> bool:
    for n in range(2, 6):
        for k in range(1, 7):
            r = ck.invariants(ck.gen_amplified(n, k))
            g = gcd(n - 1, k)
            if r.ext_s1 != Z.direct_sum(canonical_from_cyclic([g])):
                return False
            if r.pi1_aut != canonical_from_cyclic([n - 1, g]):
                return False
            if r.pi2_aut != canonical_from_cyclic([g]):
                return False
    return True


def check_transpose_pair_fixture() -> bool:
    a = ck.validate([[1, 1, 1], [1, 1, 1], [1, 0, 0]])
    b = a.transpose()
    ra, rb = ck.invariants(a), ck.invariants(b)
    z2 = FgAbGroup(0, (2,))
    return (ra.k0 == rb.k0 == z2
            and ra.ext_s1 == Z and rb.ext_s1 == FgAbGroup(1, (2,))
            and ra.pi1_aut == z2 and rb.pi1_aut == FgAbGroup(0, (2, 2))
            and ra.pi2_aut == TRIVIAL and rb.pi2_aut == z2
            and not ck.is_isomorphic_ck(a, b)
            and ck.is_stably_isomorphic_ck(a, b))


def check_hat_factorization(corpus) -> bool:
    for a in corpus:
        ia = ck.i_minus(a.entries)
        ir1 = ck.i_minus(ck.ones_row_matrix(a.n))
        if not (ia @ ir1 == ck.i_minus(ck.hat_matrix(a))).all():
            return False
    return True


def check_rank_identities(reports) -> bool:
    return all(r.ext_s1.free_rank == r.ext_s0.free_rank + 1
               and r.k0.free_rank == r.k1.free_rank for r in reports)


def check_torsion_splitting(reports) -> bool:
    return all(r.pi1_aut == r.pi2_aut.direct_sum(r.k0.torsion)
               for r in reports)


def check_stable_equality(reports) -> bool:
    return all(r.pi1_aut_stable == r.pi2_aut_stable for r in reports)


def check_five_term(corpus) -> bool:
    return all(ck.five_term_sequence(a).verified for a in corpus)


def check_unit_class_cross_check(corpus, reports) -> bool:
    for a, r in zip(corpus, reports):
        if realize.ext_pair_from_k0_pair(*ck.k0_pair(a)) != (r.ext_w1,
                                                             r.ext_s1):
            return False
    return True


def check_isomorphism_coherence(corpus) -> bool:
    pool = corpus[:24] + [ck.gen_cuntz(3), ck.gen_amplified(3, 2),
                          ck.gen_amplified(3, 3)]
    rng = random.Random(2024)
    for _ in range(60):
        a, b = rng.choice(pool), rng.choice(pool)
        by_pair = ck.is_isomorphic_ck(a, b)
        by_pi = (ck.pi_aut(a, 1) == ck.pi_aut(b, 1)
                 and ck.pi_aut(a, 2) == ck.pi_aut(b, 2))
        if by_pair != by_pi:
            return False
    return True


def check_realize_roundtrip() -> bool:
    rng = random.Random(7)
    targets = [realize.RealizationTarget(0, ()),
               realize.RealizationTarget(2, ()),
               realize.RealizationTarget(0, (2,)),
               realize.RealizationTarget(1, (3, 9))]
    targets += [realize.RealizationTarget(
        rng.randint(0, 3),
        tuple(rng.randint(2, 12) for _ in range(rng.randint(0, 3))))
        for _ in range(36)]
    for t in targets:
        a = realize.realize_k0(t)  # raises on verification failure
        r = ck.invariants(a)
        if r.ext_w1 != t.group() or r.k1 != FgAbGroup(t.rank):
            return False
    return True


def check_smith_properties() -> bool:
    rng = random.Random(99)
    for _ in range(150):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        m = [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
        dec = intmat.smith_normal_form(m)
        if not ((dec.u @ intmat.as_intmat(m) @ dec.v) == dec.s).all():
            return False
        diag = dec.diagonal
        for i in range(len(diag) - 1):
            if diag[i] == 0:
                if diag[i + 1] != 0:
                    return False
            elif diag[i + 1] % diag[i]:
                return False
    return True


def run_selftest(write=print) -> bool:
    """Run every check, printing one PASS/FAIL line each with its time."""
    corpus = _corpus(80)
    reports = [ck.invariants(a) for a in corpus]
    checks = [
        ("cuntz-fixtures", check_cuntz_fixtures),
        ("amplified-fixtures", check_amplified_fixtures),
        ("transpose-pair-fixture", check_transpose_pair_fixture),
        ("hat-factorization", lambda: check_hat_factorization(corpus)),
        ("rank-identities", lambda: check_rank_identities(reports)),
        ("torsion-splitting", lambda: check_torsion_splitting(reports)),
        ("stable-equality", lambda: check_stable_equality(reports)),
        ("five-term-exactness", lambda: check_five_term(corpus[:40])),
        ("unit-class-cross-check",
         lambda: check_unit_class_cross_check(corpus, reports)),
        ("isomorphism-coherence",
         lambda: check_isomorphism_coherence(corpus)),
        ("realize-roundtrip", check_realize_roundtrip),
        ("smith-properties", check_smith_properties),
    ]
    all_ok = True
    for name, fn in checks:
        start = time.perf_counter()
        ok = fn()
        all_ok &= ok
        write(f"{'PASS' if ok else 'FAIL'}  {name} "
              f"({time.perf_counter() - start:.2f} s)")
    write("all fixtures pass" if all_ok else "selftest FAILED")
    return all_ok
