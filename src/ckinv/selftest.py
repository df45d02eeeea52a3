"""Fixture and property checks behind ``ckinv selftest`` and the
acceptance suite, which runs them on larger inputs.

Each check is a function of its inputs (a corpus, reports, pairs,
targets or matrices) and returns None when it holds, else a line naming
the first failure.  No check uses ``assert``, which ``python -O``
strips, and all run on int rows with no numpy.
"""

from __future__ import annotations

import random
import time
from functools import wraps
from itertools import chain
from math import gcd
from operator import mul

from . import ck, intmat, realize
from .groups import FgAbGroup, Z, TRIVIAL, canonical_from_cyclic


def make_corpus(count: int) -> list[ck.ZeroOneMatrix]:
    """Seed-fixed random valid matrices with sizes cycling over 2..12."""
    return [ck.gen_random_irreducible(2 + i % 11, 0.15 + 0.08 * (i % 8), i)
            for i in range(count)]


def random_targets(count: int, seed: int) -> list[realize.RealizationTarget]:
    """Seed-fixed targets of rank 0..3 with 0..3 factors in 2..12."""
    rng = random.Random(seed)
    return [realize.RealizationTarget(rng.randint(0, 3), tuple(
        rng.randint(2, 12) for _ in range(rng.randint(0, 3))))
        for _ in range(count)]


def random_matrices(count: int, seed: int) -> list[list[list[int]]]:
    """Seed-fixed int rows of 1..6 rows and columns, entries in -5..5;
    each matrix draws its entries right after its shape."""
    rng = random.Random(seed)
    shapes = ((rng.randint(1, 6), rng.randint(1, 6)) for _ in range(count))
    return [[[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
            for rows, cols in shapes]


def _verdict(check):
    """Make a check returning failure lines return the first, or None."""
    @wraps(check)
    def run(*args, **kwargs):
        return next(check(*args, **kwargs), None)
    return run


def _failures(kind: str, items, holds):
    """A failure line for each item on which ``holds`` is false."""
    return (f"{kind} {i}: {x}" for i, x in enumerate(items) if not holds(x))


def _differences(what: str, report: ck.CKReport, **want):
    """A failure line for each named group differing from the one wanted."""
    return (f"{what}: {name} is {getattr(report, name)}, not {group}"
            for name, group in want.items() if getattr(report, name) != group)


def _product(x, y) -> list[list[int]]:
    """The product of two matrices given as int rows."""
    columns = list(zip(*y))
    return [[sum(map(mul, row, c)) for c in columns] for row in x]


CUNTZ_SIDES = tuple(range(2, 13))
AMPLIFIED_SHAPES = tuple((n, k) for n in range(2, 6) for k in range(1, 7))


@_verdict
def check_cuntz_fixtures(sides=CUNTZ_SIDES):
    """O_n for each n in ``sides`` (2..12 by default): K0, ExtW1, pi_1 and
    both stable pi's are Z/(n-1), ExtS1 is Z, and K1, ExtW0, ExtS0 and
    pi_2 are trivial."""
    for n in sides:
        cyc = canonical_from_cyclic([n - 1])
        yield from _differences(
            f"O_{n}", ck.invariants(ck.gen_cuntz(n)), k0=cyc, k1=TRIVIAL,
            ext_w1=cyc, ext_w0=TRIVIAL, ext_s1=Z, ext_s0=TRIVIAL,
            pi1_aut=cyc, pi2_aut=TRIVIAL, pi1_aut_stable=cyc,
            pi2_aut_stable=cyc)


@_verdict
def check_amplified_fixtures(shapes=AMPLIFIED_SHAPES):
    """O_n tensor M_k for each (n, k) in ``shapes`` (2 <= n <= 5,
    1 <= k <= 6 by default), with g = gcd(n-1, k): K0 = Z/(n-1),
    ExtS1 = Z + Z/g, pi_1 = Z/(n-1) + Z/g, pi_2 = Z/g."""
    for n, k in shapes:
        g = gcd(n - 1, k)
        yield from _differences(
            f"O_{n} x M_{k}", ck.invariants(ck.gen_amplified(n, k)),
            k0=canonical_from_cyclic([n - 1]),
            ext_s1=Z.direct_sum(canonical_from_cyclic([g])),
            pi1_aut=canonical_from_cyclic([n - 1, g]),
            pi2_aut=canonical_from_cyclic([g]))


@_verdict
def check_transpose_pair_fixture():
    """The 3 x 3 pair A, A^t: published groups, stably but not isomorphic."""
    a = ck.validate([[1, 1, 1], [1, 1, 1], [1, 0, 0]])
    b = a.transpose()
    z2 = FgAbGroup(0, (2,))
    same = dict(k0=z2, k1=TRIVIAL, ext_s0=TRIVIAL, pi1_aut_stable=z2,
                pi2_aut_stable=z2)
    yield from _differences("A", ck.invariants(a), ext_s1=Z, pi1_aut=z2,
                            pi2_aut=TRIVIAL, **same)
    yield from _differences("A^t", ck.invariants(b),
                            ext_s1=FgAbGroup(1, (2,)),
                            pi1_aut=FgAbGroup(0, (2, 2)), pi2_aut=z2, **same)
    if ck.is_isomorphic_ck(a, b) or not ck.is_stably_isomorphic_ck(a, b):
        yield "A and A^t: isomorphic, or not stably isomorphic"


def _hat_factorizes(a: ck.ZeroOneMatrix) -> bool:
    rows, n = a.rows, a.n
    r1 = [[1] * n] + [[0] * n for _ in range(n - 1)]
    hat = [[x + y - z for x, y, z in zip(*t)]
           for t in zip(rows, r1, _product(rows, r1))]
    lib = intmat._transpose(ck.ext_strong_presentation(a).relations, n)
    return (ck.i_minus(hat) == _product(ck.i_minus(rows), ck.i_minus(r1))
            == lib)


@_verdict
def check_hat_factorization(corpus):
    """(I - A)(I - R_1) = I - (A + R_1 - A R_1), from ``a.rows`` with R_1
    the all-ones first row, = the relations of ext_strong_presentation."""
    return _failures("matrix", corpus, _hat_factorizes)


@_verdict
def check_rank_identities(reports):
    """rk ExtS1 = rk ExtS0 + 1, rk K0 = rk K1; K1, ExtW0 and ExtS0 free."""
    return _failures("report", reports, lambda r: (
        r.ext_s1.free_rank == r.ext_s0.free_rank + 1
        and r.k0.free_rank == r.k1.free_rank
        and r.k1.is_free and r.ext_w0.is_free and r.ext_s0.is_free))


@_verdict
def check_torsion_splitting(reports):
    """pi_1 = pi_2 + T(K0)."""
    return _failures("report", reports, lambda r: (
        r.pi1_aut == r.pi2_aut.direct_sum(r.k0.torsion)))


@_verdict
def check_stable_equality(reports):
    """The stable pi_1 and pi_2 agree with pi_2 of the weak groups."""
    return _failures("report", reports, lambda r: (
        r.pi1_aut_stable == r.pi2_aut_stable
        == ck._pi(r.ext_w1, r.ext_w0, r.k0, r.k1, 2)))


@_verdict
def check_five_term(corpus):
    """The five-term sequence builds; else the line names the matrix
    whose sequence raised ``VerificationError``."""
    for i, a in enumerate(corpus):
        try:
            ck.five_term_sequence(a)
        except ck.VerificationError as e:
            yield f"matrix {i}: {e}"


@_verdict
def check_unit_class_cross_check(corpus, reports):
    """(ExtW1, ExtS1) = (K0, Z + K0/(unit class)), by :func:`ck.k0_pair`."""
    for i, (a, r) in enumerate(zip(corpus, reports, strict=True)):
        pair = realize.ext_pair_from_k0_pair(*ck.k0_pair(a))
        if pair != (r.ext_w1, r.ext_s1):
            yield f"matrix {i}: {pair}, reported {(r.ext_w1, r.ext_s1)}"


@_verdict
def check_isomorphism_coherence(pairs, positives: int = 1):
    """is_isomorphic_ck iff pi_1 and pi_2 of Aut agree, on each pair, and
    isomorphic on ``positives`` pairs or more.  pi_aut runs once a matrix,
    on a fresh copy, so it eliminates again rather than read the groups
    that the matrix, and so is_isomorphic_ck, may already hold."""
    fresh = {m: ck.ZeroOneMatrix(m.data, m.n)
             for m in set(chain.from_iterable(pairs))}
    pis = {m: (ck.pi_aut(f, 1), ck.pi_aut(f, 2)) for m, f in fresh.items()}
    verdicts = [ck.is_isomorphic_ck(a, b) for a, b in pairs]
    for i, ((a, b), iso) in enumerate(zip(pairs, verdicts)):
        if iso != (pis[a] == pis[b]):
            yield f"pair {i}: is_isomorphic_ck {iso}, pi's equal {not iso}"
    if sum(verdicts) < positives:
        yield f"{sum(verdicts)} isomorphic pairs, not {positives} or more"


@_verdict
def check_realize_roundtrip(targets, reported=()):
    """realize_k0 builds a matrix for every target, checking its cokernel;
    for those in ``reported`` the report shows ExtW1 = target, K1 = Z^rank."""
    for t in targets:
        realize.realize_k0(t)
    for t in reported:
        yield from _differences(f"{t}", ck.invariants(realize.realize_k0(t)),
                                ext_w1=t.group(), k1=FgAbGroup(t.rank))


def _smith_holds(m: list[list[int]]) -> bool:
    dec = intmat.smith_normal_form(m)
    diag, r = dec.diagonal, dec.rank
    s = [[diag[i] if i == j else 0 for j in range(len(m[0]))]
         for i in range(len(m))]
    return (_product(_product(dec.u_rows, m), list(zip(*dec.v_columns)))
            == s and all(d > 0 for d in diag[:r])
            and all(y % x == 0 for x, y in zip(diag, diag[1:r])))


@_verdict
def check_smith_properties(matrices):
    """u m v = s for :func:`intmat.smith_normal_form`, from the rows of u
    and the columns of v it keeps; the diagonal is positive up to the
    rank, zero past it, and each entry divides the next."""
    return _failures("matrix", matrices, _smith_holds)


def run_selftest(write=print) -> bool:
    """Run every check, printing one PASS/FAIL line each with its time."""
    corpus = make_corpus(80)
    reports = [ck.invariants(a) for a in corpus]
    pool = corpus[:24] + [ck.gen_cuntz(3), ck.gen_amplified(3, 2),
                          ck.gen_amplified(3, 3)]
    rng = random.Random(2024)
    pairs = [(rng.choice(pool), rng.choice(pool)) for _ in range(60)]
    targets = [realize.RealizationTarget(r, f) for r, f in (
        (0, ()), (2, ()), (0, (2,)), (1, (3, 9)))] + random_targets(36, 7)
    checks = [
        ("cuntz-fixtures", check_cuntz_fixtures, ()),
        ("amplified-fixtures", check_amplified_fixtures, ()),
        ("transpose-pair-fixture", check_transpose_pair_fixture, ()),
        ("hat-factorization", check_hat_factorization, (corpus,)),
        ("rank-identities", check_rank_identities, (reports,)),
        ("torsion-splitting", check_torsion_splitting, (reports,)),
        ("stable-equality", check_stable_equality, (reports,)),
        ("five-term-exactness", check_five_term, (corpus[:40],)),
        ("unit-class-cross-check", check_unit_class_cross_check,
         (corpus, reports)),
        ("isomorphism-coherence", check_isomorphism_coherence, (pairs,)),
        ("realize-roundtrip", check_realize_roundtrip, ((), targets)),
        ("smith-properties", check_smith_properties,
         (random_matrices(150, 99),)),
    ]
    all_ok = True
    for name, check, args in checks:
        start = time.perf_counter()
        try:
            failure = check(*args)
        except Exception as e:  # a library error fails its check alone
            failure = f"{type(e).__name__}: {e}"
        all_ok &= failure is None
        write(f"{'PASS' if failure is None else 'FAIL'}  {name} "
              f"({time.perf_counter() - start:.2f} s)"
              + ("" if failure is None else f": {failure}"))
    write("all fixtures pass" if all_ok else "selftest FAILED")
    return all_ok
