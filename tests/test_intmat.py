import array
import json
import random
import subprocess
import sys
import time
from itertools import chain
from math import prod

import numpy as np
import pytest

from ckinv import ck, intmat, realize
from ckinv.groups import FgAbGroup, Z
from ckinv.presented import GroupHom, PresentedGroup
from ckinv.selftest import random_targets

from oracles import augmented_matrix, bareiss_det, cofactor_det, \
    bool_array, columns_array, hat_matrix, i_minus_array, \
    markowitz_unit_prepass, minor_gcd_diagonal, numpy_hermite_normal_form, \
    numpy_smith_diagonal, numpy_smith_normal_form, object_array, \
    one_step_bareiss, with_kernel

EX3_A = [[1, 1, 1], [1, 1, 1], [1, 0, 0]]


def random_matrix(rng, max_dim=8, span=5):
    rows, cols = rng.randint(1, max_dim), rng.randint(1, max_dim)
    return np.array([[rng.randint(-span, span) for _ in range(cols)]
                     for _ in range(rows)])


# -- smith normal form ------------------------------------------------------

def test_smith_identity():
    dec = intmat.smith_normal_form(np.eye(3, dtype=np.int64))
    assert dec.diagonal == (1, 1, 1)
    assert abs(bareiss_det(dec.u.tolist())) == 1
    assert abs(bareiss_det(dec.v.tolist())) == 1


def test_smith_diag_2_3():
    # determinant-divisor oracle: d1 = gcd of entries = 1, d1*d2 = det = 6
    assert minor_gcd_diagonal([[2, 0], [0, 3]]) == [1, 6]
    assert intmat.smith_normal_form([[2, 0], [0, 3]]).diagonal == (1, 6)


def test_smith_example_matrix():
    ia = i_minus_array(EX3_A)
    # brute-force cofactor oracle: |det(I-A)| = 2 forces factors (1,1,2)
    assert abs(cofactor_det(ia.tolist())) == 2
    assert minor_gcd_diagonal(ia.tolist()) == [1, 1, 2]
    assert intmat.smith_normal_form(ia).diagonal == (1, 1, 2)


def test_smith_properties_random():
    rng = random.Random(1)
    for _ in range(300):
        m = random_matrix(rng)
        dec = intmat.smith_normal_form(m)
        mm = object_array(m)
        assert ((dec.u @ mm @ dec.v) == dec.s).all()
        assert abs(bareiss_det(dec.u.tolist())) == 1
        assert abs(bareiss_det(dec.v.tolist())) == 1
        diag = dec.diagonal
        assert all(d >= 0 for d in diag)
        for i in range(len(diag) - 1):
            if diag[i] == 0:
                assert diag[i + 1] == 0
            else:
                assert diag[i + 1] % diag[i] == 0
        # off-diagonal of s is zero
        s = dec.s.copy()
        for i in range(min(s.shape)):
            s[i, i] = 0
        assert not np.any(s)


def test_smith_deterministic():
    m = [[4, -2, 6], [2, 2, 2], [0, 8, -4]]
    a = intmat.smith_normal_form(m)
    b = intmat.smith_normal_form(m)
    assert (a.u == b.u).all() and (a.v == b.v).all() and (a.s == b.s).all()
    # the decomposition holds int lists, so == compares them by value
    assert a == b and a != intmat.smith_normal_form([[2, 0], [0, 3]])
    assert list(a.diagonal) == minor_gcd_diagonal(m) == [2, 2, 4]
    assert a.u.tolist() == a.u_rows and a.v.T.tolist() == a.v_columns
    assert {type(x) for x in chain(a.diagonal, *a.u_rows, *a.v_columns)} \
        == {int}


def test_smith_empty_and_degenerate():
    for shape in ((0, 0), (0, 4), (4, 0), (1, 1)):
        m = np.zeros(shape, dtype=np.int64)
        dec = intmat.smith_normal_form(m)
        assert dec.s.shape == shape
        assert dec.rank == 0


def test_smith_big_entries_promote_exactly():
    big = [[10 ** 40, 1], [0, 10 ** 40]]
    dec = intmat.smith_normal_form(big)
    assert dec.diagonal == (1, 10 ** 80)
    assert ((dec.u @ object_array(big) @ dec.v) == dec.s).all()


def test_int64_minimum_entry_is_exact():
    # -2**63 has no int64 negation, so it must not take the int64 path
    m = np.array([[-2 ** 63, 0], [0, 3]], dtype=np.int64)
    assert intmat.smith_normal_form(m).diagonal == (1, 3 * 2 ** 63)
    assert intmat.smith_diagonal(m) == (1, 3 * 2 ** 63)
    assert intmat.hermite_normal_form(m).h[0, 0] == 2 ** 63


def test_smith_growth_beyond_int64_is_exact():
    # entries start under the int64 guard but elimination grows past it,
    # forcing the mid-run promotion to Python ints
    rng = random.Random(4)
    m = np.array([[rng.randint(-9, 9) for _ in range(7)] for _ in range(7)])
    m = m * (2 ** 27)
    dec = intmat.smith_normal_form(m)
    assert ((dec.u @ object_array(m) @ dec.v) == dec.s).all()
    assert abs(bareiss_det(dec.u.tolist())) == 1
    assert abs(bareiss_det(dec.v.tolist())) == 1


def _same(a, b):
    return a.shape == b.shape and bool((a == b).all())


def test_transforms_match_the_numpy_reference():
    # the list-based Smith and Hermite eliminations against the numpy ones
    # they replaced, which start on int64 and switch to Python ints
    # mid-run; u, s, v, h and the pivots must agree entry for entry, and
    # so must the u that the Smith loop builds alone, without v, as
    # canonical_coords runs it
    rng = random.Random(4)
    cases = [np.array([[2 ** 30, 0], [0, 2 ** 30 - 1]]),
             np.array([[rng.randint(-9, 9) for _ in range(7)]
                       for _ in range(7)]) * 2 ** 27]
    rng = random.Random(2405)
    for _ in range(200):
        rows, cols = rng.randint(0, 9), rng.randint(0, 9)
        m = np.array([[rng.randint(-9, 9) for _ in range(cols)]
                      for _ in range(rows)], dtype=np.int64)
        m = m.reshape(rows, cols)
        cases += [m, m * 2 ** 27]
    for n in (2, 3, 5, 8, 13, 21, 34, 60):
        a = ck.gen_random_irreducible(n, rng.choice((0.1, 0.3, 0.6)),
                                      rng.randrange(2 ** 31))
        ia = i_minus_array(a.entries)
        cases += [ia, ia.T, i_minus_array(hat_matrix(a)),
                  augmented_matrix(a)]
    assert any(min(m.shape) == 0 for m in cases)
    grew = []
    for m in cases:
        dec = intmat.smith_normal_form(m)
        u, s, v = numpy_smith_normal_form(m)
        assert _same(dec.u, u) and _same(dec.s, s) and _same(dec.v, v)
        rows = m.tolist()
        u_only = intmat._identity_rows(len(rows))
        intmat._smith_rows(rows, u_only)
        assert _same(object_array(u_only), u)
        herm = intmat.hermite_normal_form(m)
        h, hu, pivots = numpy_hermite_normal_form(m)
        assert _same(herm.h, h) and _same(herm.u, hu)
        assert herm.pivots == pivots
        mm = object_array(m)
        assert (dec.u @ mm @ dec.v == dec.s).all()
        assert (mm @ herm.u == herm.h).all()
        grew.append(max((abs(x) for a in (u, s, v, h, hu) for x in a.flat),
                        default=0) >= 2 ** 31)
    # the first two cases, and most scaled ones, start below 2**31 and
    # grow past it, so the reference switched to Python ints mid-run
    assert all(np.abs(m).max() < 2 ** 31 for m in cases if m.size)
    assert grew[0] and grew[1] and sum(grew) >= 100


def test_smith_diagonal_matches_dense_reference():
    # the sparse unit-pivot prepass plus list core against the dense numpy
    # elimination it replaced
    rng = random.Random(2404)
    cases = []
    for n in (2, 3, 5, 8, 13, 21, 34, 50, 60):
        a = ck.gen_random_irreducible(n, rng.choice((0.1, 0.3, 0.6)),
                                      rng.randrange(2 ** 31))
        ia = i_minus_array(a.entries)
        cases += [ia, ia.T, i_minus_array(hat_matrix(a)),
                  augmented_matrix(a), augmented_matrix(a).T]
    for _ in range(300):
        rows, cols = rng.randint(0, 9), rng.randint(0, 9)
        m = np.array([[rng.choice((0, 0, 0, 1, -1, 2, -3, 4))
                       for _ in range(cols)] for _ in range(rows)],
                     dtype=np.int64).reshape(rows, cols)
        if rows and rng.random() < 0.5:
            m[rng.randrange(rows)] = 0
        big = m.astype(object)
        if m.size:
            big[rng.randrange(rows), rng.randrange(cols)] += 2 ** 31
        cases += [m, 2 * m, big, big * 3 ** 50, m * 2 ** 30]
    assert any(min(c.shape) == 0 for c in cases)
    for m in cases:
        assert list(intmat.smith_diagonal(m)) == numpy_smith_diagonal(m)


def _derived(a):
    # the five matrices ck.invariants eliminates
    ia = i_minus_array(a.entries)
    ih = i_minus_array(hat_matrix(a))
    return [ia.T, ia, augmented_matrix(a), ih, np.hstack([ih, ia[:, :1]])]


def _core(m):
    return intmat._unit_prepass(intmat._shaped(m)[0])[1]


def _check_core(core):
    # the modular core against the min-abs loop; returns the diagonal
    want = intmat._smith_rows([row[:] for row in core])
    assert intmat._modular_diagonal([row[:] for row in core]) == want
    return want


def test_smith_diagonal_matches_dense_reference_when_rank_deficient():
    # singular matrices whose rank drop survives the unit prepass and
    # reaches the dense core: I - A with two equal rows (K1 != 0), and
    # random matrices with few units and a row combining two others
    rng = random.Random(2406)
    cases = []
    for n in (6, 9, 13, 21, 34, 50):
        b = with_kernel(ck.gen_random_irreducible(
            n, rng.choice((0.3, 0.6)), rng.randrange(2 ** 31)))
        ia = i_minus_array(b.entries)
        cases += [ia, ia.T, i_minus_array(hat_matrix(b))]
    for _ in range(200):
        rows = rng.randint(3, 10)
        cols = rng.randint(rows, 10)  # rank below min(rows, cols)
        m = [[rng.choice((0, 2, -2, 3, -4, 6, 9)) for _ in range(cols)]
             for _ in range(rows)]
        i, j, k = rng.sample(range(rows), 3)
        x, y = rng.choice((1, -1, 2, 3)), rng.choice((1, -2, 5))
        m[k] = [x * p + y * q for p, q in zip(m[i], m[j])]
        cases += [np.array(m, dtype=np.int64), np.array(m).T * 2 ** 31]
    singular_cores = 0
    for m in cases:
        diag = intmat.smith_diagonal(m)
        assert list(diag) == numpy_smith_diagonal(m)
        assert 0 in diag
        core = _core(m)
        singular_cores += bool(core) and \
            len(intmat._modular_diagonal([r[:] for r in core])) < \
            min(len(core), len(core[0]))
    assert singular_cores >= 350


def test_modular_core_matches_the_min_abs_loop(monkeypatch):
    # every core the unit prepass leaves of the five derived matrices, with
    # singular and rectangular ones, then cores that exercise each exit
    calls, steps = [], []
    run, bezout = intmat._diagonal_mod, intmat._bezout
    monkeypatch.setattr(intmat, "_diagonal_mod",
                        lambda a, d: calls.append(run(a, d)) or calls[-1])
    monkeypatch.setattr(intmat, "_bezout",
                        lambda x, y: steps.append(1) or bezout(x, y))
    singular = rectangular = 0
    for n in (80, 100):
        mats = [ck.gen_random_irreducible(n, 0.3, seed=7)]
        for seed in (8, 9):  # K1 != 0
            b = with_kernel(ck.gen_random_irreducible(n, 0.3, seed))
            assert 0 in intmat.smith_diagonal(i_minus_array(b.entries))
            mats.append(b)
        for m in (m for a in mats for m in _derived(a)):
            core = _core(m)
            rows, cols = len(core), len(core[0])
            diag = _check_core(core)
            singular += len(diag) < min(rows, cols)
            rectangular += rows != cols
    assert singular >= 4 and rectangular >= 8
    assert sum(1 in es for es in calls) >= 4  # unit pivots modulo D ran
    # D = 1: r ones; nothing is eliminated modulo D unless the core is
    # square, where the first r - 1 entries are read modulo g_(r-1)
    rng = random.Random(8)
    for size in (1, 2, 5, 12):
        lo = [[int(i == j) if j >= i else rng.randint(-9, 9)
               for j in range(size)] for i in range(size)]
        up = [[int(i == j) if j <= i else rng.randint(-9, 9)
               for j in range(size)] for i in range(size)]
        u = (np.array(lo, dtype=object) @ np.array(up, dtype=object)
             ).tolist()
        for m in (u, u[:1] * 2, u + u[:1], [row + row[:1] for row in u]):
            assert intmat._bareiss([row[:] for row in m])[-1] == 1
            del calls[:]
            assert set(_check_core(m)) == {1}
            assert not calls or m is u
    # k * M: no entry is a unit modulo D, so no pivot is, and the Bezout
    # steps do all of it
    for n, seed in ((40, 1), (60, 2)):
        for m in _derived(ck.gen_random_irreducible(n, 0.3, seed))[1:4]:
            for k in (2, 6):
                del calls[:], steps[:]
                diag = _check_core([[k * x for x in row] for row in _core(m)])
                assert all(d % k == 0 for d in diag)
                assert calls and steps
                assert all(es and 1 not in es for es in calls)
    # entries past 2**64: a change of generators, and large random entries
    grew = 0
    for n, seed in ((20, 3), (30, 4)):
        for m in _derived(ck.gen_random_irreducible(n, 0.3, seed)):
            core = _core(m)
            u = [[int(i == j) if j >= i else rng.randint(-2 ** 70, 2 ** 70)
                  for j in range(len(core))] for i in range(len(core))]
            big = (np.array(u, dtype=object) @ np.array(core, dtype=object)
                   ).tolist()
            grew += max(abs(x) for row in big for x in row) > 2 ** 64
            assert _check_core(big) == _check_core(core)
    assert grew >= 8
    for rows, cols in ((5, 5), (7, 4), (4, 9)):
        _check_core([[rng.randint(-2 ** 70, 2 ** 70) for _ in range(cols)]
                     for _ in range(rows)])


def test_a_monomial_core_is_read_without_elimination(monkeypatch):
    # a square core with one nonzero in each row and each column is read
    # off directly; the oracle is the Bareiss route on the same matrix
    # with one row added to another, which keeps the Smith diagonal and
    # leaves two nonzeros in that row, and on small cores the min-abs loop
    calls = []
    bareiss = intmat._bareiss
    monkeypatch.setattr(intmat, "_bareiss",
                        lambda a: calls.append(1) or bareiss(a))

    def check(core):
        del calls[:]
        got = intmat._modular_diagonal([row[:] for row in core])
        assert not calls
        if len(core) > 1:
            mixed = [row[:] for row in core]
            mixed[-1] = [x + y for x, y in zip(mixed[-1], mixed[0])]
            assert intmat._modular_diagonal(mixed) == got and calls
        if len(core) <= 12:
            assert got == intmat._smith_rows([row[:] for row in core])
        return got

    rng = random.Random(30)
    for n in list(range(1, 61)) * 2:
        cols = rng.sample(range(n), n)
        entries = [rng.choice((-1, 1)) * rng.randint(1, 10 ** 6)
                   for _ in range(n)]
        core = [[0] * n for _ in range(n)]
        for row, c, x in zip(core, cols, entries):
            row[c] = x
        assert prod(check(core)) == prod(map(abs, entries))
    # realize outputs: I - A and its transpose leave monomial cores, or
    # none where the target has no torsion
    targets = random_targets(40, 30) + [realize.RealizationTarget(0, (2,) * 80)]
    cores = [_core(m) for t in targets
             for ia in [i_minus_array(realize.realize_k0(t).entries)]
             for m in (ia, ia.T)]
    cores = [core for core in cores if core]
    assert len(cores) >= 50 and max(map(len, cores)) == 80
    for core in cores:
        assert all(len(row) - row.count(0) == 1 for row in core)
        check(core)
    # one nonzero in each row, but two rows share a column: singular, so
    # the Bareiss route takes it
    del calls[:]
    assert _check_core([[0, 3, 0], [0, -6, 0], [5, 0, 0]]) == [1, 15]
    assert calls


def test_two_step_bareiss_matches_the_one_step_oracle():
    # the minor gcds of the two-pivot pass against the one-pivot pass, list
    # for list: cores of the five derived matrices, with K1 != 0 ones,
    # random rectangular and singular matrices with zero columns, rows
    # whose second pivot never appears, and entries past 2**64
    def same(m):
        want = one_step_bareiss([row[:] for row in m])
        assert intmat._bareiss([row[:] for row in m]) == want
        return want

    rng = random.Random(2416)
    cores = []
    for n in (20, 60, 100):
        mats = [ck.gen_random_irreducible(n, 0.3, seed=n),
                with_kernel(ck.gen_random_irreducible(n, 0.6, n + 1), 2)]
        cores += [_core(m) for a in mats for m in _derived(a)]
    assert min(len(core) for core in cores[-10:]) >= 40
    deficient = 0
    for core in cores:
        deficient += len(same(core)) < min(len(core), len(core[0]))
    assert deficient >= 6
    for _ in range(2000):
        rows, cols = rng.randint(1, 12), rng.randint(1, 12)
        m = [[rng.choice((0, 0, 0, 1, -1, 2, -3, 6)) for _ in range(cols)]
             for _ in range(rows)]
        for j in rng.sample(range(cols), rng.randint(0, cols // 2)):
            for row in m:
                row[j] = 0
        if rows > 2 and rng.random() < 0.5:
            m[0] = [x + 2 * y for x, y in zip(m[1], m[2])]
        deficient += len(same(m)) < min(rows, cols)
    assert deficient >= 1000
    # t = 0 for every row after the first pivot, so that pass takes one
    assert same([[1, 2, 3], [2, 4, 5]]) == [1, 1]
    assert same([[1, 2, 3, 4], [2, 4, 5, 6], [3, 6, 7, 9], [0, 0, 2, 2]]) \
        == [1, 1, 1]
    grew = 0
    for n, seed in ((20, 3), (30, 4)):
        for m in _derived(ck.gen_random_irreducible(n, 0.3, seed)):
            core = _core(m)
            u = [[int(i == j) if j >= i else rng.randint(-2 ** 70, 2 ** 70)
                  for j in range(len(core))] for i in range(len(core))]
            big = (np.array(u, dtype=object) @ np.array(core, dtype=object)
                   ).tolist()
            grew += max(abs(x) for row in big for x in row) > 2 ** 64
            assert len(same(big)) == len(same(core))
    assert grew >= 8


def test_smith_diagonal_matches_the_min_abs_loop(corpus500):
    # the count-based unit prepass and the modular core against the
    # min-abs Smith loop on the whole matrix: the five derived matrices of
    # the corpus grid and of matrices with K1 != 0, those of realize
    # outputs, and random rectangular matrices
    rng = random.Random(2413)
    mats = corpus500[:88] + [realize.realize_k0(t)
                             for t in random_targets(30, 2413)]
    for n in (6, 9, 13, 21, 34):
        mats.append(with_kernel(ck.gen_random_irreducible(
            n, rng.choice((0.3, 0.6)), rng.randrange(2 ** 31)), 1 + n % 2))
    cases = [m.tolist() for a in mats for m in _derived(a)]
    for _ in range(300):
        rows, cols = rng.randint(1, 12), rng.randint(1, 12)
        cases.append([[rng.choice((0, 0, 0, 1, -1, 2, -3, 6))
                       for _ in range(cols)] for _ in range(rows)])
    singular = 0
    for m in cases:
        want = intmat._smith_rows([row[:] for row in m])
        size = min(len(m), len(m[0]))
        assert intmat.smith_diagonal(m) == \
            tuple(want + [0] * (size - len(want)))
        singular += len(want) < size
    assert singular >= 100


def test_unit_prepass_cores_stay_near_the_markowitz_ones():
    # the shortest-row, shortest-column rule against least Markowitz cost:
    # Bareiss on the core left costs about the cube of its side, so the
    # side may exceed the Markowitz one by at most 2
    for n in (100, 200, 300):
        ia = ck._i_minus_rows(ck.gen_random_irreducible(n, 0.3, seed=7))
        ones, core = intmat._unit_prepass(ia)
        markowitz_ones, markowitz_core = markowitz_unit_prepass(ia)
        assert len(core) <= len(markowitz_core) + 2
        assert len(core[0]) <= len(markowitz_core[0]) + 2
        if n == 100:
            assert [1] * ones + intmat._modular_diagonal(core) == \
                [1] * markowitz_ones + \
                intmat._modular_diagonal(markowitz_core)


def test_smith_diagonal_at_the_frontier():
    # I - A at n=200: the min-abs loop took 24 s on the core of this matrix
    a = ck.gen_random_irreducible(200, 0.3, seed=7)
    start = time.perf_counter()
    diag = intmat.smith_diagonal(i_minus_array(a.entries))
    assert time.perf_counter() - start < 10.0
    assert len(diag) == 200 and all(diag)
    assert all(y % x == 0 for x, y in zip(diag, diag[1:]))


# -- cokernel ---------------------------------------------------------------

def test_cokernel_examples():
    allones4 = np.ones((4, 4), dtype=np.int64)
    assert intmat.cokernel_invariants(i_minus_array(allones4)) == \
        FgAbGroup(0, (3,))
    assert intmat.cokernel_invariants([[0, 0], [0, 0]]) == FgAbGroup(2)
    # a matrix with no columns presents the free group on its rows
    assert intmat.cokernel_invariants(np.zeros((3, 0), dtype=int)) == \
        FgAbGroup(3)
    # I - hat of the transposed example matrix presents Z + Z/2
    ia_hat_b = [[0, -1, -1], [0, 1, 1], [0, 0, 2]]
    assert intmat.cokernel_invariants(ia_hat_b) == FgAbGroup(1, (2,))


def test_cokernel_transpose_invariance():
    # square case: full canonical equality (Smith diagonals coincide)
    rng = random.Random(2)
    for _ in range(150):
        n = rng.randint(1, 6)
        m = np.array([[rng.randint(-5, 5) for _ in range(n)]
                      for _ in range(n)])
        assert intmat.cokernel_invariants(m) == \
            intmat.cokernel_invariants(m.T)
    # rectangular case: the torsion still agrees, only the ambient rank moves
    for _ in range(100):
        m = random_matrix(rng, max_dim=6)
        assert intmat.cokernel_invariants(m).invariant_factors == \
            intmat.cokernel_invariants(m.T).invariant_factors


def test_rank_nullity_square():
    rng = random.Random(3)
    for _ in range(100):
        n = rng.randint(1, 7)
        m = np.array([[rng.randint(-3, 3) for _ in range(n)]
                      for _ in range(n)])
        free = intmat.cokernel_invariants(m).free_rank
        assert len(intmat.kernel_basis(m)) == free


# -- kernels ----------------------------------------------------------------

def test_kernel_examples():
    # det(I - A) = -1 for the all-ones 2x2, so the kernel is trivial
    ia = i_minus_array(np.ones((2, 2), dtype=int))
    assert cofactor_det(ia.tolist()) == -1
    assert intmat.kernel_basis(ia) == []
    kb = intmat.kernel_basis([[1, 1, 1]])
    assert len(kb) == 2 and {len(col) for col in kb} == {3}
    for col in kb:
        assert sum(col) == 0
    # I - R_1 for n=3: rows force x2 = x3 = 0, x1 free
    ir1 = np.eye(3, dtype=np.int64)
    ir1[0, :] -= 1
    kb = intmat.kernel_basis(ir1)
    assert len(kb) == 1 and len(kb[0]) == 3
    assert tuple(abs(x) for x in kb[0]) == (1, 0, 0)
    assert {type(x) for x in chain.from_iterable(kb)} == {int}


def test_kernel_completeness():
    # random kernel vectors are integer combinations of the basis
    rng = random.Random(5)
    checked = 0
    for _ in range(200):
        m = random_matrix(rng, max_dim=5, span=3)
        kb = intmat.kernel_basis(m)
        if not kb:
            continue
        kb = columns_array(kb, m.shape[1])
        coeffs = np.array([rng.randint(-6, 6) for _ in range(kb.shape[1])],
                          dtype=object)
        v = kb @ coeffs
        assert not np.any(object_array(m) @ v)
        assert intmat.lattice_contains(kb, v)
        checked += 1
    assert checked > 50


def _oracle_lattice(m) -> np.ndarray:
    """The nonzero columns of the numpy reference's Hermite form of m:
    equal for two matrices iff their columns span the same lattice."""
    h, _, pivots = numpy_hermite_normal_form(m)
    return h[:, :len(pivots)]


def _matvec(rows, x):
    return [sum(a * b for a, b in zip(row, x)) for row in rows]


def test_row_level_kernel_and_solve_match_the_numpy_reference():
    # the kernel basis and lattice_solve on int rows against the numpy
    # Hermite elimination of oracles.py, on rectangular matrices, half of
    # them rank-deficient (a product through fewer columns than either
    # side) and many with entries past 2**64.  Bases may differ; their
    # lattices, compared by Hermite form, may not.  Both sides must agree
    # on which vectors are solvable.
    rng = random.Random(6151)
    deficient = big = 0
    verdicts = []
    for round_ in range(160):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        span = rng.choice((3, 2 ** 35 if round_ % 2 else 2 ** 70))
        if round_ % 2 and min(rows, cols) > 1:
            inner = rng.randint(1, min(rows, cols) - 1)
            a = [[rng.randint(-span, span) for _ in range(inner)]
                 for _ in range(rows)]
            b = [[rng.randint(-span, span) for _ in range(cols)]
                 for _ in range(inner)]
            m = [_matvec(a, col) for col in zip(*b)]  # columns of a @ b
            m = [list(r) for r in zip(*m)]
            deficient += 1
        else:
            m = [[rng.choice((0, rng.randint(-span, span)))
                  for _ in range(cols)] for _ in range(rows)]
        big += max(abs(x) for row in m for x in row) > 2 ** 64
        dec = intmat.hermite_normal_form(m)
        kernel = dec.kernel
        assert all(not any(_matvec(m, x)) for x in kernel)
        _, hu, pivots = numpy_hermite_normal_form(m)
        want = hu[:, len(pivots):]
        got = columns_array(kernel, cols)
        assert got.shape == want.shape
        assert (_oracle_lattice(got) == _oracle_lattice(want)).all()
        assert intmat.kernel_basis(m) == kernel
        lattice = _oracle_lattice(m)
        for _ in range(4):
            x = [rng.randint(-5, 5) for _ in range(cols)]
            v = _matvec(m, x)
            v[rng.randrange(rows)] += rng.choice((0, 0, 1, 2 ** 66))
            stacked = np.hstack([np.array(m, dtype=object),
                                 np.array(v, dtype=object)[:, None]])
            member = _oracle_lattice(stacked)
            solvable = (member.shape == lattice.shape
                        and (member == lattice).all())
            sol = intmat.lattice_solve(m, v)
            assert (sol is not None) == solvable
            if sol is not None:
                assert _matvec(m, sol) == v
            verdicts.append(solvable)
    assert deficient >= 50 and big >= 40
    assert 150 <= sum(verdicts) <= len(verdicts) - 150


# -- hermite ----------------------------------------------------------------

def test_hermite_identity():
    dec = intmat.hermite_normal_form(np.eye(3, dtype=np.int64))
    assert (dec.h == np.eye(3, dtype=object)).all()
    assert dec.rank == 3


def test_hermite_single_pivot():
    dec = intmat.hermite_normal_form([[2, 4], [0, 0]])
    assert (dec.h == np.array([[2, 0], [0, 0]], dtype=object)).all()
    assert dec.pivots == ((0, 0),)


def test_hermite_rank_matches_smith():
    # columns of I - A^hat for the example matrix span a rank-2 lattice
    cols = np.array([[-1, -1], [1, 0], [1, 2]])
    assert intmat.hermite_normal_form(cols).rank == 2
    assert sum(1 for d in intmat.smith_diagonal(cols) if d) == 2


def test_hermite_properties_random():
    rng = random.Random(6)
    for _ in range(250):
        m = random_matrix(rng, max_dim=6)
        dec = intmat.hermite_normal_form(m)
        mm = object_array(m)
        assert (mm @ dec.u == dec.h).all()
        assert abs(bareiss_det(dec.u.tolist())) == 1
        rows = [r for r, _ in dec.pivots]
        assert rows == sorted(rows)
        for j, (r, c) in enumerate(dec.pivots):
            assert c == j
            p = dec.h[r, j]
            assert p > 0
            assert not any(dec.h[i, j] for i in range(r))
            for left in range(j):
                assert 0 <= dec.h[r, left] < p
        assert not np.any(dec.h[:, dec.rank:])


# -- lattice membership -----------------------------------------------------

def test_lattice_contains_examples():
    assert intmat.lattice_contains(np.eye(2, dtype=np.int64), [7, -3])
    assert not intmat.lattice_contains([[2], [0]], [1, 0])
    # (I-A) e_1 = (0,-1,-1) is not in the lattice of I - A^hat's columns
    ia_hat = [[0, -1, -1], [0, 1, 0], [0, 1, 2]]
    assert not intmat.lattice_contains(ia_hat, [0, -1, -1])


def test_lattice_contains_dimension_mismatch():
    with pytest.raises(ValueError):
        intmat.lattice_contains([[1, 0], [0, 1]], [1, 2, 3])


def test_lattice_contains_images():
    rng = random.Random(7)
    for _ in range(150):
        m = random_matrix(rng, max_dim=5)
        x = np.array([rng.randint(-5, 5) for _ in range(m.shape[1])],
                     dtype=object)
        v = object_array(m) @ x
        sol = intmat.lattice_solve(m, v)
        assert sol is not None and {type(y) for y in sol} <= {int}
        assert ((object_array(m) @ np.array(sol, dtype=object)) == v).all()


def test_lattice_solve_outside():
    assert intmat.lattice_solve([[2], [4]], [1, 2]) is None
    assert intmat.lattice_solve([[2], [4]], [3, 6]) is None
    sol = intmat.lattice_solve([[2], [4]], [-4, -8])
    assert sol == [-2]


def test_matrix_algebra_via_numpy():
    # the transform arrays are object arrays that numpy's operators
    # multiply exactly
    dec = intmat.smith_normal_form([[1, 2], [3, 4]])
    a = dec.u
    assert a.dtype == object and ((np.eye(2, dtype=object) @ a) == a).all()
    assert (a.T.T == a).all()
    assert ((a @ object_array([[1, 2], [3, 4]]) @ dec.v) == dec.s).all()


def test_the_reader_rejects_non_integers():
    with pytest.raises(TypeError):
        intmat._shaped([[1.5, 2], [0, 1]])
    with pytest.raises(TypeError):
        intmat._shaped(np.array([["a", "b"]], dtype=object))
    with pytest.raises(ValueError):
        intmat._shaped([1, 2, 3])
    # the coordinates of an element go through the same coercion
    p = PresentedGroup(2)
    assert [type(x) for x in p.element(np.array([1, 2])).coords] == \
        [int, int]
    assert list(p.element(np.array([np.int8(3), 4], dtype=object)).coords) \
        == [3, 4]
    with pytest.raises(TypeError):
        p.element([1.5, 2])
    with pytest.raises(TypeError):
        p.element(np.array(["a", "b"], dtype=object))
    with pytest.raises(ValueError):
        p.element([[1, 2]])
    with pytest.raises(ValueError):
        PresentedGroup(3).element([1, 2])


def test_booleans_read_as_zero_and_one():
    # a boolean array and rows of Python bools are the 0-1 int matrix
    rng = random.Random(19)
    for _ in range(20):
        ints = [[rng.randint(0, 1) for _ in range(rng.randint(1, 6))]]
        ints += [[rng.randint(0, 1) for _ in ints[0]]
                 for _ in range(rng.randint(0, 5))]
        bools = [[bool(x) for x in row] for row in ints]
        want_snf = intmat.smith_normal_form(ints)
        want_hnf = intmat.hermite_normal_form(ints)
        for m in (np.array(bools), bools, np.array(bools, dtype=object)):
            assert intmat.smith_diagonal(m) == intmat.smith_diagonal(ints)
            assert intmat.smith_normal_form(m) == want_snf
            assert intmat.hermite_normal_form(m) == want_hnf
            rows, width = intmat._shaped(m)
            assert [list(r) for r in rows] == ints and width == len(ints[0])
            assert {type(x) for x in chain.from_iterable(rows)} == {int}


class _ToList:
    """A matrix with only ``shape`` and ``tolist()``, as an array of a
    library other than numpy has: no ``len``, no iteration."""

    def __init__(self, rows, shape):
        self._rows, self.shape = rows, shape

    def tolist(self):
        return [list(row) for row in self._rows]


def _reader_forms(rows, width):
    """Every form the reader takes that holds exactly this int matrix."""
    shape = (len(rows), width)
    flat = list(chain.from_iterable(rows))
    forms = [rows, tuple(map(tuple, rows)), _ToList(rows, shape),
             np.array(flat, dtype=object).reshape(shape)]
    if all(-2 ** 63 <= x < 2 ** 63 for x in flat):
        forms.append(np.array(flat, dtype=np.int64).reshape(shape))
    if all(0 <= x < 2 ** 64 for x in flat):
        forms.append(np.array(flat, dtype=np.uint64).reshape(shape))
    if set(flat) <= {0, 1}:
        forms.append(np.array(flat, dtype=bool).reshape(shape))
        forms.append([[bool(x) for x in row] for row in rows])
    return forms


def test_every_matrix_form_reads_as_its_int_rows():
    # list and tuple rows, int64, uint64, object and bool arrays and a
    # tolist-only object give the same rows, width and Smith diagonal
    rng = random.Random(23)
    pools = ([-9, -1, 0, 1, 2, 5], [0, 1], [0, 1, 3, 2 ** 63, 2 ** 64 - 1],
             [-2 ** 63, -1, 0, 2 ** 62])
    shapes = [(0, 3), (3, 0), (0, 0), (1, 1)]
    shapes += [(rng.randint(1, 6), rng.randint(1, 6)) for _ in range(40)]
    kinds = set()
    for k, (h, w) in enumerate(shapes):
        pool = pools[k % len(pools)]
        rows = [[rng.choice(pool) for _ in range(w)] for _ in range(h)]
        want = intmat.smith_diagonal(rows)
        for m in _reader_forms(rows, w):
            # with no rows, only a form with a shape keeps the width
            width = w if rows or hasattr(m, "shape") else 0
            got = intmat._shaped(m)
            assert ([list(r) for r in got[0]], got[1]) == (rows, width), m
            assert {type(x) for x in chain.from_iterable(got[0])} <= {int}
            assert intmat.smith_diagonal(m) == want, type(m)
            assert intmat.cokernel_invariants(m) == \
                intmat.cokernel_invariants(rows)
            kinds.add(str(getattr(m, "dtype", type(m).__name__)))
    assert kinds == {"list", "tuple", "_ToList", "object", "int64", "uint64",
                     "bool"}
    # a vector reads the same from every form too
    for _ in range(20):
        v = [rng.randint(-2 ** 31, 2 ** 31 - 1)
             for _ in range(rng.randint(0, 6))]
        for form in (v, tuple(v), np.array(v, dtype=np.int64),
                     np.array(v, dtype=object), array.array("q", v),
                     memoryview(array.array("q", v)),
                     [np.int64(x) for x in v], [np.int32(x) for x in v]):
            got = intmat._vector(form, len(v))
            assert got == tuple(v) and {type(x) for x in got} <= {int}


_NUMPY_BLOCKED = """
import json, sys
sys.modules["numpy"] = None  # an import of numpy now raises ImportError
from ckinv import ck, intmat, selftest
from ckinv.presented import PresentedGroup
dec = intmat.smith_normal_form([[2, 4, 4], [-6, 6, 12], [10, -4, -16]])
p = PresentedGroup(3, [[2, 0, 4], [0, 3, 6], [0, 0, 0]])
print(json.dumps([
    dec.diagonal, dec.rank, dec.u_rows, dec.v_columns,
    p.canonical_coords([1, 1, 1]), p.element([5, -7, 2]).canonical_coords(),
    selftest.check_smith_properties(selftest.random_matrices(30, 5)),
    ck.validate([[1, 1], [1, 0]]).n,
    ck.validate(((0, 1, 1), (1, 0, 0), (1, 1, 0))).n]))
"""


def test_smith_transforms_run_without_numpy():
    # with numpy blocked, not merely unloaded: smith_normal_form on int
    # rows, canonical_coords, the selftest Smith check and validate
    r = subprocess.run([sys.executable, "-c", _NUMPY_BLOCKED],
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    dec = intmat.smith_normal_form([[2, 4, 4], [-6, 6, 12], [10, -4, -16]])
    p = PresentedGroup(3, [[2, 0, 4], [0, 3, 6], [0, 0, 0]])
    want = [dec.diagonal, dec.rank, dec.u_rows, dec.v_columns,
            p.canonical_coords([1, 1, 1]),
            p.element([5, -7, 2]).canonical_coords(), None, 2, 3]
    assert json.loads(r.stdout) == json.loads(json.dumps(want))


_INT_RESULTS_NUMPY_BLOCKED = """
import json, sys
sys.modules["numpy"] = None  # an import of numpy now raises ImportError
from ckinv import ck, intmat
from ckinv.presented import GroupHom, PresentedGroup
cases = json.loads(sys.argv[1])
q = PresentedGroup(2, [[4, 0], [2, 6]])
f = GroupHom(PresentedGroup(3), q, [[1, 2, 0], [0, 3, 1]])
k, lift = f.kernel()
print(json.dumps([
    [[intmat.kernel_basis(m), intmat.lattice_solve(m, v),
      intmat.lattice_solve(m, w)] for m, v, w in cases],
    q.relations, q.element([7, -3]).coords, f.image(), lift,
    str(k.canonical()),
    [ck.i_minus(ck.gen_random_irreducible(n, 0.3, seed=n).rows)
     for n in (2, 5, 9)], sys.modules["numpy"] is not None]))
"""


def test_int_results_run_without_numpy():
    # with numpy blocked: kernel bases, lattice solutions, relations,
    # coordinates, images, kernel lifts and I - A, as Python ints equal to
    # the columns of the numpy Hermite reference, to the arrays built from
    # the definitions and to the results here; the int64 entries, which
    # need numpy, are the bytes of the matrix as before
    rng = random.Random(2626)
    cases = [([[2, 4, 4], [-6, 6, 12]], [6, 6], [1, 0])]
    for _ in range(6):
        m = random_matrix(rng, max_dim=6).tolist()
        x = [rng.randint(-4, 4) for _ in m[0]]
        v = [sum(a * b for a, b in zip(row, x)) for row in m]
        cases.append((m, v, [y + 2 ** 65 for y in v]))
    r = subprocess.run([sys.executable, "-c", _INT_RESULTS_NUMPY_BLOCKED,
                        json.dumps(cases)], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    solved, rel, coords, image, lift, kernel, ias, numpy = \
        json.loads(r.stdout)
    for (m, v, w), (basis, x, y) in zip(cases, solved):
        _, hu, pivots = numpy_hermite_normal_form(m)
        assert basis == hu[:, len(pivots):].T.tolist() == \
            intmat.kernel_basis(m)
        assert x == intmat.lattice_solve(m, v) and \
            (object_array(m) @ np.array(x, dtype=object)).tolist() == v
        assert y == intmat.lattice_solve(m, w)
        assert y is None or \
            (object_array(m) @ np.array(y, dtype=object)).tolist() == w
    assert solved[0][2] is None and sum(y is None for *_, y in solved) >= 2
    assert rel == [[4, 2], [0, 6]] and coords == [7, -3]
    assert image == [[1, 0], [2, 3], [0, 1], [4, 2], [0, 6]]
    q = PresentedGroup(2, [[4, 0], [2, 6]])
    f = GroupHom(PresentedGroup(3), q, [[1, 2, 0], [0, 3, 1]])
    k, want = f.kernel()
    assert lift == want and kernel == str(k.canonical())
    assert all(f.apply(f.source.element(c)).is_zero() for c in lift)
    for n, ia in zip((2, 5, 9), ias, strict=True):
        a = ck.gen_random_irreducible(n, 0.3, seed=n)
        m = a.entries
        assert m.dtype == np.int64 and m.flags.writeable
        assert (m == bool_array(a)).all() and m.shape == (n, n)
        assert ia == ck.i_minus(m) == i_minus_array(m).tolist()
    assert not numpy

_READER_NUMPY_BLOCKED = """
import json, sys
sys.modules["numpy"] = None  # an import of numpy now raises ImportError
from ckinv import ck, intmat
from ckinv.presented import GroupHom, PresentedGroup


class Rows:  # only shape and tolist(), as an array of another library has
    shape = (2, 2)

    def tolist(self):
        return [[1, 1], [1, 0]]


def outcome(f):
    try:
        return f()
    except ck.MatrixValidationError as e:
        return e.reason
    except (TypeError, ValueError) as e:
        return type(e).__name__


z2 = PresentedGroup(2)
print(json.dumps({
    "bool rows": outcome(lambda: ck.validate([[True, True],
                                               [True, False]]).rows),
    "float rows": outcome(lambda: ck.validate([[1.0, 1], [1, 1]])),
    "str rows": outcome(lambda: ck.validate([["1", 1], [1, 1]])),
    "1-D list": outcome(lambda: ck.validate([1, 0])),
    "ragged rows": outcome(lambda: ck.validate([[1, 1], [1]])),
    "smith bools": outcome(lambda: intmat.smith_diagonal([[True, False],
                                                           [False, True]])),
    "smith float": outcome(lambda: intmat.smith_diagonal([[1.5, 0]])),
    "element float": outcome(lambda: z2.element([1.0, 2])),
    "element nested": outcome(lambda: z2.element([[1, 2]])),
    "hom float": outcome(lambda: GroupHom(z2, z2, [[1, 0], [0, 0.5]])),
    "hom ragged": outcome(lambda: GroupHom(z2, z2, [[1, 0], [0]])),
    "tolist validate": outcome(lambda: ck.validate(Rows()).rows),
    "tolist smith": outcome(lambda: intmat.smith_diagonal(Rows())),
    "tolist cokernel": str(intmat.cokernel_invariants(Rows())),
    "numpy": sys.modules["numpy"] is not None}))
"""


def test_every_input_ends_in_its_exception_without_numpy():
    # with numpy blocked, bool rows read as 0 and 1, a float or str entry
    # raises TypeError (a bad-entry), a 1-D list, ragged rows or a nested
    # vector ValueError (not-square), and a tolist-only matrix reads like
    # its rows; numpy is never imported
    r = subprocess.run([sys.executable, "-c", _READER_NUMPY_BLOCKED],
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout) == {
        "bool rows": [[1, 1], [1, 0]], "float rows": "bad-entry",
        "str rows": "bad-entry", "1-D list": "not-square",
        "ragged rows": "not-square", "smith bools": [1, 1],
        "smith float": "TypeError", "element float": "TypeError",
        "element nested": "ValueError", "hom float": "TypeError",
        "hom ragged": "ValueError", "tolist validate": [[1, 1], [1, 0]],
        "tolist smith": [1, 1], "tolist cokernel": str(FgAbGroup(0)),
        "numpy": False}
