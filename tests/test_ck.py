import random
import sys
import threading
import time
from itertools import chain

import numpy as np
import pytest

from ckinv import ck, intmat, presented
from ckinv.groups import FgAbGroup, TRIVIAL, Z
from ckinv.presented import GroupHom, PresentedGroup
from ckinv.selftest import AMPLIFIED_SHAPES, CUNTZ_SIDES, \
    check_amplified_fixtures, check_cuntz_fixtures

from oracles import augmented_matrix, bool_array, columns_array, \
    composite_pi, hat_matrix, i_minus_array, iota_nodes, \
    in_split, numpy_hermite_normal_form, ones_row_matrix, out_split, \
    sequence_exactness, transforms_order, with_kernel

EX3_A = [[1, 1, 1], [1, 1, 1], [1, 0, 0]]
EX3_B = [[1, 1, 1], [1, 1, 0], [1, 1, 0]]  # the transpose of EX3_A


@pytest.fixture(scope="module")
def pair_ab():
    return ck.validate(EX3_A), ck.validate(EX3_B)


def _library_hat(a):
    # A^hat as the library has it: I minus the relations of ExtS1
    return i_minus_array(columns_array(
        ck.ext_strong_presentation(a).relations, a.n))


# -- validation -------------------------------------------------------------

def test_validate_accepts_all_ones():
    m = ck.validate([[1, 1], [1, 1]])
    assert m.n == 2


@pytest.mark.parametrize("matrix,reason", [
    ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], "permutation"),
    ([[0, 1], [1, 0]], "permutation"),          # irreducible cycle
    ([[1, 1, 1], [1, 1, 1]], "not-square"),
    ([[2, 1], [1, 1]], "bad-entry"),
    ([[1, -1], [1, 1]], "bad-entry"),
    ([[1, 1], [0, 1]], "reducible"),
    ([[0]], "reducible"),
    ([[1]], "permutation"),
    ([[1, 1], [1]], "not-square"),              # ragged rows
    ([], "not-square"),
    ([[1.5, 1], [1, 1]], "bad-entry"),
    (np.array([["a", "b"], ["c", "d"]]), "bad-entry"),
])
def test_validate_rejections(matrix, reason):
    with pytest.raises(ck.MatrixValidationError) as err:
        ck.validate(matrix)
    assert err.value.reason == reason


def test_validate_reads_booleans_as_zero_and_one():
    # a boolean array, rows of Python bools, and rows mixing bools and ints
    a = ck.gen_random_irreducible(7, 0.3, seed=2)
    bools = [[bool(x) for x in row] for row in a.rows]
    mixed = [[x if j % 2 else bool(x) for j, x in enumerate(row)]
             for row in a.rows]
    for raw in (bool_array(a), bools, mixed):
        assert ck.validate(raw) == a
    assert ck.validate(np.array(bools, dtype=object)) == a
    with pytest.raises(ck.MatrixValidationError) as err:
        ck.validate([[True, True], [True, False], [True, True]])
    assert err.value.reason == "not-square"
    with pytest.raises(ck.MatrixValidationError) as err:
        ck.validate(np.eye(3, dtype=bool))
    assert err.value.reason == "permutation"


def test_validate_reads_unsigned_entries_exactly():
    # uint64 entries past the int64 range are read as the values they hold
    for big in (2 ** 64 - 1, 2 ** 63):
        raw = np.array([[big, 1], [1, 1]], dtype=np.uint64)
        with pytest.raises(ck.MatrixValidationError) as err:
            ck.validate(raw)
        assert err.value.reason == "bad-entry"
        assert str(big) in str(err.value) and "-" not in str(err.value)


def test_validate_realized_matrix():
    from ckinv.realize import RealizationTarget, realize_k0
    m = realize_k0(RealizationTarget(0, (2,)))
    assert ck.validate(np.asarray(m.entries)).n == 6


# -- hat matrix -------------------------------------------------------------

def test_validated_matrix_holds_one_byte_per_entry():
    # a caller that keeps many validated matrices holds N^2 bytes each
    a = ck.gen_random_irreducible(100, 0.3, seed=1)
    assert type(a.data) is bytes and len(a.data) == 100 * 100
    bits = bool_array(a)  # a view on the bytes, as the tests read them
    assert bits.nbytes == 100 * 100 and ck.validate(bits) == a
    m = a.entries
    assert m.dtype == np.int64 and ck.validate(m) == a
    m[0, 0] = 1 - m[0, 0]  # a fresh array: the matrix does not change
    assert (a.entries != m).sum() == 1
    assert a.transpose().entries.tolist() == a.entries.T.tolist()


def test_i_minus_gives_int_rows_of_any_square_matrix():
    # int rows, int64 entries and a bool array give the int rows of the
    # array built from the definition; a non-square or ragged one raises
    for a in (ck.gen_cuntz(2), ck.gen_random_irreducible(9, 0.3, seed=4)):
        want = i_minus_array(a.entries).tolist()
        for m in (a.rows, a.entries, bool_array(a)):
            ia = ck.i_minus(m)
            assert ia == want
            assert {type(x) for x in chain.from_iterable(ia)} == {int}
    assert ck.i_minus([]) == []
    for m in ([[1, 1, 1], [1, 1, 1]], np.ones((3, 2), dtype=np.int64),
              [[1, 1], [1]], [[]]):
        with pytest.raises(ValueError):
            ck.i_minus(m)


def test_hat_of_all_ones_is_ones_row():
    for n in (2, 3, 5):
        a = ck.gen_cuntz(n)
        assert (_library_hat(a) == ones_row_matrix(n)).all()


def test_hat_of_example_matrices(pair_ab):
    a, b = pair_ab
    assert (_library_hat(a) ==
            np.array([[1, 1, 1], [0, 0, 0], [0, -1, -1]])).all()
    assert (_library_hat(b) ==
            np.array([[1, 1, 1], [0, 0, -1], [0, 0, -1]])).all()


def test_hat_first_column_is_e1(corpus500):
    # against A + R_1 - A R_1 built from its definition
    for a in corpus500[:100]:
        hat = _library_hat(a)
        assert (hat == hat_matrix(a)).all()
        assert hat[0, 0] == 1 and not hat[1:, 0].any()


# -- augmented matrix -------------------------------------------------------

def test_augmented_shape_and_example():
    a = ck.gen_cuntz(2)
    assert (augmented_matrix(a) ==
            np.array([[1, 1], [0, -1], [-1, 0]])).all()


def test_augmented_kernel_of_cuntz_trivial():
    for n in (2, 3, 6):
        at = augmented_matrix(ck.gen_cuntz(n))
        assert intmat.kernel_basis(at) == []


def test_augmented_kernel_drops_at_most_one_rank(corpus500, reports500):
    # ExtS0 is the kernel of the augmented matrix
    for a, r in zip(corpus500[:120], reports500):
        ia_rank_def = len(intmat.kernel_basis(ck.i_minus(a.entries)))
        at_rank_def = len(intmat.kernel_basis(augmented_matrix(a)))
        assert at_rank_def in (ia_rank_def, ia_rank_def - 1)
        assert r.ext_s0 == FgAbGroup(at_rank_def)


# -- invariants -------------------------------------------------------------

# one fixture each, through the same checks that ``ckinv selftest`` runs
@pytest.mark.parametrize("n", CUNTZ_SIDES)
def test_cuntz_invariants(n):
    assert check_cuntz_fixtures([n]) is None


@pytest.mark.parametrize("n,k", AMPLIFIED_SHAPES)
def test_amplified_invariants(n, k):
    assert check_amplified_fixtures([(n, k)]) is None


def test_pi_aut_degree_check(pair_ab, monkeypatch):
    def no_elimination(m):
        raise AssertionError("eliminated before checking the degree")

    for name in ("smith_diagonal", "smith_normal_form",
                 "hermite_normal_form"):
        monkeypatch.setattr(intmat, name, no_elimination)
    a, _ = pair_ab
    for degree in (0, 3):
        for pi in (ck.pi_aut, ck.pi_aut_stable):
            with pytest.raises(ValueError, match="degree"):
                pi(a, degree)


def test_invariants_requires_validated_input():
    with pytest.raises(TypeError):
        ck.invariants(np.ones((2, 2), dtype=np.int64))


# -- corpus properties ------------------------------------------------------

def test_invariants_refuse_sides_past_the_cap(monkeypatch):
    def no_elimination(m):
        raise AssertionError("eliminated a matrix past the cap")

    for name in ("smith_diagonal", "smith_normal_form",
                 "hermite_normal_form"):
        monkeypatch.setattr(intmat, name, no_elimination)
    a = ck.gen_random_irreducible(ck.MAX_INVARIANTS_SIDE + 1, 0.3, seed=1)
    with pytest.raises(ValueError, match="at most"):
        ck.invariants(a)


@pytest.mark.parametrize("entry", [
    lambda a: ck.pi_aut(a, 1), lambda a: ck.pi_aut_stable(a, 2),
    lambda a: ck.is_isomorphic_ck(ck.gen_cuntz(3), a),
    lambda a: ck.is_stably_isomorphic_ck(a, ck.gen_cuntz(3))],
    ids=["pi_aut", "pi_aut_stable", "is_isomorphic_ck",
         "is_stably_isomorphic_ck"])
def test_ext_entry_points_refuse_sides_past_the_cap(monkeypatch, entry):
    def no_elimination(m):
        raise AssertionError("eliminated a matrix past the cap")

    a = ck.gen_random_irreducible(ck.MAX_INVARIANTS_SIDE + 1, 0.3, seed=1)
    for name in ("smith_diagonal", "smith_normal_form",
                 "hermite_normal_form"):
        monkeypatch.setattr(intmat, name, no_elimination)
    with pytest.raises(ValueError, match="at most"):
        entry(a)


def test_transpose_invariance_of_k_groups(corpus500):
    for a in corpus500[:120]:
        ra = ck.invariants(a)
        rt = ck.invariants(a.transpose())
        assert ra.k0 == rt.k0
        assert ra.k1 == rt.k1


def test_k0_ext_s1_determine_the_rest(reports500):
    # matrices agreeing on (K0, ExtS1) agree on K1 and ExtS0
    by_key = {}
    for r in reports500:
        by_key.setdefault((r.k0, r.ext_s1), []).append(r)
    multi = [grp for grp in by_key.values() if len(grp) > 1]
    assert multi, "corpus should contain matching pairs"
    for grp in multi:
        first = grp[0]
        for other in grp[1:]:
            assert other.k1 == first.k1
            assert other.ext_s0 == first.ext_s0


# -- isomorphism decisions --------------------------------------------------

def test_isomorphism_examples(pair_ab):
    a, b = pair_ab
    assert ck.is_isomorphic_ck(a, a)
    assert not ck.is_isomorphic_ck(a, b)
    assert ck.is_stably_isomorphic_ck(a, b)
    assert not ck.is_isomorphic_ck(ck.gen_cuntz(3), ck.gen_amplified(3, 2))
    assert ck.is_isomorphic_ck(ck.gen_cuntz(3), ck.gen_amplified(3, 3))
    assert ck.is_stably_isomorphic_ck(ck.gen_cuntz(3),
                                      ck.gen_amplified(3, 2))
    assert not ck.is_stably_isomorphic_ck(ck.gen_cuntz(2), ck.gen_cuntz(3))


def test_stable_isomorphism_matches_stable_pi(corpus500):
    rng = random.Random(43)
    pool = corpus500[:40]
    for _ in range(100):
        a, b = rng.choice(pool), rng.choice(pool)
        assert ck.is_stably_isomorphic_ck(a, b) == \
            (ck.pi_aut_stable(a, 1) == ck.pi_aut_stable(b, 1))


def _fresh(a):
    # the same matrix as a new object, holding none of a's groups
    return ck.ZeroOneMatrix(a.data, a.n)


def test_pi_aut_matches_the_report(corpus500):
    # pi_aut and pi_aut_stable on fresh copies eliminate again, so they
    # check the report rather than read its groups, on K1 = 0 and on
    # K1 != 0
    with_k1 = 0
    for a in _sequence_fixtures(corpus500) + _kernel_fixtures():
        r = ck.invariants(a)
        b, c = _fresh(a), _fresh(a)
        assert (ck.pi_aut(b, 1), ck.pi_aut(b, 2)) == (r.pi1_aut, r.pi2_aut)
        assert (ck.pi_aut_stable(c, 1), ck.pi_aut_stable(c, 2)) == \
            (r.pi1_aut_stable, r.pi2_aut_stable)
        with_k1 += r.k1.free_rank > 0
    assert with_k1 >= 12


@pytest.mark.parametrize("entry,sides", [
    (ck.pi_aut, 2), (ck.pi_aut_stable, 1)],
    ids=["pi_aut", "pi_aut_stable"])
def test_pi_aut_eliminates_each_matrix_it_reads_once(monkeypatch, entry,
                                                     sides):
    # pi_aut reads I - A and I - A^hat, pi_aut_stable I - A alone: the
    # first call on a fresh matrix runs one Smith diagonal of side n each,
    # and no other kernel; the matrix keeps the groups, so a second call
    # on the same object, of either degree, runs none
    calls = []
    diagonal = intmat.smith_diagonal

    def counted(m):
        calls.append((len(m), len(m[0])))
        return diagonal(m)

    def no_elimination(*args):
        raise AssertionError("ran a kernel other than smith_diagonal")

    monkeypatch.setattr(intmat, "smith_diagonal", counted)
    for name in ("smith_normal_form", "hermite_normal_form", "_hermite"):
        monkeypatch.setattr(intmat, name, no_elimination)
    a = ck.gen_random_irreducible(30, 0.3, seed=7)
    for m in (a, with_kernel(a)):
        for first in (1, 2):
            fresh = _fresh(m)
            calls.clear()
            entry(fresh, first)
            assert calls == [(m.n, m.n)] * sides
            for degree in (first, 3 - first):
                entry(fresh, degree)
            assert calls == [(m.n, m.n)] * sides


def test_each_matrix_is_eliminated_once(monkeypatch):
    # a report on a fresh matrix runs five Smith diagonals: those of I - A
    # and I - A^hat, whose groups the matrix keeps, and the three
    # cross-checks.  Every other entry point then reads the kept groups
    # and runs no diagonal of that matrix (the sequence's queries on
    # groups of the kernels' ranks are smaller), and a second report runs
    # the three cross-checks alone
    shapes = []
    diagonal = intmat.smith_diagonal

    def counted(m):
        shapes.append((len(m), len(m[0]) if len(m) else 0))
        return diagonal(m)

    monkeypatch.setattr(intmat, "smith_diagonal", counted)
    n = 30
    a = ck.gen_random_irreducible(n, 0.3, seed=7)
    partner = ck.gen_random_irreducible(n, 0.3, seed=8)
    ck.invariants(partner)
    for m in (a, with_kernel(a, 2)):
        shapes.clear()
        r = ck.invariants(m)
        assert sorted(shapes) == [(n, n)] * 3 + [(n, n + 1), (n + 1, n)]
        shapes.clear()
        seq = ck.five_term_sequence(m)
        assert [g.canonical() for g in seq.groups[3:]] == [r.ext_s1, r.ext_w1]
        assert (ck.pi_aut(m, 1), ck.pi_aut(m, 2)) == (r.pi1_aut, r.pi2_aut)
        assert ck.pi_aut_stable(m, 1) == r.pi1_aut_stable
        ck.is_isomorphic_ck(m, partner)
        ck.is_stably_isomorphic_ck(partner, m)
        assert all(n not in shape for shape in shapes), shapes
        assert shapes == [] or r.k1.free_rank
        shapes.clear()
        assert ck.invariants(m) == r
        assert sorted(shapes) == [(n, n), (n, n + 1), (n + 1, n)]


def test_the_kept_groups_equal_direct_eliminations(corpus500):
    # the groups each matrix keeps against the cokernels of I - A and
    # I - A^hat built from the entries
    fixtures = (corpus500 + [ck.gen_cuntz(n) for n in CUNTZ_SIDES]
                + [ck.gen_amplified(n, k) for n, k in AMPLIFIED_SHAPES])
    for a in fixtures + _kernel_fixtures():
        assert a._weak[0] == intmat.cokernel_invariants(
            ck.i_minus(a.entries))
        assert a._strong[0] == intmat.cokernel_invariants(
            ck.i_minus(hat_matrix(a)))


def test_threads_sharing_a_matrix_read_the_same_groups():
    # threads that read one fresh matrix at once, switching as often as
    # the interpreter allows, each see the groups a lone reader sees
    a = ck.gen_random_irreducible(40, 0.3, seed=3)
    want = ck.invariants(_fresh(a))
    shared, outs = _fresh(a), []

    def read():
        outs.append((ck.pi_aut(shared, 1), ck.invariants(shared),
                     ck.is_isomorphic_ck(shared, a)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert outs == [(want.pi1_aut, want, True)] * 6


def test_the_kept_groups_leave_equality_and_hash_alone():
    a = ck.gen_random_irreducible(12, 0.3, seed=7)
    fresh, before = _fresh(a), hash(a)
    ck.invariants(a)
    assert {"_weak", "_strong"} <= vars(a).keys()
    assert a == fresh and hash(a) == hash(fresh) == before
    assert repr(a) == repr(fresh) and {fresh: 1}[a] == 1
    # validate and transpose build new objects, which keep nothing yet
    for b in (ck.validate(a.rows), a.transpose().transpose()):
        assert b == a and b is not a
        assert not {"_weak", "_strong"} & vars(b).keys()


def test_report_verdicts_match_the_deciders(corpus500, reports500):
    # (K0, ExtS1) and K0 equality read straight off two reports against
    # the deciders on fresh copies, which eliminate I - A and I - A^hat of
    # both matrices again rather than read the groups the reports left on
    # them
    rng = random.Random(47)
    pairs = [(rng.randrange(500), rng.randrange(500)) for _ in range(150)]
    for key in (lambda r: (r.k0, r.ext_s1), lambda r: r.k0):
        groups = {}
        for i, r in enumerate(reports500):
            groups.setdefault(key(r), []).append(i)
        pairs += [(g[0], g[-1]) for g in groups.values() if len(g) > 1]
    seen = set()
    for i, j in pairs:
        ra, rb = reports500[i], reports500[j]
        a, b = _fresh(corpus500[i]), _fresh(corpus500[j])
        verdicts = ((ra.k0, ra.ext_s1) == (rb.k0, rb.ext_s1),
                    ra.k0 == rb.k0)
        assert verdicts == (ck.is_isomorphic_ck(a, b),
                            ck.is_stably_isomorphic_ck(a, b))
        seen.add(verdicts)
    assert seen == {(True, True), (False, True), (False, False)}


def _split_vertex(a, rng, along_rows: bool) -> int:
    # a vertex whose row (or column) holds two 1s or more
    rows = a.rows if along_rows else a.transpose().rows
    return rng.choice([v for v, r in enumerate(rows) if sum(r) >= 2])


def test_state_splittings_keep_the_classes_of_o_a(corpus500):
    # out-splits give isomorphic algebras and in-splits stably isomorphic
    # ones (Bates and Pask 2004); an in-split may change ExtS1, and on
    # this corpus, make_corpus(300), it does in about half the trials
    rng = random.Random(5)
    in_isomorphic = 0
    for a in corpus500[:300]:
        b = out_split(a, _split_vertex(a, rng, True), rng)
        assert b.n == a.n + 1 and ck.is_isomorphic_ck(a, b), a.rows
        c = in_split(a, _split_vertex(a, rng, False), rng)
        assert c.n == a.n + 1 and ck.is_stably_isomorphic_ck(a, c), a.rows
        in_isomorphic += ck.is_isomorphic_ck(a, c)
    assert 0 < in_isomorphic < 300


def test_a_chain_of_out_splits_keeps_the_report(corpus500):
    # one seeded chain grows a side-12 corpus matrix to side 61, and every
    # report on the way has its groups; 0.1 s in all (2-core x86-64)
    rng = random.Random(5)
    a = corpus500[10]
    want = ck.invariants(a).to_json()
    start = time.perf_counter()
    while a.n <= 60:
        a = out_split(a, _split_vertex(a, rng, True), rng)
        got = ck.invariants(a).to_json()
        assert {**got, "n": want["n"]} == want, a.n
    assert a.n == 61 and time.perf_counter() - start < 2


def test_split_chains_to_side_150_keep_the_known_groups(corpus500):
    # seeded chains of splits grow three side-12 corpus matrices with
    # K1 = 0, the unit class of K0 nonzero in each, to side 150, past
    # every closed-form fixture: out-splits keep every group and the
    # isomorphism class, in-splits keep K0, K1, ExtW1, ExtW0 and the
    # stable class, and the five-term sequence builds; 0.8 s in all
    # (2-core x86-64)
    start = time.perf_counter()
    for index in (10, 21, 54):
        seed = corpus500[index]
        want = ck.invariants(seed)
        assert seed.n == 12 and want.k1 == TRIVIAL
        assert want.ext_s1 != want.k0.direct_sum(Z)
        for along_rows in (True, False):
            rng, a = random.Random(index), seed
            while a.n < 150:
                split = out_split if along_rows else in_split
                a = split(a, _split_vertex(a, rng, along_rows), rng)
            got = ck.invariants(a)
            if along_rows:
                assert {**got.to_json(), "n": 12} == want.to_json(), index
                assert ck.is_isomorphic_ck(seed, a)
            else:
                assert (got.k0, got.k1, got.ext_w1, got.ext_w0) == \
                    (want.k0, want.k1, want.ext_w1, want.ext_w0), index
                assert ck.is_stably_isomorphic_ck(seed, a)
            seq = ck.five_term_sequence(a)
            assert [g.canonical() for g in seq.groups[3:]] == \
                [got.ext_s1, got.ext_w1]
    assert time.perf_counter() - start < 2


def test_k0_pair_relations_are_the_rows_of_i_minus_a(corpus500):
    # the rows of I - A are the relation columns of (I - A)^t
    for a in corpus500:
        p, unit = ck.k0_pair(a)
        old = PresentedGroup(a.n, list(zip(*ck._i_minus_rows(a))))
        assert p._relations == old._relations == i_minus_array(a.entries) \
            .tolist()
        assert p.generators == a.n and unit.coords == (1,) * a.n


# -- five-term sequence -----------------------------------------------------

def test_five_term_all_ones_2x2():
    seq = ck.five_term_sequence(ck.gen_cuntz(2))
    assert seq.verified
    assert seq.groups[0].canonical() == TRIVIAL  # Ker(I-A^hat)/(Z e1)
    assert seq.groups[3].canonical() == Z        # coker(I - A^hat)


def test_five_term_example_matrices(pair_ab):
    for m in pair_ab:
        seq = ck.five_term_sequence(m)
        assert seq.verified
        assert all(seq.nodes_exact)


def test_five_term_sequence_refuses_sides_past_the_cap(monkeypatch):
    def no_elimination(m):
        raise AssertionError("eliminated a matrix past the cap")

    for name in ("smith_diagonal", "smith_normal_form",
                 "hermite_normal_form"):
        monkeypatch.setattr(intmat, name, no_elimination)
    a = ck.gen_random_irreducible(ck.MAX_SEQUENCE_SIDE + 1, 0.3, seed=1)
    with pytest.raises(ValueError, match="at most"):
        ck.five_term_sequence(a)


def test_e1_always_in_hat_kernel(corpus500):
    for a in corpus500[:100]:
        e1 = np.zeros(a.n, dtype=np.int64)
        e1[0] = 1
        assert not (columns_array(ck.ext_strong_presentation(a).relations,
                                  a.n) @ e1).any()


def test_five_term_groups_match_report(corpus500, reports500):
    # the sequence presents Ext_s0 and Ext_w0 on kernel bases (a basis of
    # Ker(I - A) and its sum-zero part), the report reads them off the
    # free ranks of ExtS1 and ExtW1; the report's cross-check reads
    # Ext_s0 off the augmented matrix, a third route
    for a, r in zip(corpus500[:80], reports500[:80]):
        seq = ck.five_term_sequence(a)
        assert seq.groups[0].canonical() == r.ext_s0
        assert seq.groups[1].canonical() == r.ext_w0
        assert seq.groups[3].canonical() == r.ext_s1
        assert seq.groups[4].canonical() == r.ext_w1


def _sequence_fixtures(corpus500):
    return (corpus500[:80] + [ck.gen_cuntz(n) for n in CUNTZ_SIDES]
            + [ck.gen_amplified(n, k) for n, k in AMPLIFIED_SHAPES])


def _kernel_fixtures():
    # 1, 2 or 3 pairs of equal rows of I - A, so K1 = Ker(I - A) != 0
    rng = random.Random(2415)
    return [with_kernel(ck.gen_random_irreducible(
        n, 0.4, rng.randrange(2 ** 31)), pairs)
        for n in (12, 16, 24, 30) for pairs in (1, 2, 3)]


def test_five_term_nodes_match_the_homology_oracle(corpus500):
    # every verdict, those read off the iota quotient included, equals
    # exactness read off ker(g)/im(f) presented outright
    for a in _sequence_fixtures(corpus500):
        seq = ck.five_term_sequence(a)
        assert seq.nodes_exact == sequence_exactness(seq.groups, seq.maps)


def test_iota_nodes_fail_where_the_oracle_does_on_broken_maps(corpus500):
    # the Smith rule the witness replaced, kept as a reference: doubling
    # the iota column, or one vector of the Ker(I - A) basis that s sums,
    # breaks exactness at Z or at coker(I - A^hat) for many of the
    # matrices; the rule must then say False exactly where the oracle does.
    # Five of the 80 corpus matrices have Ker(I - A) = Z, three of them
    # with a basis vector of nonzero sum, which doubling breaks
    broken = {"iota": 0, "basis": 0}
    for a in _sequence_fixtures(corpus500):
        seq = ck.five_term_sequence(a)
        j, s, iota, q = seq.maps
        g2, g3, g4, g5 = seq.groups[1:]
        ia = ck._i_minus_rows(a)
        ker_a = intmat.hermite_normal_form(ia).kernel
        assert s.image() == [[sum(b)] for b in ker_a]
        exts = g4.canonical(), g5.canonical()
        assert iota_nodes(ker_a, ck._iota_quotient_rows(ia), *exts) \
            == seq.nodes_exact[2:4] == (True, True)

        doubled = GroupHom(g3, g4, [[2 * r[0]] for r in ia])
        rows = [h + [2 * r[0]] for h, r in zip(ck._hat_rows(ia), ia)]
        nodes = iota_nodes(ker_a, rows, *exts)
        assert nodes == sequence_exactness(seq.groups,
                                           (j, s, doubled, q))[2:4]
        broken["iota"] += not all(nodes)

        if ker_a:
            basis = [[2 * x for x in ker_a[0]]] + ker_a[1:]
            summed = GroupHom(g2, g3, [[sum(b) for b in basis]])
            at_z, _ = iota_nodes(basis, ck._iota_quotient_rows(ia), *exts)
            assert at_z == sequence_exactness(seq.groups,
                                              (j, summed, iota, q))[2]
            broken["basis"] += not at_z
    assert broken["iota"] >= 40 and broken["basis"] >= 3, broken


def test_five_term_sequence_transforms_no_stacked_matrix(monkeypatch):
    # Ker(I - A) = 0 gives both kernels with no Hermite transform of
    # height n; a nonzero Ker(I - A) takes exactly one, of I - A itself.
    # Neither runs a stacked matrix such as [(I - A) e_1 | I - A^hat], a
    # Hermite of I - A^hat, or a solve against a kernel basis.  The only
    # Smith diagonals of height n are those of I - A^hat and I - A: the
    # witness stands in for [I - A | I - A^hat], [I | I - A] and
    # [I - A^hat | (I - A) e_1]
    n = 60
    widths, diagonals = [], []
    hermite, diagonal = intmat._hermite, intmat.smith_diagonal

    def counted(columns, rows):
        if rows == n:
            widths.append(len(columns))
        return hermite(columns, rows)

    def counted_diagonal(m):
        if len(m) == n:
            diagonals.append(len(m[0]))
        return diagonal(m)

    monkeypatch.setattr(intmat, "_hermite", counted)
    monkeypatch.setattr(intmat, "smith_diagonal", counted_diagonal)
    seq = ck.five_term_sequence(ck.gen_random_irreducible(n, 0.3, seed=7))
    assert seq.verified and seq.groups[1].generators == 0
    assert widths == [] and diagonals == [n, n]
    diagonals.clear()
    seq = ck.five_term_sequence(
        with_kernel(ck.gen_random_irreducible(n, 0.3, seed=8)))
    assert seq.verified and seq.groups[1].generators >= 1
    assert widths == [n] and len(diagonals) <= 2


def test_five_term_sequence_with_k1_zero_runs_no_hermite(monkeypatch,
                                                        corpus500):
    # Ker(I - A) = 0: no Hermite transform at all, not even one of the
    # empty row of coordinate sums of an empty kernel basis
    calls = []
    hermite = intmat._hermite
    monkeypatch.setattr(intmat, "_hermite",
                        lambda *args: calls.append(args) or hermite(*args))
    mats = [a for a in corpus500[:40] if not ck.invariants(a).k1.free_rank]
    mats.append(ck.gen_random_irreducible(60, 0.3, seed=7))
    assert len(mats) >= 20
    for a in mats:
        seq = ck.five_term_sequence(a)
        assert seq.verified and seq.groups[1].generators == 0
    assert calls == []
    seq = ck.five_term_sequence(with_kernel(mats[-1]))
    assert seq.verified and calls[0][1] == 60  # the Hermite of I - A


def test_five_term_sequence_lifts_the_kernel_of_s_once(monkeypatch):
    # two Hermite transforms, each once: that of I - A for the Ker(I - A)
    # basis, and the 1 x m one of its row of coordinate sums for C, the
    # kernel of s.  j's nodes hold by construction, so no query on j
    # lifts a kernel again
    calls = []
    hermite = intmat._hermite

    def counted(columns, rows):
        calls.append(repr((rows, columns)))
        return hermite(columns, rows)

    monkeypatch.setattr(intmat, "_hermite", counted)
    seq = ck.five_term_sequence(
        with_kernel(ck.gen_random_irreducible(60, 0.3, seed=7)))
    assert seq.verified and seq.groups[1].generators >= 1
    assert len(calls) == len(set(calls)) == 2


def test_five_term_sequence_runs_no_generic_query(monkeypatch, corpus500):
    # every node holds by construction, by the witness or by the check at
    # Z, so the sequence asks no generic well-definedness, injectivity or
    # exactness query, on matrices with K1 = 0 and with K1 != 0
    def no_query(*args):
        raise AssertionError("ran a generic query")

    for name in ("is_well_defined", "is_injective", "is_surjective"):
        monkeypatch.setattr(GroupHom, name, no_query)
    monkeypatch.setattr(presented, "is_exact_at", no_query)
    for a in corpus500[:20] + _kernel_fixtures():
        ck.five_term_sequence(a)


def test_witnessed_verdicts_match_the_rules_they_replace(corpus500):
    # the witness decides that q is well defined and onto and that the
    # sequence is exact at coker(I - A^hat), and gives ExtW1 as the iota_1
    # quotient; each verdict equals q's generic queries, the Smith rule of
    # the iota quotient and exactness read off ker(g)/im(f), on matrices
    # with K1 = 0 and with K1 of rank 1 to 3
    for a in _sequence_fixtures(corpus500) + _kernel_fixtures():
        seq = ck.five_term_sequence(a)
        q = seq.maps[3]
        ia = ck._i_minus_rows(a)
        ker_a = intmat.hermite_normal_form(ia).kernel
        exts = seq.groups[3].canonical(), seq.groups[4].canonical()
        assert seq.verified and q.is_well_defined()
        assert seq.nodes_exact[2:] == (
            *iota_nodes(ker_a, ck._iota_quotient_rows(ia), *exts),
            q.is_surjective())
        assert seq.nodes_exact == sequence_exactness(seq.groups, seq.maps)


@pytest.mark.parametrize("broken", ["hat", "iota", "q"])
def test_five_term_sequence_raises_when_the_witness_fails(monkeypatch,
                                                         broken):
    # one entry of I - A^hat changed, iota's column doubled, or q moved off
    # the identity: the witness fails before any elimination
    a = ck.gen_random_irreducible(12, 0.3, seed=7)
    hat_rows = ck._hat_rows

    def bumped(ia):
        rows = hat_rows(ia)
        rows[1][2] += 1
        return rows

    class Mutated(GroupHom):
        def __init__(self, source, target, matrix):
            rows = [list(r) for r in matrix]
            if broken == "iota" and source.generators == 1 < a.n == \
                    target.generators:
                rows = [[2 * x for x in r] for r in rows]
            if broken == "q" and source.generators == target.generators:
                rows[0][1] += 1
            super().__init__(source, target, rows)

    def no_elimination(*args):
        raise AssertionError("eliminated before checking the witness")

    if broken == "hat":
        monkeypatch.setattr(ck, "_hat_rows", bumped)
    else:
        monkeypatch.setattr(ck, "GroupHom", Mutated)
    for name in ("smith_diagonal", "_hermite"):
        monkeypatch.setattr(intmat, name, no_elimination)
    with pytest.raises(ck.VerificationError, match="do not match"):
        ck.five_term_sequence(a)


def _lattice(basis):
    # the Hermite form of the lattice spanned by the basis vectors
    if not basis:
        return []
    h, _, pivots = numpy_hermite_normal_form(
        np.array(basis, dtype=object).T)
    return h[:, :len(pivots)].T.tolist()


def test_sequence_kernels_span_the_hermite_kernel_lattices(corpus500):
    # Ker(I - A) and Ker(I - A^hat) from theory against the Hermite
    # kernels of I - A and I - A^hat: equal lattices, compared by their
    # Hermite forms, never basis by basis
    nullities = []
    for a in _sequence_fixtures(corpus500) + _kernel_fixtures():
        ia = ck._i_minus_rows(a)
        ext_w1 = intmat.cokernel_invariants(ia)
        ext_s1 = intmat.cokernel_invariants(ck._hat_rows(ia))
        ker_a, s, ker_hat = ck._sequence_kernels(ia, ext_w1, ext_s1,
                                                 PresentedGroup(1))
        want_a = intmat.hermite_normal_form(ia).kernel
        want_hat = intmat.hermite_normal_form(ck._hat_rows(ia)).kernel
        assert len(ker_a) == len(want_a)
        assert _lattice(ker_a) == _lattice(want_a)
        assert _lattice(ker_hat) == _lattice(want_hat)
        seq = ck.five_term_sequence(a)
        assert seq.groups[0].generators == len(ker_hat) == 1 + len(s._lift)
        assert seq.maps[1]._rows == s._rows == [[sum(b) for b in ker_a]]
        nullities.append(len(ker_a))
        with pytest.raises(RuntimeError, match="does not match"):
            ck._sequence_kernels(ia, ext_w1,
                                 FgAbGroup(ext_s1.free_rank + 1),
                                 PresentedGroup(1))
    assert nullities.count(1) >= 5 and sum(k >= 2 for k in nullities) >= 3


# -- the distinguished class ------------------------------------------------

def test_iota_one_of_small_cuntz():
    el = ck.iota_one(ck.gen_cuntz(2))
    assert el.order() == 0
    free_coords, torsion = el.canonical_coords()
    assert tuple(abs(x) for x in free_coords) == (1,)  # a generator
    assert torsion == ()


def test_iota_one_example_infinite_order(pair_ab):
    a, _ = pair_ab
    assert ck.iota_one(a).order() == 0
    # oracle: (I-A) e_1 = (0,-1,-1) lies outside the relation lattice
    assert not intmat.lattice_contains(ck.i_minus(hat_matrix(a)),
                                       [0, -1, -1])


def test_iota_image_vanishes_in_weak_group(corpus500):
    from ckinv.presented import PresentedGroup
    for a in corpus500[:60]:
        ia = i_minus_array(a.entries)
        weak = PresentedGroup(a.n, ia)
        e1 = np.zeros(a.n, dtype=np.int64)
        e1[0] = 1
        assert weak.element(ia @ e1).is_zero()


def test_iota_order_divides_weak_collapse(reports500):
    # quotient of ExtS1 by the class is ExtW1, so finite order only when
    # the free ranks agree
    for r in reports500[:200]:
        if r.iota_one_order:
            assert r.ext_s1.free_rank == r.ext_w1.free_rank


def _iota_cases(pair_ab, corpus500, reports500, larger=()):
    fixtures = [*pair_ab, *(ck.gen_cuntz(n) for n in range(2, 8)),
                *(ck.gen_amplified(n, k) for n in (2, 3, 4)
                  for k in range(1, 5)), *larger]
    return ([(a, ck.invariants(a)) for a in fixtures]
            + list(zip(corpus500, reports500)))


def test_iota_one_order_is_the_torsion_quotient(pair_ab, corpus500,
                                                reports500):
    # ExtW1 = ExtS1/<iota_1>: a class of infinite order drops the free
    # rank by one, one of finite order k divides |T(ExtS1)| by k
    finite = 0
    for a, r in _iota_cases(pair_ab, corpus500, reports500):
        if r.ext_s1.free_rank == r.ext_w1.free_rank:
            assert r.iota_one_order * r.ext_w1.torsion.order == \
                r.ext_s1.torsion.order
        else:
            assert r.ext_s1.free_rank == r.ext_w1.free_rank + 1
            assert r.iota_one_order == 0
        finite += r.iota_one_order > 0
    assert finite >= 10


def test_iota_one_order_matches_the_element_order(pair_ab, corpus500,
                                                  reports500):
    # the report and GroupElement.order share one quotient rule; the
    # order read off the Smith transforms stays the oracle
    larger = [ck.gen_random_irreducible(n, d, seed=s) for n in (20, 40, 60)
              for d in (0.1, 0.3, 0.6) for s in (0, 1)]
    finite = 0
    for a, r in _iota_cases(pair_ab, corpus500, reports500, larger):
        assert r.iota_one_order == transforms_order(ck.iota_one(a))
        finite += r.iota_one_order > 1
    assert finite >= 10


# -- generators -------------------------------------------------------------

def test_gen_cuntz_matrix():
    assert (ck.gen_cuntz(2).entries == np.ones((2, 2), dtype=int)).all()
    with pytest.raises(ValueError):
        ck.gen_cuntz(1)


def test_gen_amplified_block_layout():
    m = ck.gen_amplified(3, 2).entries
    assert m.shape == (6, 6)
    assert (m[:3, 3:] == 1).all()
    assert (m[:3, :3] == 0).all()
    assert (m[3:, :3] == np.eye(3, dtype=int)).all()
    assert (m[3:, 3:] == 0).all()
    assert ck.gen_amplified(3, 1) == ck.gen_cuntz(3)
    with pytest.raises(ValueError):
        ck.gen_amplified(3, 0)
    with pytest.raises(ValueError):
        ck.gen_amplified(1, 2)


def test_generators_refuse_sides_past_the_cap(monkeypatch):
    assert ck.gen_cuntz(ck.MAX_SIDE).n == ck.MAX_SIDE

    def no_allocation(*args, **kwargs):
        raise AssertionError("allocated a matrix past the cap")

    monkeypatch.setattr(ck, "_square", no_allocation)
    for make in (lambda: ck.gen_cuntz(ck.MAX_SIDE + 1),
                 lambda: ck.gen_amplified(2, ck.MAX_SIDE // 2 + 1),
                 lambda: ck.gen_amplified(10 ** 9, 10 ** 9),
                 lambda: ck.gen_random_irreducible(ck.MAX_SIDE + 1, 0.3, 1)):
        with pytest.raises(ValueError, match="at most"):
            make()


def test_gen_random_deterministic_and_valid():
    a = ck.gen_random_irreducible(7, 0.3, seed=123)
    b = ck.gen_random_irreducible(7, 0.3, seed=123)
    assert a == b
    assert ck.gen_random_irreducible(7, 0.3, seed=124) != a
    for seed in range(30):
        m = ck.gen_random_irreducible(2 + seed % 6, 0.05 + 0.1 * (seed % 9),
                                      seed=seed)
        ck.validate(np.asarray(m.entries))  # revalidates cleanly
    with pytest.raises(ValueError):
        ck.gen_random_irreducible(5, 0.0, seed=1)
    with pytest.raises(ValueError):
        ck.gen_random_irreducible(1, 0.5, seed=1)


def test_gen_random_refuses_a_density_that_expects_too_many_draws(
        monkeypatch):
    # a draw with no edge beside the cycle is a permutation and is
    # redrawn; a density expecting more than MAX_DRAWS draws is refused
    # before the first
    def no_draw(*args, **kwargs):
        raise AssertionError("drew a matrix past the cap")

    draws = ck.MAX_DRAWS
    for n, density in ((2, 1e-9), (50, 1e-12), (2, 1e-300), (1000, 1e-9),
                       (2, 1 - (1 - 1 / draws) ** 0.5 - 1e-6)):
        with monkeypatch.context() as patch:
            patch.setattr(ck, "_square", no_draw)
            with pytest.raises(ValueError, match="draws"):
                ck.gen_random_irreducible(n, density, seed=1)
    # just inside the cap, and the corpus's lowest density, still draw
    ck.gen_random_irreducible(2, 1 - (1 - 1 / draws) ** 0.5 + 1e-6, seed=1)
    assert ck.gen_random_irreducible(2, 0.05, seed=3).n == 2


def test_pi_matches_the_composite_form(reports500):
    # one sum of tensor products per degree against the direct sums of
    # tensor products and Tor that _pi composed before, on listed functors
    for r in reports500:
        for ext1, ext0, pis in ((r.ext_s1, r.ext_s0, (r.pi1_aut, r.pi2_aut)),
                                (r.ext_w1, r.ext_w0, (r.pi1_aut_stable,
                                                      r.pi2_aut_stable))):
            for n, pi in zip((1, 2), pis):
                assert pi == ck._pi(ext1, ext0, r.k0, r.k1, n) \
                    == composite_pi(ext1, ext0, r.k0, r.k1, n), r
