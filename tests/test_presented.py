import random
import subprocess
import sys
import time
from itertools import chain
from math import lcm

import numpy as np
import pytest

from ckinv import ck, intmat, selftest
from ckinv.groups import FgAbGroup, TRIVIAL, Z
from ckinv.presented import GroupElement, GroupHom, PresentedGroup, \
    is_exact_at, quotient_by_elements

from oracles import columns_array, homology, i_minus_array, \
    is_exact_by_homology, minor_gcd_diagonal, object_array, \
    transform_coords, transforms_order


def z_mod(n):
    return PresentedGroup(1, [[n]])


def free(n):
    return PresentedGroup(n)


# -- canonical forms --------------------------------------------------------

def test_canonical_trivial():
    assert PresentedGroup(2, [[1, 0], [0, 1]]).canonical() == TRIVIAL
    assert PresentedGroup(0).canonical() == TRIVIAL


_HUGE_FREE_GROUP = """
import resource
import time
# 10**9 empty relation rows would take gigabytes; under this limit
# building them fails at once
resource.setrlimit(resource.RLIMIT_AS, (2 ** 29, 2 ** 29))
from ckinv.groups import FgAbGroup
from ckinv.presented import PresentedGroup
assert PresentedGroup(10 ** 9).canonical() == FgAbGroup(10 ** 9)
# with no relations the coordinates are the vector, all free: building
# the identity transform took 0.65 s and 146 MB at 4000 generators, and
# at 10**5 it would ask for tens of GB, so this runs under the limit too
start = time.perf_counter()
p = PresentedGroup(10 ** 5)
e1 = (1,) + (0,) * (10 ** 5 - 1)
assert p.canonical_coords(e1) == p.element(e1).canonical_coords() == (e1, ())
assert time.perf_counter() - start < 1
# a vector of 10**9 ints alone takes 8 GB, so coordinates are asked of
# 10**7 generators, whose identity transform would hold 10**14 entries
e1 = [1] + [0] * (10 ** 7 - 1)
assert PresentedGroup(10 ** 7).canonical_coords(e1) == (tuple(e1), ())
"""


def test_zero_rows_cost_no_unit_search():
    # a group with no relations is Z^generators with no rows built, and
    # the zero rows of a relation matrix take no part in the unit search:
    # searching every row took 1.5 s at 10**4 generators and 17 s at
    # 3 * 10**4 (2-core x86-64)
    start = time.perf_counter()
    assert PresentedGroup(10 ** 6).canonical() == FgAbGroup(10 ** 6)
    assert time.perf_counter() - start < 1
    start = time.perf_counter()
    p = PresentedGroup(10 ** 5)
    assert p.element([1] + [0] * (10 ** 5 - 1)).order() == 0
    assert time.perf_counter() - start < 1
    r = subprocess.run([sys.executable, "-c", _HUGE_FREE_GROUP],
                       capture_output=True, text=True, timeout=60)
    assert r.returncode == 0, r.stderr


def test_canonical_example_presentation():
    # Z^3 modulo the columns of I - A^hat for the 3x3 example matrix
    p = PresentedGroup(3, [[0, -1, -1], [0, 1, 0], [0, 1, 2]])
    assert p.canonical() == Z


def test_canonical_mixed_relations():
    # (Z + Z/2) / <(2,1)>: relation columns (0,2) and (2,1); the 2x2 minor
    # gcd is 4, so the quotient is Z/4
    assert minor_gcd_diagonal([[0, 2], [2, 1]]) == [1, 4]
    p = PresentedGroup(2, [[0, 2], [2, 1]])
    assert p.canonical() == FgAbGroup(0, (4,))


def test_canonical_invariance_under_presentation_changes():
    rng = random.Random(13)
    for _ in range(80):
        n = rng.randint(1, 5)
        k = rng.randint(0, 5)
        rel = np.array([[rng.randint(-4, 4) for _ in range(k)]
                        for _ in range(n)]).reshape(n, k)
        p = PresentedGroup(n, rel)
        base = p.canonical()
        # appending redundant columns (lattice combinations) changes nothing
        if k:
            coeffs = np.array([[rng.randint(-3, 3)] for _ in range(k)],
                              dtype=object)
            extra = object_array(rel) @ coeffs
            assert PresentedGroup(n, np.hstack(
                [object_array(rel), extra])).canonical() == base
        # unimodular change of generators changes nothing
        u = np.eye(n, dtype=object)
        for _ in range(4):
            i, j = rng.randrange(n), rng.randrange(n)
            if i != j:
                u[i, :] += rng.randint(-2, 2) * u[j, :]
        assert PresentedGroup(n, u @ object_array(rel)).canonical() \
            == base


def _group_from_transforms(rel) -> FgAbGroup:
    diag = intmat.smith_normal_form(rel).diagonal
    return FgAbGroup(rel.shape[0] - sum(1 for d in diag if d),
                     tuple(d for d in diag if d > 1))


def _big_unimodular(n: int, rng: random.Random) -> np.ndarray:
    # unit lower times unit upper triangular, off-diagonal entries near
    # 2**40, so the product has entries past 2**64
    lo, up = np.eye(n, dtype=object), np.eye(n, dtype=object)
    for i in range(n):
        for j in range(i):
            lo[i, j] = rng.randint(-2 ** 40, 2 ** 40)
            up[j, i] = rng.randint(-2 ** 40, 2 ** 40)
    return lo @ up


def _check_against_transforms(p: PresentedGroup) -> None:
    # canonical(), orders and equality read Smith diagonals; coordinates
    # still come from the transforms and must describe the same group
    g = p.canonical()
    assert g == _group_from_transforms(columns_array(p.relations,
                                                     p.generators))
    gens = [p.element([int(i == k) for i in range(p.generators)])
            for k in range(p.generators)]
    orders = [e.order() for e in gens]
    for e, order in zip(gens, orders):
        free, tors = e.canonical_coords()
        assert len(free) == g.free_rank
        assert len(tors) == len(g.invariant_factors)
        assert order == transforms_order(e)
    if g.free_rank == 0:  # the generators generate: lcm of orders = exponent
        assert lcm(*orders) == max(g.invariant_factors, default=1)
    for col in p.relations[:3]:
        assert p.element(col) == p.zero()


def test_canonical_on_swollen_relations():
    # the quotients ker(g)/im(f) of the five-term sequence, presented by
    # the homology oracle, their relations taken from Hermite kernel
    # transforms
    for n, density, seed in ((30, 0.3, 1), (36, 0.6, 2), (40, 0.3, 3),
                             (70, 0.3, 3)):
        seq = ck.five_term_sequence(ck.gen_random_irreducible(n, density,
                                                              seed))
        for f, g in zip(seq.maps, seq.maps[1:]):
            _check_against_transforms(homology(f, g))
    # the same, and small I - A^hat and I - A with torsion, under a change
    # of generators with entries past 2**64
    rng = random.Random(29)
    rels = []
    for a in (ck.gen_cuntz(5), ck.gen_amplified(3, 3), *(
            ck.gen_random_irreducible(n, 0.3, seed=n) for n in (4, 6, 9))):
        pres = ck.ext_strong_presentation(a)
        rels += [columns_array(pres.relations, a.n), ck.i_minus(a.entries)]
        seq = ck.five_term_sequence(a)
        for f, g in zip(seq.maps, seq.maps[1:]):
            h = homology(f, g)
            rels.append(columns_array(h.relations, h.generators))
    torsion = 0
    for rel in rels:
        rel = object_array(rel)
        swollen = _big_unimodular(rel.shape[0], rng) @ rel
        if rel.shape[0] > 1 and rel.size:
            assert max(abs(x) for x in swollen.flat) > 2 ** 64
        p = PresentedGroup(rel.shape[0], swollen)
        _check_against_transforms(p)
        assert p.canonical() == PresentedGroup(rel.shape[0], rel).canonical()
        torsion += bool(p.canonical().invariant_factors)
    assert torsion >= 3


def test_queries_in_a_trivial_group_cost_no_elimination(monkeypatch):
    # the 70-generator quotient ker(g)/im(f) at coker(I - A^hat) of the
    # n=70 sequence, presented by the homology oracle; its relations reach
    # 35 bits, and a Smith diagonal per query took 4 s for the orders of
    # all generators
    seq = ck.five_term_sequence(ck.gen_random_irreducible(70, 0.3, 3))
    p = homology(seq.maps[2], seq.maps[3])
    assert p.generators == 70 and p.canonical() == TRIVIAL
    calls = []
    diagonal = intmat.smith_diagonal
    monkeypatch.setattr(intmat, "smith_diagonal",
                        lambda m: calls.append(m.shape) or diagonal(m))
    gens = [p.element([int(i == k) for i in range(70)]) for k in range(70)]
    orders = [e.order() for e in gens]
    assert gens[0] == gens[1] and gens[2].is_zero()
    assert calls == []
    monkeypatch.undo()
    assert orders == [transforms_order(e) for e in gens] == [1] * 70


def test_element_arithmetic_on_swollen_relations_is_bounded():
    # I - A^hat at n=30 under a change of generators with entries past
    # 2**64: orders and equality cost a Smith diagonal each, where the
    # transforms Smith of these relations ran for minutes
    rng = random.Random(41)
    start = time.perf_counter()
    for density, seed, order in ((0.3, 1, 0), (0.04, 24, 17)):
        a = ck.gen_random_irreducible(30, density, seed)
        u = _big_unimodular(30, rng)
        p = PresentedGroup(30, u @ columns_array(
            ck.ext_strong_presentation(a).relations, 30))
        assert max(abs(x) for x in chain.from_iterable(p.relations)) > \
            2 ** 64
        iota = p.element(u @ i_minus_array(a.entries)[:, 0])
        assert iota.order() == ck.invariants(a).iota_one_order == order
        assert iota != p.zero()
        if order:
            assert order * iota == p.zero()
        for col in p.relations[:3]:
            assert p.element(col) == p.zero()
    assert time.perf_counter() - start < 10.0


# -- elements ---------------------------------------------------------------

def test_element_equality_is_congruence():
    p = z_mod(4)
    a, b, c = p.element([1]), p.element([5]), p.element([-3])
    assert a == b == c
    assert a != p.element([2])
    assert (a + a) == p.element([2])
    assert (a - b).is_zero()
    assert (-a) == p.element([3])
    assert 2 * a == p.element([2])
    assert a * np.int64(3) == p.element([3])
    for k in (2.7, 2.0, "2"):  # no silent truncation
        with pytest.raises(TypeError):
            a * k
        with pytest.raises(TypeError):
            k * a


def test_generator_count_is_read_by_index():
    # a float is refused at construction, not later by the first query
    for count in (1.5, 2.0, "2"):
        with pytest.raises(TypeError):
            PresentedGroup(count)
    p = PresentedGroup(np.int64(2), [[2], [0]])
    assert type(p.generators) is int and p.canonical() == FgAbGroup(1, (2,))


def test_element_equality_matches_canonical_coords():
    rng = random.Random(17)
    for _ in range(60):
        n = rng.randint(1, 4)
        k = rng.randint(0, 4)
        rel = np.array([[rng.randint(-4, 4) for _ in range(k)]
                        for _ in range(n)]).reshape(n, k)
        p = PresentedGroup(n, rel)
        x = p.element([rng.randint(-5, 5) for _ in range(n)])
        y = p.element([rng.randint(-5, 5) for _ in range(n)])
        assert (x == y) == (x.canonical_coords() == y.canonical_coords())
        assert x.order() == transforms_order(x)


def _check_coords(p: PresentedGroup, rng: random.Random) -> None:
    vectors = [[int(i == k) for i in range(p.generators)]
               for k in range(p.generators)]
    vectors += [[rng.randint(-9, 9) for _ in range(p.generators)],
                [1] * p.generators]
    for v in vectors:
        assert p.canonical_coords(v) == transform_coords(p, v), (p, v)


def test_canonical_coords_match_the_full_transform(corpus500):
    # u alone, with no v, gives the coordinates that the rows of u of
    # smith_normal_form gave: on both presentations of every corpus
    # matrix, and on random relation matrices of 1..6 rows and columns,
    # each also with a zero column inserted and with no relations
    rng = random.Random(28)
    for a in corpus500:
        _check_coords(ck.ext_strong_presentation(a), rng)
        _check_coords(ck.k0_pair(a)[0], rng)
    shapes = set()
    for rows in selftest.random_matrices(500, 28):
        at = rng.randint(0, len(rows[0]))
        padded = [r[:at] + [0] + r[at:] for r in rows]
        for m in (rows, padded):
            _check_coords(PresentedGroup(len(m), m), rng)
            shapes.add(len(m) == len(m[0]))
        _check_coords(PresentedGroup(len(rows)), rng)
    assert shapes == {True, False}


def test_cross_presentation_is_an_error():
    p, q = z_mod(2), z_mod(2)
    with pytest.raises(ValueError):
        p.element([1]) + q.element([1])
    with pytest.raises(ValueError):
        p.element([1]) == q.element([1])


def test_element_order():
    p = z_mod(6)
    assert p.element([1]).order() == 6
    assert p.element([2]).order() == 3
    assert p.element([3]).order() == 2
    assert p.zero().order() == 1
    assert free(1).element([1]).order() == 0
    mixed = PresentedGroup(2, [[0], [2]])  # Z + Z/2
    assert mixed.element([0, 1]).order() == 2
    assert mixed.element([1, 0]).order() == 0


@pytest.mark.parametrize("make,want", [
    (lambda: PresentedGroup(-1), "non-negative"),
    (lambda: PresentedGroup(2, [[1, 0]]), "must have 2 coordinates"),
    (lambda: GroupHom(free(1), free(2), [[1, 0]]), "must be 2 x 1"),
    (lambda: GroupHom(free(1), free(1), [[1]]).apply(free(1).zero()),
     "source group"),
    (lambda: GroupHom(z_mod(2), free(1), [[1]]).kernel(), "well-defined"),
    (lambda: z_mod(2).element([1]) == 3, False),
    (lambda: (3 * z_mod(6).element([1])).order(), 2),
], ids=["negative-generators", "relation-height", "hom-shape",
        "apply-foreign", "kernel-ill-defined", "eq-non-element", "rmul"])
def test_rarely_taken_paths(make, want):
    # misuse raises ValueError naming the fault; an element is never equal
    # to a non-element, and k * e is e * k
    if isinstance(want, str):
        with pytest.raises(ValueError, match=want):
            make()
    else:
        assert make() == want


# -- homs -------------------------------------------------------------------

def test_hom_well_defined_examples():
    p = z_mod(2)
    assert GroupHom(p, p, [[1]]).is_well_defined()
    assert GroupHom(free(1), p, [[1]]).is_well_defined()
    # Z/2 -> Z sending the generator to 1 is not a homomorphism
    assert not GroupHom(p, free(1), [[1]]).is_well_defined()


def test_hom_apply_and_compose():
    zz = free(1)
    z4 = z_mod(4)
    f = GroupHom(zz, zz, [[2]])
    g = GroupHom(zz, z4, [[1]])
    gf = g.compose(f)
    assert gf.apply(zz.element([1])) == z4.element([2])
    with pytest.raises(ValueError):
        f.compose(g)


def test_homs_into_a_group_of_no_generators():
    # a matrix with no rows states no width; it is taken as 0 x source
    for m in ([], (), np.zeros((0, 2), dtype=np.int64)):
        f = GroupHom(free(2), free(0), m)
        assert f._rows == [] and f.is_well_defined() and f.is_surjective()
        assert f.apply(f.source.element([3, -1])).coords == ()
        k, lift = f.kernel()
        assert k.canonical() == FgAbGroup(2) and len(lift) == 2
    with pytest.raises(ValueError, match="must be 0 x 2"):
        GroupHom(free(2), free(0), np.zeros((0, 3), dtype=np.int64))
    with pytest.raises(ValueError, match="must be 1 x 2"):
        GroupHom(free(2), free(1), [])
    # compositions into and out of a group of no generators
    z0, z2, z3, two = free(0), free(2), free(3), z_mod(2)
    into = GroupHom(z2, z0, []).compose(
        GroupHom(z3, z2, [[1, 0, 2], [0, 1, 1]]))
    assert (into.source, into.target, into._rows) == (z3, z0, [])
    out = GroupHom(z0, two, [[]]).compose(GroupHom(z2, z0, []))
    assert out._rows == [[0, 0]] and out.is_well_defined()
    assert GroupHom(free(0), free(0), [])._rows == []


def test_reprs_run_no_elimination(monkeypatch):
    # reprs print generator and relation counts, not canonical forms: the
    # repr of the side-200 strong extension group ran a Smith diagonal of
    # side 200 (0.5 s), and that of a five-term sequence several
    a = ck.gen_random_irreducible(60, 0.3, 7)
    p = ck.ext_strong_presentation(a)
    f = GroupHom(p, p, [[int(i == j) for j in range(60)] for i in range(60)])
    seq = ck.five_term_sequence(ck.gen_random_irreducible(60, 0.3, 8))
    for group in seq.groups:
        group.__dict__.pop("_canonical", None)  # as fresh as p
    calls = []
    for name in ("smith_diagonal", "_smith_rows", "_hermite"):
        kernel = getattr(intmat, name)
        monkeypatch.setattr(intmat, name, lambda *m, kernel=kernel, name=name:
                            calls.append(name) or kernel(*m))
    texts = [repr(p), repr(f), repr(seq)]
    assert calls == []
    assert texts[0] == "PresentedGroup(60 generators, 60 relations)"
    assert texts[1] == "GroupHom(60 -> 60 generators)"
    assert "GroupHom(1 -> 60 generators)" in texts[2]


def test_hom_kernel_examples():
    times2 = GroupHom(free(1), free(1), [[2]])
    k, _ = times2.kernel()
    assert k.canonical() == TRIVIAL
    quot = GroupHom(free(1), z_mod(2), [[1]])
    k, lift = quot.kernel()
    assert k.canonical() == Z
    assert lift in ([[2]], [[-2]])  # the kernel is 2Z inside Z
    # kernel of s on Ker(I-A) for the all-ones 2x2 is trivial: the kernel
    # itself is trivial since det(I-A) = -1
    ia = np.eye(2, dtype=np.int64) - np.ones((2, 2), dtype=np.int64)
    assert intmat.kernel_basis(ia) == []


def test_hom_image():
    f = GroupHom(free(1), z_mod(4), [[2]])
    img = f.image()
    assert img == [[2], [4]]
    assert intmat.cokernel_invariants(columns_array(img, 1)) == \
        FgAbGroup(0, (2,))


def test_injective_surjective():
    times2 = GroupHom(free(1), free(1), [[2]])
    assert times2.is_injective()
    assert not times2.is_surjective()
    quot = GroupHom(free(1), z_mod(2), [[1]])
    assert not quot.is_injective()
    assert quot.is_surjective()


def _random_matrix(rng, rows, cols):
    return object_array(np.array(
        [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)],
        dtype=object).reshape(rows, cols))


def _in_lattice(lattice, columns) -> bool:
    return all(intmat.lattice_contains(lattice, c) for c in columns.T)


def test_membership_matches_lattice_solve():
    # well-definedness and the g o f = 0 test of exactness compare
    # cokernels; the Hermite solve of each column is the oracle, and
    # ker(g)/im(f) presented outright that of exactness.  Odd rounds put
    # the images into the target lattice, so about half the homs are
    # well-defined.
    rng = random.Random(37)
    verdicts = {"hom": [], "composite": [], "exact": []}
    for round_ in range(200):
        na, nb, nc = (rng.randint(1, 5) for _ in range(3))
        a_rel = _random_matrix(rng, na, rng.randint(0, 4))
        fm = _random_matrix(rng, nb, na)
        b_rel = _random_matrix(rng, nb, rng.randint(0, 4))
        gm = _random_matrix(rng, nc, nb)
        c_rel = _random_matrix(rng, nc, rng.randint(0, 4))
        if round_ % 2:
            b_rel = np.hstack([fm @ a_rel, b_rel])
            c_rel = np.hstack([c_rel, gm @ fm])
        pa, pb, pc = (PresentedGroup(r.shape[0], r)
                      for r in (a_rel, b_rel, c_rel))
        f, g = GroupHom(pa, pb, fm), GroupHom(pb, pc, gm)
        well = f.is_well_defined()
        assert well == _in_lattice(b_rel, fm @ a_rel)
        verdicts["hom"].append(well)
        zero = pc._contains((gm @ fm).T.tolist())
        assert zero == _in_lattice(c_rel, gm @ fm)
        verdicts["composite"].append(zero)
        exact = is_exact_at(f, g)
        assert exact == is_exact_by_homology(f, g)
        assert zero or not exact
        verdicts["exact"].append(exact)
    for kind in ("hom", "composite"):
        assert 60 <= sum(verdicts[kind]) <= 140
    assert sum(verdicts["exact"]) >= 10


def test_membership_in_a_free_group_costs_no_elimination(monkeypatch):
    # with no relations the lattice is zero: membership is a zero test
    calls = []
    diagonal = intmat.smith_diagonal
    monkeypatch.setattr(intmat, "smith_diagonal",
                        lambda m: calls.append(m) or diagonal(m))
    p = free(3)
    assert p._contains([[0, 0, 0], [0, 0, 0]]) and p._contains([])
    assert not p._contains([[0, 0, 0], [0, 2, 0]])
    assert p.element([1, 0, 0]) != p.element([0, 1, 0])
    assert GroupHom(free(1), p, [[1], [2], [3]]).is_well_defined()
    assert calls == []


# -- exactness --------------------------------------------------------------

def test_exactness_examples():
    zz = free(1)
    times2 = GroupHom(zz, zz, [[2]])
    to_z2 = GroupHom(zz, z_mod(2), [[1]])
    to_z4 = GroupHom(zz, z_mod(4), [[1]])
    assert is_exact_at(times2, to_z2)
    assert not is_exact_at(times2, to_z4)


def test_exactness_requires_composability():
    f = GroupHom(free(1), free(2), [[1], [0]])
    g = GroupHom(free(1), free(1), [[1]])
    with pytest.raises(ValueError):
        is_exact_at(f, g)


def test_exactness_of_random_quotients():
    # span -> P -> P/span is exact at P by construction
    rng = random.Random(19)
    for _ in range(50):
        n = rng.randint(1, 4)
        p = free(n)
        m = rng.randint(0, 3)
        elems = [p.element([rng.randint(-3, 3) for _ in range(n)])
                 for _ in range(m)]
        span_matrix = columns_array([e.coords for e in elems], n)
        quotient = PresentedGroup(n, span_matrix)
        inclusion = GroupHom(free(m), p, span_matrix)
        projection = GroupHom(p, quotient, np.eye(n, dtype=object))
        assert is_exact_at(inclusion, projection)
        assert projection.is_surjective()


# -- quotients --------------------------------------------------------------

def test_quotient_examples():
    z = free(1)
    assert quotient_by_elements(z, [z.element([1])]) == TRIVIAL
    p = free(2)
    assert quotient_by_elements(p, [p.zero()]) == FgAbGroup(2)
    assert quotient_by_elements(p, [p.element([1, 0])]) == Z
    mixed = PresentedGroup(2, [[0], [2]])  # Z + Z/2
    assert quotient_by_elements(mixed, [mixed.element([2, 1])]) == \
        FgAbGroup(0, (4,))


def test_quotient_rejects_foreign_elements():
    p, q = free(2), free(2)
    with pytest.raises(ValueError):
        quotient_by_elements(p, [q.zero()])
