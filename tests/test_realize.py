import itertools
import random
import time
from math import prod

import numpy as np
import pytest

from ckinv import ck, intmat, realize
from ckinv.groups import FgAbGroup, TRIVIAL, Z, canonical_from_cyclic
from ckinv.presented import PresentedGroup, quotient_by_elements
from ckinv.realize import RealizationTarget
from oracles import range_quotients, range_search


# -- the block construction -------------------------------------------------

def test_realize_smallest_torsion_target():
    m = realize.realize_k0(RealizationTarget(0, (2,)))
    assert m.n == 6
    expected = np.array([
        [1, 1, 1, 0, 0, 1],
        [1, 1, 1, 0, 0, 1],
        [1, 1, 1, 0, 0, 1],
        [1, 1, 1, 0, 0, 1],
        [0, 0, 0, 0, 1, 1],
        [0, 0, 0, 1, 1, 1],
    ])
    assert (m.entries == expected).all()
    assert intmat.cokernel_invariants(ck.i_minus(m.entries)) == \
        FgAbGroup(0, (2,))
    assert intmat.kernel_basis(ck.i_minus(m.entries)) == []


def test_realize_free_target():
    m = realize.realize_k0(RealizationTarget(1, ()))
    assert m.n == 4
    assert intmat.cokernel_invariants(ck.i_minus(m.entries)) == Z
    assert len(intmat.kernel_basis(ck.i_minus(m.entries))) == 1


def test_realize_two_factor_target():
    m = realize.realize_k0(RealizationTarget(0, (2, 4)))
    assert m.n == 11
    assert intmat.cokernel_invariants(ck.i_minus(m.entries)) == \
        FgAbGroup(0, (2, 4))


def test_realize_trivial_target():
    m = realize.realize_k0(RealizationTarget(0, ()))
    assert m.n == 3
    assert intmat.cokernel_invariants(ck.i_minus(m.entries)) == TRIVIAL


def test_realize_factors_need_not_chain():
    m = realize.realize_k0(RealizationTarget(0, (4, 6)))
    assert intmat.cokernel_invariants(ck.i_minus(m.entries)) == \
        canonical_from_cyclic([4, 6])


def test_realize_roundtrip_random():
    rng = random.Random(47)
    for _ in range(60):
        t = RealizationTarget(
            rng.randint(0, 3),
            tuple(rng.randint(2, 12) for _ in range(rng.randint(0, 3))))
        m = realize.realize_k0(t)
        r = ck.invariants(m)
        assert r.ext_w1 == t.group()
        assert r.k1 == FgAbGroup(t.rank)


def test_a_realized_matrix_eliminates_i_minus_a_once(monkeypatch):
    # realize_k0 checks coker(I - A) through the groups the matrix keeps,
    # so the report on its output runs I - A^hat and the three
    # cross-checks, and not I - A again
    shapes = []
    diagonal = intmat.smith_diagonal
    monkeypatch.setattr(intmat, "smith_diagonal", lambda m: (
        shapes.append((len(m), len(m[0]))) or diagonal(m)))
    m = realize.realize_k0(RealizationTarget(1, (3, 4)))
    n = m.n
    assert shapes == [(n, n)]
    r = ck.invariants(m)
    assert r.ext_w1 == canonical_from_cyclic([0, 3, 4])
    assert sorted(shapes) == [(n, n)] * 3 + [(n, n + 1), (n + 1, n)]


def test_realize_refuses_sides_past_the_cap(monkeypatch):
    assert realize.realize_k0(
        RealizationTarget(realize.MAX_SIDE - 3)).n == realize.MAX_SIDE

    def no_allocation(*args, **kwargs):
        raise AssertionError("allocated a matrix for a refused target")

    monkeypatch.setattr(realize, "_square", no_allocation)
    for target in (RealizationTarget(realize.MAX_SIDE - 2),
                   RealizationTarget(0, (10 ** 6,)),
                   RealizationTarget(1, (2, 10 ** 30))):
        with pytest.raises(ValueError, match="at most"):
            realize.realize_k0(target)


def test_realize_rejects_bad_targets():
    with pytest.raises(ValueError):
        RealizationTarget(-1, ())
    with pytest.raises(ValueError):
        RealizationTarget(0, (1,))
    # a non-integer is refused at once, not truncated
    for rank, factors in ((1.5, ()), (0, (2.9,)), (0, (2, 4.0)), ("1", ())):
        with pytest.raises(TypeError):
            RealizationTarget(rank, factors)
    t = RealizationTarget(np.int64(1), (np.int8(2),))
    assert (t.rank, t.factors) == (1, (2,))
    assert {type(t.rank), *map(type, t.factors)} == {int}


# -- quotients and pairs ----------------------------------------------------

def test_pair_equivalent_examples():
    zp = PresentedGroup(1)
    assert realize.pair_equivalent(zp, zp.element([1]), zp,
                                   zp.element([-1]))
    assert not realize.pair_equivalent(zp, zp.element([1]), zp,
                                       zp.element([2]))


def test_pair_equivalent_distinguishes_example_pair():
    a = ck.validate([[1, 1, 1], [1, 1, 1], [1, 0, 0]])
    b = a.transpose()
    ga, da = ck.k0_pair(a)
    gb, db = ck.k0_pair(b)
    assert not realize.pair_equivalent(ga, da, gb, db)


def test_pair_equivalent_is_an_equivalence():
    rng = random.Random(53)
    pairs = []
    for _ in range(12):
        n = rng.randint(1, 3)
        k = rng.randint(0, 3)
        rel = np.array([[rng.randint(-3, 3) for _ in range(k)]
                        for _ in range(n)]).reshape(n, k)
        p = PresentedGroup(n, rel)
        pairs.append((p, p.element([rng.randint(-3, 3)
                                    for _ in range(n)])))
    for g, d in pairs:
        assert realize.pair_equivalent(g, d, g, d)
    for (g, d), (h, e) in itertools.combinations(pairs, 2):
        assert realize.pair_equivalent(g, d, h, e) == \
            realize.pair_equivalent(h, e, g, d)
    for trio in itertools.combinations(pairs, 3):
        (g, d), (h, e), (k_, f) = trio
        if realize.pair_equivalent(g, d, h, e) and \
                realize.pair_equivalent(h, e, k_, f):
            assert realize.pair_equivalent(g, d, k_, f)


def test_pair_equivalent_rejects_foreign_elements():
    p, q = PresentedGroup(1), PresentedGroup(1)
    with pytest.raises(ValueError):
        realize.pair_equivalent(p, q.element([1]), q, q.element([1]))


@pytest.mark.parametrize("call,match", [
    (lambda: realize.ext_pair_from_k0_pair(PresentedGroup(1),
                                           PresentedGroup(1).zero()),
     "does not belong"),
], ids=["ext-pair-foreign"])
def test_misuse_raises_value_error(call, match):
    with pytest.raises(ValueError, match=match):
        call()


# -- predicted extension pairs ----------------------------------------------

def test_ext_pair_trivial_class():
    z2p = PresentedGroup(1, [[2]])
    assert realize.ext_pair_from_k0_pair(z2p, z2p.zero()) == \
        (FgAbGroup(0, (2,)), FgAbGroup(1, (2,)))


def test_ext_pair_example_matrices():
    a = ck.validate([[1, 1, 1], [1, 1, 1], [1, 0, 0]])
    b = a.transpose()
    assert realize.ext_pair_from_k0_pair(*ck.k0_pair(a)) == \
        (FgAbGroup(0, (2,)), Z)
    assert realize.ext_pair_from_k0_pair(*ck.k0_pair(b)) == \
        (FgAbGroup(0, (2,)), FgAbGroup(1, (2,)))


def test_ext_pair_matches_reports(corpus500, reports500):
    for a, r in zip(corpus500, reports500):
        assert realize.ext_pair_from_k0_pair(*ck.k0_pair(a)) == \
            (r.ext_w1, r.ext_s1)


# -- the range of (ExtW1, ExtS1) -------------------------------------------

def test_range_witness_z2_from_z():
    w = realize.range_witness(FgAbGroup(0, (2,)), TRIVIAL)
    assert w is not None
    assert tuple(w.coords) == (2,)


def test_range_witness_z_from_z_plus_z():
    w = realize.range_witness(Z, Z)
    assert w is not None
    assert tuple(w.coords) == (0, 1)


def test_range_witness_none_within_bound():
    # (Z + Z/2)/<e> is Z/3 for no e, since 2 does not divide 3, so None
    # is a proof; the old search finds nothing within its bound either
    assert realize.range_witness(canonical_from_cyclic([3]),
                                 FgAbGroup(0, (2,))) is None
    assert range_search(canonical_from_cyclic([3]), FgAbGroup(0, (2,)),
                        3) is None


def test_range_witness_soundness():
    rng = random.Random(59)
    found = 0
    for _ in range(40):
        m = canonical_from_cyclic(
            [rng.randint(0, 6) for _ in range(rng.randint(0, 2))])
        g = canonical_from_cyclic(
            [rng.randint(0, 6) for _ in range(rng.randint(0, 2))])
        w = realize.range_witness(g, m)
        if w is not None:
            found += 1
            assert quotient_by_elements(w.group, [w]) == g
    assert found > 5


def _chains(limit: int) -> list[tuple[int, ...]]:
    """Every chain of invariant factors whose product is at most limit."""
    out, stack = [], [()]
    while stack:
        chain = stack.pop()
        out.append(chain)
        order = prod(chain)
        stack.extend(chain + (d,) for d in range(chain[-1] if chain else 2,
                                                 limit // order + 1)
                     if not chain or d % chain[-1] == 0)
    return out


def test_range_witness_matches_the_bounded_search():
    # every pair with |T| <= 64, rank M <= 2 and rank G <= 3: each witness
    # gives G; and where the old search at bound 5 is affordable (at most
    # 11^3 candidates), range_witness finds one for each G it reaches
    chains = _chains(64)
    assert len(chains) == 117
    gs = [FgAbGroup(r, c) for r in range(4) for c in chains]
    found = 0
    for m in (FgAbGroup(r, c) for r in range(3) for c in chains):
        witnessed = set()
        for g in gs:
            w = realize.range_witness(g, m)
            if w is not None:
                assert w.group.canonical() == Z.direct_sum(m)
                assert quotient_by_elements(w.group, [w]) == g, (g, m)
                witnessed.add(g)
        found += len(witnessed)
        if 11 ** (1 + m.free_rank) * m.torsion.order <= 11 ** 3:
            for g in range_quotients(m, 5) - witnessed:
                assert realize.range_witness(g, m) is not None, (g, m)
    assert found == 3246
    # Z/6 ... Z/11 lie past bound 5 from Z, and e = n reaches them
    for n in range(6, 12):
        g = canonical_from_cyclic([n])
        assert range_search(g, TRIVIAL, 5) is None
        assert tuple(realize.range_witness(g, TRIVIAL).coords) == (n,)
    assert tuple(range_search(canonical_from_cyclic([5]), TRIVIAL,
                              5).coords) == (5,)


def test_range_witness_refuses_a_huge_search(monkeypatch):
    # no search is left to refuse: the rule decides at once, with nothing
    # allocated per free summand
    start = time.perf_counter()
    assert tuple(realize.range_witness(Z, Z).coords) == (0, 1)
    for m in (FgAbGroup(3, (2, 10 ** 20)), FgAbGroup(10 ** 6)):
        assert realize.range_witness(Z, m) is None
    assert time.perf_counter() - start < 1
    # a witness presentation above MAX_SIDE generators is refused before
    # anything is built
    def no_presentation(*args):
        raise AssertionError("built a presentation for a refused witness")

    monkeypatch.setattr(realize, "PresentedGroup", no_presentation)
    big = FgAbGroup(realize.MAX_SIDE)
    with pytest.raises(ValueError, match="at most"):
        realize.range_witness(big, big)
    monkeypatch.undo()
    below = FgAbGroup(realize.MAX_SIDE - 1)
    assert realize.range_witness(below, below).group.generators == \
        realize.MAX_SIDE


def test_range_witness_realized_pairs(reports500):
    # every actual (ExtW1, ExtS1) pair admits a witness: ExtS1 = Z + M and
    # ExtW1 is a cyclic quotient of it
    seen = set()
    for r in reports500:
        key = (r.ext_w1, r.ext_s1)
        if key in seen:
            continue
        seen.add(key)
        m = FgAbGroup(r.ext_s1.free_rank - 1, r.ext_s1.invariant_factors)
        w = realize.range_witness(r.ext_w1, m)
        assert w is not None, key
        assert quotient_by_elements(w.group, [w]) == r.ext_w1, key
    assert len(seen) >= 10
