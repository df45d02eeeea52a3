import doctest
import random
import subprocess
import sys
import time
from math import gcd

import numpy as np
import pytest

import ckinv.groups
from ckinv.groups import FgAbGroup, TRIVIAL, Z, Z2, canonical_from_cyclic
from ckinv.realize import RealizationTarget

from oracles import all_pairs_chain, front_insert_chain, \
    kronecker_tensor_sum, listed_direct_sum, listed_ext1, listed_hom, \
    listed_tensor, listed_tor, minor_gcd_diagonal


def test_doctests():
    failures, _ = doctest.testmod(ckinv.groups)
    assert failures == 0


def test_canonical_from_cyclic_examples():
    assert canonical_from_cyclic([0, 0]) == FgAbGroup(2)
    assert canonical_from_cyclic([2, 4]).invariant_factors == (2, 4)
    # oracle: SNF of diag(2,3) has diagonal (1, 6)
    assert minor_gcd_diagonal([[2, 0], [0, 3]]) == [1, 6]
    assert canonical_from_cyclic([2, 3]) == FgAbGroup(0, (6,))


def test_canonical_rejects_bad_input():
    with pytest.raises(ValueError):
        canonical_from_cyclic([-2])
    with pytest.raises(ValueError):
        FgAbGroup(-1)
    with pytest.raises(ValueError):
        FgAbGroup(0, (1,))
    with pytest.raises(ValueError):
        FgAbGroup(0, (4, 2))


def test_non_integers_raise_rather_than_truncate():
    # floats were truncated: 2.5 read as 2, 4.9 as 4, 1.5 kept as a rank
    for make in (lambda: canonical_from_cyclic([2.5, 0.0]),
                 lambda: canonical_from_cyclic([0.0]),
                 lambda: FgAbGroup(0, (4.9,)),
                 lambda: FgAbGroup(1.5),
                 lambda: FgAbGroup.from_json({"rank": 1.5, "torsion": []}),
                 lambda: FgAbGroup.from_json({"rank": 0, "torsion": [4.9]}),
                 lambda: FgAbGroup.from_json({"rank": "1", "torsion": []})):
        with pytest.raises(TypeError):
            make()
    # integers of any kind, numpy ones included, are read as Python ints
    g = FgAbGroup(np.int64(1), (np.int32(2), np.uint8(4)))
    assert g == FgAbGroup(1, (2, 4)) == canonical_from_cyclic(
        np.array([0, 4, 2]))
    assert type(g.free_rank) is int
    assert {type(d) for d in g.invariant_factors} == {int}
    assert str(g) == "Z^1 + Z/2 + Z/4"


def test_canonical_matches_smith_oracle_on_random_moduli():
    rng = random.Random(11)
    for _ in range(200):
        mods = [rng.randint(0, 12) for _ in range(rng.randint(0, 5))]
        g = canonical_from_cyclic(mods)
        diag = minor_gcd_diagonal(
            [[mods[i] if i == j else 0 for j in range(len(mods))]
             for i in range(len(mods))]) if mods else []
        free = sum(1 for d in diag if d == 0)
        torsion = tuple(d for d in diag if d > 1)
        assert g == FgAbGroup(free, torsion), mods


def test_chain_matches_the_all_pairs_pass():
    # the chain built by insertion equals the all-pairs gcd/lcm pass entry
    # for entry, 1s in front included, on runs of equal moduli and on
    # moduli past 64 bits too
    rng = random.Random(2027)
    pool = [1, 2, 3, 4, 5, 6, 8, 9, 12, 30, 49, 2 ** 70, 3 ** 45, 6 ** 30]
    for _ in range(20_000):
        mods = [rng.choice(pool) for _ in range(rng.randint(0, 14))]
        chain = list(mods)
        assert ckinv.groups._chain(chain) is chain
        assert chain == all_pairs_chain(list(mods)), mods


def test_chain_matches_the_front_insertion_it_replaced():
    # the counted chain against the listed one, entry for entry, on runs
    # of equal moduli, interleaved chains, shuffled moduli and moduli past
    # 64 bits, at lengths the all-pairs pass is too slow for
    rng = random.Random(2611)
    pool = [1, 2, 3, 4, 5, 6, 8, 9, 12, 30, 49, 2 ** 70, 3 ** 45, 6 ** 30]
    cases = [[2, 4] * 300, [4, 6, 6] * 200, [2, 4, 8, 16] * 150,
             [2 ** i for i in range(1, 80)] * 8, [6, 10, 15, 7] * 150]
    for _ in range(300):
        run = [rng.choice(pool) for _ in range(rng.randint(1, 6))]
        mods = run * rng.randint(1, 60) + \
            [rng.choice(pool) for _ in range(rng.randint(0, 60))]
        cases += [mods, rng.sample(mods, len(mods))]
    for mods in cases:
        chain = list(mods)
        assert ckinv.groups._chain(chain) is chain
        assert chain == front_insert_chain(list(mods)), mods


def test_many_cyclic_summands_take_time_linear_in_their_count():
    # the all-pairs pass takes about 50 s on 20 000 moduli; inserting each
    # into the listed chain took 1.1 s on 80 000 equal ones and over 120 s
    # on 10**6, and inserting past equal entries still took 11 s on
    # 4 * 10**5 interleaved ones; counting the distinct entries takes
    # about 0.7 s on 10**6 of either (2-core x86-64)
    for run, copies, budget in (([2], 20_000, 2), ([2], 10 ** 6, 10),
                                ([2, 4, 8, 16], 250_000, 10)):
        start = time.perf_counter()
        g = canonical_from_cyclic(run * copies)
        assert time.perf_counter() - start < budget
        assert g == FgAbGroup(0, tuple(d for d in run for _ in range(copies)))


_HUGE_TENSOR_SUMS = """
import resource
# 10**9 moduli would take 8 GB; under this limit listing them fails at once
resource.setrlimit(resource.RLIMIT_AS, (2 ** 29, 2 ** 29))
from ckinv.groups import FgAbGroup, Z2
huge = FgAbGroup(10 ** 9)
for call in (lambda: huge.tensor(Z2), lambda: huge.hom(Z2),
             lambda: Z2.ext1(huge), lambda: Z2.tensor(huge)):
    try:
        call()
    except ValueError as e:
        print(e)
    else:
        raise SystemExit("listed")
"""


def test_a_tensor_sum_past_the_cap_is_refused_before_listing():
    # the moduli are counted first: one past the cap is refused, the cap
    # itself is listed, and free summands are never listed at all
    cap = ckinv.groups.MAX_TENSOR_MODULI
    assert cap >= 3 * 330 ** 2  # the pi groups of a report of side 330
    for call in (lambda: FgAbGroup(cap + 1).tensor(Z2),
                 lambda: FgAbGroup(cap + 1).hom(Z2),
                 lambda: Z2.ext1(FgAbGroup(cap + 1))):
        with pytest.raises(ValueError, match=f"{cap + 1} torsion moduli"):
            call()
    assert FgAbGroup(cap).tensor(Z2) == FgAbGroup(0, (2,) * cap)
    assert FgAbGroup(10 ** 9).tensor(FgAbGroup(10 ** 9)) == \
        FgAbGroup(10 ** 18)
    # 10**9 moduli only in a child process whose address space cannot
    # hold them, so a missing refusal fails fast instead of allocating
    r = subprocess.run([sys.executable, "-c", _HUGE_TENSOR_SUMS],
                       capture_output=True, text=True, timeout=60)
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines() == \
        [f"{10 ** 9} torsion moduli exceed the cap of {cap}"] * 4


def test_a_direct_sum_of_long_torsion_parts_is_built():
    # G + H = G x Z + H x Z copies each torsion part once, no more than
    # the inputs hold, so those moduli are not counted against the cap;
    # Z^2 x G lists two copies of G's, and those are
    g = FgAbGroup(0, (2,) * 600_000)
    assert g.direct_sum(g) == FgAbGroup(0, (2,) * 1_200_000)
    assert Z.direct_sum(g) == FgAbGroup(1, g.invariant_factors)
    with pytest.raises(ValueError, match="1200000 torsion moduli"):
        FgAbGroup(2).tensor(g)


def test_direct_sum_examples():
    g = FgAbGroup(1, (2,))
    assert g.direct_sum(TRIVIAL) == g
    assert Z2.direct_sum(Z2) == FgAbGroup(0, (2, 2))
    assert Z2.direct_sum(canonical_from_cyclic([3])) == FgAbGroup(0, (6,))


def test_tensor_examples():
    g = FgAbGroup(2, (2, 6))
    assert Z.tensor(g) == g
    assert Z2.tensor(canonical_from_cyclic([4])) == Z2
    # (Z + Z/2) tensor Z/2 = Z/2 + Z/2
    assert FgAbGroup(1, (2,)).tensor(Z2) == FgAbGroup(0, (2, 2))


def test_tor_examples():
    assert Z.tor(FgAbGroup(1, (2, 4))) == TRIVIAL
    assert canonical_from_cyclic([4]).tor(canonical_from_cyclic([6])) == Z2
    assert FgAbGroup(1, (2,)).tor(Z2) == Z2


def test_hom_examples():
    g = FgAbGroup(1, (2, 4))
    assert Z.hom(g) == g
    assert canonical_from_cyclic([6]).hom(Z) == TRIVIAL
    assert canonical_from_cyclic([4]).hom(canonical_from_cyclic([6])) == Z2


def test_ext_examples():
    assert Z.ext1(FgAbGroup(1, (2, 4))) == TRIVIAL
    assert canonical_from_cyclic([6]).ext1(Z) == canonical_from_cyclic([6])
    assert canonical_from_cyclic([4]).ext1(canonical_from_cyclic([6])) == Z2


def test_is_isomorphic_via_equality():
    assert FgAbGroup(2) == FgAbGroup(2)
    assert FgAbGroup(0, (2, 2)) != FgAbGroup(0, (4,))
    assert canonical_from_cyclic([2, 3]) == FgAbGroup(0, (6,))


def _random_group(rng):
    return canonical_from_cyclic(
        [rng.randint(0, 10) for _ in range(rng.randint(0, 4))])


def test_sum_and_tensor_laws():
    rng = random.Random(23)
    for _ in range(100):
        a, b, c = (_random_group(rng) for _ in range(3))
        assert a.direct_sum(b) == b.direct_sum(a)
        assert a.direct_sum(b).direct_sum(c) == a.direct_sum(
            b.direct_sum(c))
        assert a.tensor(b) == b.tensor(a)
        assert a.tensor(b).tensor(c) == a.tensor(b.tensor(c))
        assert Z.tensor(a) == a
        assert TRIVIAL.direct_sum(a) == a
        assert a.tor(b) == b.tor(a)
        assert a.tor(FgAbGroup(rng.randint(0, 3))) == TRIVIAL


def test_universal_coefficients_shape():
    # Ext1(G, Z) is the torsion of G; Hom(G, Z) is Z^rank(G)
    rng = random.Random(29)
    for _ in range(100):
        g = _random_group(rng)
        assert g.ext1(Z) == g.torsion
        assert g.hom(Z) == FgAbGroup(g.free_rank)


def test_tensor_gcd_against_brute_force():
    # |Z/a tensor Z/b| = gcd(a, b); check orders multiply out correctly
    rng = random.Random(31)
    for _ in range(100):
        a, b = rng.randint(2, 30), rng.randint(2, 30)
        t = canonical_from_cyclic([a]).tensor(canonical_from_cyclic([b]))
        assert t.order == gcd(a, b)


def test_render():
    assert str(TRIVIAL) == "0"
    assert str(FgAbGroup(2)) == "Z^2"
    assert str(FgAbGroup(1, (2,))) == "Z^1 + Z/2"
    assert str(FgAbGroup(0, (2, 2))) == "Z/2 + Z/2"
    assert str(FgAbGroup(0, (2, 6))) == "Z/2 + Z/6"


def test_json_roundtrip():
    for g in (TRIVIAL, Z, FgAbGroup(3, (2, 4, 8))):
        assert FgAbGroup.from_json(g.to_json()) == g


def test_functors_match_the_listed_and_kronecker_oracles():
    # each functor is one sum of tensor products: against its hand-split
    # listed body, and against the Kronecker presentation of that sum
    rng = random.Random(2404)
    for _ in range(300):
        g, h = (canonical_from_cyclic(
            [0] * rng.randint(0, 3)
            + [rng.randint(2, 30) for _ in range(rng.randint(0, 3))])
            for _ in range(2))
        tg, th = g.torsion, h.torsion
        assert g.tensor(h) == listed_tensor(g, h) \
            == kronecker_tensor_sum((g, h)), (g, h)
        assert g.tor(h) == listed_tor(g, h) \
            == kronecker_tensor_sum((tg, th)), (g, h)
        assert g.hom(h) == listed_hom(g, h) \
            == kronecker_tensor_sum((FgAbGroup(g.free_rank), h), (tg, th))
        assert g.ext1(h) == listed_ext1(g, h) \
            == kronecker_tensor_sum((tg, h)), (g, h)
        assert g.direct_sum(h) == listed_direct_sum(g, h) \
            == kronecker_tensor_sum((g, Z), (h, Z)), (g, h)


def test_free_summands_are_counted_not_listed():
    # the listed forms built one 0 modulus per free summand: 16 M of them
    # for a tensor product of two groups of free rank 4000, 0.86 s (2-core
    # x86-64), and 10**18 for free rank 10**9
    for make, expected in (
            (lambda: FgAbGroup(4000).tensor(FgAbGroup(4000)), 16_000_000),
            (lambda: FgAbGroup(4000).hom(FgAbGroup(4000)), 16_000_000),
            (lambda: RealizationTarget(10**7).group(), 10**7)):
        start = time.perf_counter()
        g = make()
        assert time.perf_counter() - start < 0.05
        assert g == FgAbGroup(expected)
    assert FgAbGroup(10**9).tensor(FgAbGroup(10**9)) == FgAbGroup(10**18)
