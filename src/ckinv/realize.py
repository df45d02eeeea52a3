"""Constructing 0-1 matrices that realize prescribed K-groups.

:func:`realize_k0` builds, for any target Z^r + Z/n_1 + ... + Z/n_k, an
irreducible non-permutation 0-1 matrix whose weak extension group is the
target and whose kernel has rank r.  The remaining operations are the
group-level calculus around the pair (K_0, unit class): cyclic quotients,
the predicted (weak, strong) extension pair, pair equivalence, and a
bounded search through the possible range of extension-group pairs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import intmat
from .ck import ZeroOneMatrix, i_minus, validate
from .groups import FgAbGroup, Z, canonical_from_cyclic
from .presented import GroupElement, PresentedGroup, quotient_by_elements


@dataclass(frozen=True)
class RealizationTarget:
    """Z^rank + sum of Z/factor; factors need not form a chain."""

    rank: int
    factors: tuple[int, ...] = ()

    def __post_init__(self):
        if self.rank < 0:
            raise ValueError("rank must be non-negative")
        object.__setattr__(self, "factors",
                           tuple(int(f) for f in self.factors))
        if any(f < 2 for f in self.factors):
            raise ValueError(f"torsion factors must be >= 2: {self.factors}")

    def group(self) -> FgAbGroup:
        return canonical_from_cyclic([0] * self.rank + list(self.factors))


class RealizationError(RuntimeError):
    """The constructed matrix failed its own verification (a bug)."""


# Largest matrix side realize_k0 builds.  At this side the construction
# and its verification take up to a second and 200 MB (measured on a
# 2-core x86-64 machine, Python 3.11); the side grows linearly in the
# factors, so larger targets are refused up front.
MAX_SIDE = 1000

# Largest number of candidates range_witness tries.  Each costs one small
# Smith diagonal, about 0.1 ms on the machine above, so a full search
# takes about 10 s; larger searches are refused up front.
MAX_CANDIDATES = 100_000


def realize_k0(target: RealizationTarget) -> ZeroOneMatrix:
    """Build a 0-1 matrix A with coker(I-A) = target and kernel rank = rank.

    The matrix has size rank + sum(1 + n_i) + 3: a block diagonal of an
    identity block and one all-ones block of size 1 + n_i per factor,
    bordered by three rows and columns that make the digraph strongly
    connected without disturbing the cokernel.  The claimed invariants
    are re-verified from the finished matrix before returning.  A target
    needing a side above :data:`MAX_SIDE` raises ``ValueError`` before
    anything is allocated.
    """
    r, factors = target.rank, target.factors
    s = r + sum(1 + n for n in factors)
    size = s + 3
    if size > MAX_SIDE:
        raise ValueError(f"the target needs a {size} x {size} matrix; "
                         f"realize builds at most {MAX_SIDE} x {MAX_SIDE}")
    a = np.zeros((size, size), dtype=np.int64)
    for i in range(r):
        a[i, i] = 1
    pos = r
    for n in factors:
        a[pos:pos + 1 + n, pos:pos + 1 + n] = 1
        pos += 1 + n
    a[:s, s + 2] = 1                      # each block row ends with 0 0 1
    a[s, :s] = 1                          # [1 ... 1 | 0 0 1]
    a[s, s + 2] = 1
    a[s + 1, s + 1] = 1                   # [0 ... 0 | 0 1 1]
    a[s + 1, s + 2] = 1
    a[s + 2, s:] = 1                      # [0 ... 0 | 1 1 1]

    matrix = validate(a)
    got = intmat.cokernel_invariants(i_minus(matrix.entries))
    want = target.group()
    if got != want:
        raise RealizationError(
            f"constructed matrix realizes {got}, wanted {want}")
    return matrix


def quotient_by_cyclic(g: PresentedGroup, e: GroupElement) -> FgAbGroup:
    """Canonical form of G modulo the cyclic subgroup generated by e."""
    return quotient_by_elements(g, [e])


def pair_equivalent(g: PresentedGroup, d: GroupElement,
                    h: PresentedGroup, e: GroupElement) -> bool:
    """Whether (G, d) and (H, e) agree as group-with-element data.

    Decided by the quotient criterion: the groups must be isomorphic and
    so must their quotients by the chosen elements.
    """
    if d.group is not g or e.group is not h:
        raise ValueError("element does not belong to its presentation")
    return (g.canonical() == h.canonical()
            and quotient_by_cyclic(g, d) == quotient_by_cyclic(h, e))


def ext_pair_from_k0_pair(g: PresentedGroup,
                          d: GroupElement) -> tuple[FgAbGroup, FgAbGroup]:
    """Predicted (weak, strong) extension pair of an algebra with K_0 data.

    From (K_0, unit class) = (G, d) the pair is (G, Z + G/Zd).
    """
    if d.group is not g:
        raise ValueError("element does not belong to its presentation")
    return g.canonical(), Z.direct_sum(quotient_by_cyclic(g, d))


def free_plus_presentation(m: FgAbGroup) -> PresentedGroup:
    """Presentation of Z + M: one free generator ahead of M's generators."""
    gens = 1 + m.free_rank + len(m.invariant_factors)
    rel = intmat.zeros(gens, len(m.invariant_factors))
    for j, d in enumerate(m.invariant_factors):
        rel[1 + m.free_rank + j, j] = d
    return PresentedGroup(gens, rel)


def range_witness(g: FgAbGroup, m: FgAbGroup,
                  bound: int) -> GroupElement | None:
    """Search for e in Z + M with (Z + M)/Ze isomorphic to G.

    Free coordinates run over 0, 1, ..., bound, -1, ..., -bound and
    torsion coordinates are exhausted completely, in lexicographic order,
    so the first (hence returned) witness is deterministic.  ``None``
    means no witness within the bound, which is *not* a proof that none
    exists.  A search of more than :data:`MAX_CANDIDATES` candidates,
    (2 bound + 1)^(1 + rank M) times the order of the torsion of M,
    raises ``ValueError`` before the first one is tried.
    """
    if bound < 1:
        raise ValueError("bound must be positive")
    sizes = [2 * bound + 1] * (1 + m.free_rank) + list(m.invariant_factors)
    if math.prod(sizes) > MAX_CANDIDATES:
        raise ValueError(f"the search has more than {MAX_CANDIDATES} "
                         "candidates; lower the bound")
    presentation = free_plus_presentation(m)
    free_seq = list(range(bound + 1)) + [-x for x in range(1, bound + 1)]
    axes = [free_seq] * (1 + m.free_rank)
    axes += [range(d) for d in m.invariant_factors]
    for coords in itertools.product(*axes):
        e = presentation.element(coords)
        if quotient_by_cyclic(presentation, e) == g:
            return e
    return None
