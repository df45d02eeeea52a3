"""Constructing 0-1 matrices that realize prescribed K-groups.

:func:`realize_k0` builds, for any target Z^r + Z/n_1 + ... + Z/n_k, an
irreducible non-permutation 0-1 matrix whose weak extension group is the
target and whose kernel has rank r.  The remaining operations are the
group-level calculus around the pair (K_0, unit class): the predicted
(weak, strong) extension pair, pair equivalence, and an exact decision of
the range of extension-group pairs, with a witness for each pair in it.
"""

from __future__ import annotations

import operator

from .ck import MAX_SIDE, VerificationError, ZeroOneMatrix, _square, \
    validate
from .groups import FgAbGroup, Z, _Frozen, canonical_from_cyclic
from .presented import GroupElement, PresentedGroup, quotient_by_elements


class RealizationTarget(_Frozen):
    """Z^rank + sum of Z/factor (integers); factors need not form a chain."""

    _fields = ("rank", "factors")

    def __init__(self, rank: int, factors: tuple[int, ...] = ()) -> None:
        rank = operator.index(rank)
        if rank < 0:
            raise ValueError("rank must be non-negative")
        factors = tuple(map(operator.index, factors))
        if factors and min(factors) < 2:
            raise ValueError(f"torsion factors must be >= 2: {factors}")
        self._set(rank, factors)

    def group(self) -> FgAbGroup:
        return FgAbGroup(self.rank,
                         canonical_from_cyclic(self.factors).invariant_factors)


class RealizationError(VerificationError):
    """The constructed matrix failed its own verification (a bug); the
    CLI ends it in exit 3 like every :class:`VerificationError`."""


def realize_k0(target: RealizationTarget) -> ZeroOneMatrix:
    """Build a 0-1 matrix A with coker(I-A) = target and kernel rank = rank.

    The matrix has size rank + sum(1 + n_i) + 3: a block diagonal of an
    identity block and one all-ones block of size 1 + n_i per factor,
    bordered by three rows and columns that make the digraph strongly
    connected without disturbing the cokernel.  The claimed invariants
    are re-verified from the finished matrix before returning.  A target
    needing a side above :data:`MAX_SIDE` raises ``ValueError`` before
    anything is allocated; the side grows linearly in the factors.
    """
    r, factors = target.rank, target.factors
    s = r + sum(1 + n for n in factors)
    size = s + 3
    if size > MAX_SIDE:
        raise ValueError(f"the target needs a {size} x {size} matrix; "
                         f"realize builds at most {MAX_SIDE} x {MAX_SIDE}")
    a = _square(size, 0)
    for i in range(r):
        a[i][i] = 1
    pos = r
    for n in factors:
        for row in a[pos:pos + 1 + n]:
            row[pos:pos + 1 + n] = [1] * (1 + n)
        pos += 1 + n
    for row in a[:s]:
        row[s + 2] = 1                    # each block row ends with 0 0 1
    a[s][:s] = [1] * s                    # [1 ... 1 | 0 0 1]
    a[s][s + 2] = 1
    a[s + 1][s + 1:] = [1, 1]             # [0 ... 0 | 0 1 1]
    a[s + 2][s:] = [1, 1, 1]              # [0 ... 0 | 1 1 1]

    matrix = validate(a)
    got = matrix._weak[0]  # coker(I - A), held for the matrix's readers
    want = target.group()
    if got != want:
        raise RealizationError(
            f"constructed matrix realizes {got}, wanted {want}")
    return matrix


def pair_equivalent(g: PresentedGroup, d: GroupElement,
                    h: PresentedGroup, e: GroupElement) -> bool:
    """Whether (G, d) and (H, e) agree as group-with-element data.

    Decided by the quotient criterion: the groups must be isomorphic and
    so must their quotients by the chosen elements.
    """
    if d.group is not g or e.group is not h:
        raise ValueError("element does not belong to its presentation")
    return (g.canonical() == h.canonical()
            and quotient_by_elements(g, [d]) == quotient_by_elements(h, [e]))


def ext_pair_from_k0_pair(g: PresentedGroup,
                          d: GroupElement) -> tuple[FgAbGroup, FgAbGroup]:
    """Predicted (weak, strong) extension pair of an algebra with K_0 data.

    From (K_0, unit class) = (G, d) the pair is (G, Z + G/Zd).
    """
    if d.group is not g:
        raise ValueError("element does not belong to its presentation")
    return g.canonical(), Z.direct_sum(quotient_by_elements(g, [d]))


def range_witness(g: FgAbGroup, m: FgAbGroup) -> GroupElement | None:
    """An e in Z + M with (Z + M)/Ze isomorphic to G; ``None`` proves
    that there is none.

    With a_1 | ... | a_k the invariant factors of Z + M, 0 for each free
    summand, and b_1 | ... | b_k those of G, padded with 1s in front, e
    exists iff b_i | a_i and a_(i-1) | b_i (x | 0; 0 | x only for x = 0):
    the interlacing of invariant factors when a column joins a relation
    matrix (R. C. Thompson; E. M. de Sa, Linear Algebra Appl. 24 (1979)).
    On the zeros this reads rank M <= rank G <= 1 + rank M.  The witness,
    in Smith coordinates, is gamma_1 = b_1, gamma_t = gamma_(t-1) b_t /
    a_(t-1) up to t = s + 1, s the length of M's torsion chain, then 0:
    the j x j minors of [diag(a) | e] have gcd b_1 ... b_j.  It lies in
    the diagonal presentation of Z + M, 1 + rank M free generators (the
    last takes gamma_(s+1)) and then M's torsion ones; one of more than
    :data:`MAX_SIDE` generators raises ``ValueError`` before anything is
    built, and a witness that fails its check :class:`VerificationError`.
    """
    a, r = m.invariant_factors, m.free_rank
    pad = len(a) + 1 + r - g.free_rank - len(g.invariant_factors)
    if pad < 0 or not r <= g.free_rank <= r + 1:
        return None
    # b_1 ... b_n are nonzero, n = len(a) or 1 + len(a), and b_(n+1) = 0
    b = (1,) * pad + g.invariant_factors + (0,)
    if any(x % y for x, y in zip(a, b)) or \
            any(y % x for x, y in zip(a, b[1:])):
        return None
    gens = 1 + r + len(a)
    if gens > MAX_SIDE:
        raise ValueError(f"the witness needs {gens} generators; "
                         f"range_witness builds at most {MAX_SIDE}")
    gamma = [b[0]]
    for x, y in zip(a, b[1:]):
        gamma.append(gamma[-1] * y // x)
    rel = [[0] * len(a) for _ in range(gens)]
    for j, x in enumerate(a):
        rel[1 + r + j][j] = x
    presentation = PresentedGroup(gens, rel)
    e = presentation.element([0] * r + gamma[-1:] + gamma[:-1])
    got = quotient_by_elements(presentation, [e])
    if got != g:
        raise VerificationError(f"the witness {e} gives the quotient {got}, "
                                f"wanted {g}")
    return e
