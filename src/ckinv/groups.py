"""Finitely generated abelian groups in canonical form.

A finitely generated abelian group is determined up to isomorphism by its
free rank r and its invariant factors d_1 | d_2 | ... | d_k (each >= 2):

    G  =  Z^r  +  Z/d_1  +  ...  +  Z/d_k

``FgAbGroup`` stores exactly that data, so two values describe isomorphic
groups if and only if they compare equal.  The closed-form calculus of
direct sums, tensor products, Tor, Hom and Ext over this canonical form is
implemented here; presentations by generators and relations live in
:mod:`ckinv.presented`.

>>> G = canonical_from_cyclic([2, 3])
>>> G
FgAbGroup(free_rank=0, invariant_factors=(6,))
>>> print(G.direct_sum(Z))
Z^1 + Z/6
>>> print(Z2.tensor(canonical_from_cyclic([4])))
Z/2
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from math import gcd
from operator import index
from typing import Iterable


@dataclass(frozen=True)
class FgAbGroup:
    """Canonical form of a finitely generated abelian group.

    ``invariant_factors`` must be an ascending divisibility chain with every
    factor >= 2; the free part is carried by ``free_rank``.  Use
    :func:`canonical_from_cyclic` to build a value from arbitrary cyclic
    moduli instead of constructing directly.  Fields are read by
    ``operator.index``: a float raises ``TypeError``, not truncated.

    >>> FgAbGroup(1, (2,)) == canonical_from_cyclic([0, 2])
    True
    >>> FgAbGroup(0, (2, 3))
    Traceback (most recent call last):
        ...
    ValueError: invariant factors must form a divisibility chain: (2, 3)
    """

    free_rank: int
    invariant_factors: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "free_rank", index(self.free_rank))
        if self.free_rank < 0:
            raise ValueError("free rank must be non-negative")
        object.__setattr__(self, "invariant_factors",
                           tuple(map(index, self.invariant_factors)))
        facs = self.invariant_factors
        if any(d < 2 for d in facs):
            raise ValueError(f"invariant factors must be >= 2: {facs}")
        if any(facs[i + 1] % facs[i] for i in range(len(facs) - 1)):
            raise ValueError(
                f"invariant factors must form a divisibility chain: {facs}")

    # -- structure ---------------------------------------------------------

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.invariant_factors

    @property
    def is_free(self) -> bool:
        return not self.invariant_factors

    @property
    def torsion(self) -> "FgAbGroup":
        """The torsion subgroup, as a canonical group.

        >>> print(FgAbGroup(2, (2, 6)).torsion)
        Z/2 + Z/6
        """
        return FgAbGroup(0, self.invariant_factors)

    @property
    def order(self) -> int:
        """Number of elements; 0 encodes an infinite group."""
        if self.free_rank:
            return 0
        prod = 1
        for d in self.invariant_factors:
            prod *= d
        return prod

    # -- calculus ----------------------------------------------------------

    def direct_sum(self, other: "FgAbGroup") -> "FgAbGroup":
        """G + H in canonical form.

        >>> print(Z2.direct_sum(canonical_from_cyclic([3])))
        Z/6
        >>> Z2.direct_sum(TRIVIAL) == Z2
        True
        """
        return canonical_from_cyclic(
            [0] * (self.free_rank + other.free_rank)
            + list(self.invariant_factors) + list(other.invariant_factors))

    def tensor(self, other: "FgAbGroup") -> "FgAbGroup":
        """Tensor product over Z.

        Z is the unit; Z/a tensor Z/b is Z/gcd(a,b).

        >>> Z.tensor(Z2) == Z2
        True
        >>> print(FgAbGroup(1, (2,)).tensor(Z2))
        Z/2 + Z/2
        """
        mods = [0] * (self.free_rank * other.free_rank)
        mods += list(other.invariant_factors) * self.free_rank
        mods += list(self.invariant_factors) * other.free_rank
        mods += [gcd(d, e) for d in self.invariant_factors
                 for e in other.invariant_factors]
        return canonical_from_cyclic(mods)

    def tor(self, other: "FgAbGroup") -> "FgAbGroup":
        """Torsion product Tor(G, H); free parts contribute nothing.

        >>> print(canonical_from_cyclic([4]).tor(canonical_from_cyclic([6])))
        Z/2
        >>> Z.tor(Z2).is_trivial
        True
        """
        return canonical_from_cyclic(
            [gcd(d, e) for d in self.invariant_factors
             for e in other.invariant_factors])

    def hom(self, other: "FgAbGroup") -> "FgAbGroup":
        """The group Hom(G, H) of homomorphisms.

        Hom(Z, H) = H, Hom(Z/n, Z) = 0, Hom(Z/n, Z/m) = Z/gcd(n, m).

        >>> Z.hom(FgAbGroup(1, (2,))) == FgAbGroup(1, (2,))
        True
        >>> canonical_from_cyclic([6]).hom(Z).is_trivial
        True
        """
        mods = [0] * (self.free_rank * other.free_rank)
        mods += list(other.invariant_factors) * self.free_rank
        mods += [gcd(d, e) for d in self.invariant_factors
                 for e in other.invariant_factors]
        return canonical_from_cyclic(mods)

    def ext1(self, other: "FgAbGroup") -> "FgAbGroup":
        """The extension group Ext^1(G, H).

        Ext^1(Z, -) = 0 and Ext^1(Z/n, H) = H/nH.

        >>> print(canonical_from_cyclic([6]).ext1(Z))
        Z/6
        >>> print(canonical_from_cyclic([4]).ext1(canonical_from_cyclic([6])))
        Z/2
        """
        mods = []
        for d in self.invariant_factors:
            mods += [d] * other.free_rank
            mods += [gcd(d, e) for e in other.invariant_factors]
        return canonical_from_cyclic(mods)

    # -- rendering ---------------------------------------------------------

    def __str__(self) -> str:
        """Stable ASCII form: "0", "Z^2", "Z/2 + Z/6", "Z^1 + Z/2".

        >>> str(TRIVIAL), str(FgAbGroup(2)), str(FgAbGroup(1, (2,)))
        ('0', 'Z^2', 'Z^1 + Z/2')
        """
        parts = []
        if self.free_rank:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.invariant_factors)
        return " + ".join(parts) if parts else "0"

    def to_json(self) -> dict:
        """Serialization used by the CLI: {"rank": r, "torsion": [d1, ...]}."""
        return {"rank": self.free_rank, "torsion": list(self.invariant_factors)}

    @classmethod
    def from_json(cls, data: dict) -> "FgAbGroup":
        return cls(data["rank"], tuple(data["torsion"]))


def _chain(ds: list[int]) -> list[int]:
    """Invariant factors of the direct sum of Z/d, in place, with any 1s
    in front.  Each d is carried into the chain so far: an entry v it
    passes becomes gcd(v, carry) and the carry lcm(v, carry), which the
    later copies of v divide, so it skips them; it is inserted at the
    first entry it divides, past which the chain would only shift."""
    chain = []
    for carry in ds:
        i = 0
        while i < len(chain) and chain[i] % carry:
            v = chain[i]
            g = gcd(v, carry)
            chain[i], carry = g, v // g * carry
            i = bisect_right(chain, v, i + 1)
        chain.insert(i, carry)
    ds[:] = chain
    return ds


def canonical_from_cyclic(moduli: Iterable[int]) -> FgAbGroup:
    """Canonical form of a direct sum of cyclic groups Z/m (m = 0 means Z).

    The moduli (read by ``operator.index``) need not form a chain;
    :func:`_chain` merges them into the invariant-factor decomposition.

    >>> canonical_from_cyclic([0, 0])
    FgAbGroup(free_rank=2, invariant_factors=())
    >>> canonical_from_cyclic([2, 4]).invariant_factors
    (2, 4)
    >>> canonical_from_cyclic([2, 3]).invariant_factors
    (6,)
    """
    work = []
    free = 0
    for m in map(index, moduli):
        if m < 0:
            raise ValueError(f"cyclic modulus must be >= 0: {m}")
        if m == 0:
            free += 1
        elif m != 1:
            work.append(m)
    return FgAbGroup(free, tuple(m for m in _chain(work) if m != 1))


def free_abelian(rank: int) -> FgAbGroup:
    """Z^rank."""
    return FgAbGroup(rank, ())


TRIVIAL = FgAbGroup(0, ())
Z = FgAbGroup(1, ())
Z2 = FgAbGroup(0, (2,))
