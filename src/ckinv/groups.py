"""Finitely generated abelian groups in canonical form.

A finitely generated abelian group is determined up to isomorphism by its
free rank r and its invariant factors d_1 | d_2 | ... | d_k (each >= 2):

    G  =  Z^r  +  Z/d_1  +  ...  +  Z/d_k

``FgAbGroup`` stores exactly that data, so two values describe isomorphic
groups if and only if they compare equal.  The calculus over it is one
rule, :func:`_tensor_sum`, the canonical form of a sum of tensor products
G x H: as Z x H = H and Z/d x Z/e = Z/gcd(d, e), its free rank is the
count sum rank(G) rank(H), and its torsion moduli, T(H) rank(G) times,
T(G) rank(H) times and gcd(d, e) over every pair of factors, are chained
once.  With T(G) the torsion subgroup, G + H = G x Z + H x Z,
Tor(G, H) = T(G) x T(H), Hom(G, H) = Z^rank(G) x H + T(G) x T(H) and
Ext^1(G, H) = T(G) x H.  Presentations by generators and relations live
in :mod:`ckinv.presented`.

``FgAbGroup`` and the library's six other value classes are plain
classes on one frozen base, :class:`_Frozen`, which compares, hashes and
prints their fields as a frozen dataclass would, with no ``dataclasses``.

>>> G = canonical_from_cyclic([2, 3])
>>> G
FgAbGroup(free_rank=0, invariant_factors=(6,))
>>> print(G.direct_sum(Z))
Z^1 + Z/6
>>> print(Z2.tensor(canonical_from_cyclic([4])))
Z/2
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from math import gcd, prod
from operator import index, mod
from typing import Iterable


class _Frozen:
    """Base of the immutable value classes.

    A subclass names its fields, in order, in ``_fields``, and its
    ``__init__`` stores their values once through :meth:`_set`, which
    keeps them as attributes and as the tuple ``_values``.  ``==`` and
    ``hash`` work on that tuple, as a frozen dataclass's do on its fields,
    and an object of another class is never equal.  ``repr`` shows every
    field not named in ``_hidden``.  Assigning or deleting an attribute
    raises ``AttributeError``; ``functools.cached_property`` memos go
    straight into the instance dict and take no part in ``==``, ``hash``
    or ``repr``.  Pickling and copying restore the instance dict.
    """

    _fields: tuple[str, ...] = ()
    _hidden: tuple[str, ...] = ()

    def _set(self, *values) -> None:
        d = self.__dict__
        d.update(zip(self._fields, values))
        d["_values"] = values

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values == other._values
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        shown = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields,
                                                        self._values)
                          if f not in self._hidden)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class FgAbGroup(_Frozen):
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

    _fields = ("free_rank", "invariant_factors")

    def __init__(self, free_rank: int,
                 invariant_factors: tuple[int, ...] = ()) -> None:
        free_rank = index(free_rank)
        if free_rank < 0:
            raise ValueError("free rank must be non-negative")
        facs = tuple(map(index, invariant_factors))
        if facs and min(facs) < 2:
            raise ValueError(f"invariant factors must be >= 2: {facs}")
        if any(map(mod, facs[1:], facs)):
            raise ValueError(
                f"invariant factors must form a divisibility chain: {facs}")
        self._set(free_rank, facs)

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
        return 0 if self.free_rank else prod(self.invariant_factors)

    # -- calculus ----------------------------------------------------------

    def direct_sum(self, other: "FgAbGroup") -> "FgAbGroup":
        """G + H in canonical form, as G x Z + H x Z.

        >>> print(Z2.direct_sum(canonical_from_cyclic([3])))
        Z/6
        >>> Z2.direct_sum(TRIVIAL) == Z2
        True
        """
        return _tensor_sum((self, Z), (other, Z))

    def tensor(self, other: "FgAbGroup") -> "FgAbGroup":
        """Tensor product over Z.

        Z is the unit; Z/a tensor Z/b is Z/gcd(a,b).

        >>> Z.tensor(Z2) == Z2
        True
        >>> print(FgAbGroup(1, (2,)).tensor(Z2))
        Z/2 + Z/2
        """
        return _tensor_sum((self, other))

    def tor(self, other: "FgAbGroup") -> "FgAbGroup":
        """Torsion product Tor(G, H) = T(G) x T(H); free parts contribute
        nothing.

        >>> print(canonical_from_cyclic([4]).tor(canonical_from_cyclic([6])))
        Z/2
        >>> Z.tor(Z2).is_trivial
        True
        """
        return _tensor_sum((self.torsion, other.torsion))

    def hom(self, other: "FgAbGroup") -> "FgAbGroup":
        """The group Hom(G, H) = Z^rank(G) x H + T(G) x T(H).

        Hom(Z, H) = H, Hom(Z/n, Z) = 0, Hom(Z/n, Z/m) = Z/gcd(n, m).

        >>> Z.hom(FgAbGroup(1, (2,))) == FgAbGroup(1, (2,))
        True
        >>> canonical_from_cyclic([6]).hom(Z).is_trivial
        True
        """
        return _tensor_sum((FgAbGroup(self.free_rank), other),
                           (self.torsion, other.torsion))

    def ext1(self, other: "FgAbGroup") -> "FgAbGroup":
        """The extension group Ext^1(G, H) = T(G) x H.

        Ext^1(Z, -) = 0 and Ext^1(Z/n, H) = H/nH.

        >>> print(canonical_from_cyclic([6]).ext1(Z))
        Z/6
        >>> print(canonical_from_cyclic([4]).ext1(canonical_from_cyclic([6])))
        Z/2
        """
        return _tensor_sum((self.torsion, other))

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
    in front.  The chain is held as the count of each distinct entry, and
    each d is carried into it: past each entry v it does not divide, one
    copy of v becomes gcd(v, carry) and the carry lcm(v, carry); the
    carry joins the chain at the first entry it divides.  The entries
    that divide the carry, a prefix, are skipped by bisection.  A chain
    of b-bit entries has at most b + 1 distinct ones, so n moduli take
    time linear in n, in any order."""
    if len(ds) < 2:  # already a chain
        return ds
    count, keys = {}, []  # keys: the distinct entries, ascending

    def add(v: int, k: int) -> None:
        count[v] = count.get(v, 0) + k
        if not count[v]:
            del count[v]
            keys.remove(v)
        elif count[v] == k:  # v is new
            insort(keys, v)

    for carry in ds:
        i = bisect_left(keys, True, key=lambda v: carry % v > 0)
        while i < len(keys) and keys[i] % carry:
            v = keys[i]
            g = gcd(v, carry)
            carry = v // g * carry
            add(v, -1)
            add(g, 1)
            i = bisect_right(keys, v)
        add(carry, 1)
    ds.clear()
    for v in keys:
        ds += [v] * count[v]
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
    work = list(map(index, moduli))
    if work and min(work) < 0:
        raise ValueError(f"cyclic modulus must be >= 0: {min(work)}")
    return _canonical(work.count(0), work)


def _canonical(free: int, moduli: list[int]) -> FgAbGroup:
    """Z^free plus the sum of Z/m over the moduli m > 1, canonical."""
    return FgAbGroup(free, tuple(
        m for m in _chain([m for m in moduli if m > 1]) if m != 1))


# Most torsion moduli _tensor_sum lists past one copy of an input's: 10**6
# took 0.3 to 0.8 s to chain at a peak of 55 MB (2-core x86-64, Python
# 3.11), and the pi groups of a report of side 330 list at most 3 * 330**2.
MAX_TENSOR_MODULI = 10 ** 6


def _tensor_sum(*pairs: tuple[FgAbGroup, FgAbGroup]) -> FgAbGroup:
    """Canonical form of the sum of G x H over the pairs (G, H), free
    summands counted, never listed; more than :data:`MAX_TENSOR_MODULI`
    torsion moduli raise ``ValueError`` before any is listed; moduli that
    a factor of free rank 1 copies once, as in G + H, are not counted.

    >>> print(_tensor_sum((FgAbGroup(1, (2,)), canonical_from_cyclic([6])),
    ...                   (Z, Z)))
    Z^1 + Z/2 + Z/6
    """
    listed = sum((g.free_rank > 1) * g.free_rank * len(h.invariant_factors)
                 + (h.free_rank > 1) * h.free_rank * len(g.invariant_factors)
                 + len(g.invariant_factors) * len(h.invariant_factors)
                 for g, h in pairs)
    if listed > MAX_TENSOR_MODULI:
        raise ValueError(f"{listed} torsion moduli exceed the cap of "
                         f"{MAX_TENSOR_MODULI}")
    free, mods = 0, []
    for g, h in pairs:
        free += g.free_rank * h.free_rank
        mods += h.invariant_factors * g.free_rank
        mods += g.invariant_factors * h.free_rank
        mods += [gcd(d, e) for d in g.invariant_factors
                 for e in h.invariant_factors]
    return _canonical(free, mods)


def free_abelian(rank: int) -> FgAbGroup:
    """Z^rank."""
    return FgAbGroup(rank, ())


TRIVIAL = FgAbGroup(0, ())
Z = FgAbGroup(1, ())
Z2 = FgAbGroup(0, (2,))
