"""Abelian groups presented by generators and relations.

A :class:`PresentedGroup` is Z^n modulo the lattice spanned by the columns
of a relation matrix.  Elements are integer coordinate vectors; two vectors
name the same element when their difference lies in the relation lattice.
Homomorphisms are integer matrices mapping source generators to target
coordinates.  Membership queries read one Smith diagonal from
:mod:`ckinv.intmat`: that of the relations with some columns appended,
the group modulo some elements.  Columns lie in the relation lattice iff
that quotient is isomorphic to the group, since finitely generated
abelian groups are Hopfian; element equality, well-definedness and
exactness use this rule, and orders follow :func:`order_from_quotient`.
In a group with no relations, membership is a zero test.  Exactness of
f, g at the middle is membership too: g after f must vanish, and the
generators of ker(g), lifted to the middle's coordinates by one Hermite
kernel, must lie in the lattice that im(f) and the middle's relations
span.  No presentation of ker(g)/im(f) is built.

A group holds its relations as a list of int columns, a hom its matrix as
a list of int rows and an element its coordinates as a tuple of ints.
Every query runs on these, with no numpy, and every result is Python
ints: relations, images and kernel lifts as new lists of int columns.
Only :meth:`PresentedGroup.canonical_coords` computes a Smith transform,
the row transform u alone, and in a group with no relations it needs
none: the coordinates are the vector itself.
"""

from __future__ import annotations

from functools import cached_property
from math import prod
from operator import add, index, mul, sub

from . import intmat
from .groups import FgAbGroup


def _images(rows, columns) -> list[list[int]]:
    """The columns of (the matrix with these rows) @ (the one with these
    columns)."""
    return [[sum(map(mul, r, c)) for r in rows] for c in columns]


def _cokernel(generators: int, columns) -> FgAbGroup:
    """Canonical form of Z^generators modulo the span of the columns."""
    if not columns:
        return FgAbGroup(generators)
    return intmat.cokernel_invariants(intmat._transpose(columns, generators))


class PresentedGroup:
    """Z^generators / (column lattice of relations)."""

    def __init__(self, generators: int, relations=None):
        generators = index(generators)  # a float raises TypeError
        if generators < 0:
            raise ValueError("generator count must be non-negative")
        columns, rows = ([], generators) if relations is None \
            else intmat._columns(relations)
        if rows != generators:
            raise ValueError(
                f"relation columns must have {generators} coordinates, "
                f"got {rows}")
        self.generators = generators
        self._relations = columns

    def __repr__(self):
        return (f"PresentedGroup({self.generators} generators, "
                f"{len(self._relations)} relations)")

    @property
    def relations(self) -> list[list[int]]:
        """The relation columns, as new lists of Python ints."""
        return [list(c) for c in self._relations]

    @cached_property
    def _smith_coords(self) -> tuple[list[list[int]], tuple[int, ...]]:
        """(rows of u, cyclic modulus of each Smith coordinate, 0 for a
        free one), u the row transform that brings the relation matrix to
        Smith form; the column transform is not built."""
        u = intmat._identity_rows(self.generators)
        diag = intmat._smith_rows(
            intmat._transpose(self._relations, self.generators), u)
        return u, tuple(diag) + (0,) * (self.generators - len(diag))

    @cached_property
    def _canonical(self) -> FgAbGroup:
        return _cokernel(self.generators, self._relations)

    def canonical(self) -> FgAbGroup:
        """Canonical form; invariant under change of presentation.

        Read off the Smith diagonal alone: no transforms are computed.
        """
        return self._canonical

    def element(self, coords) -> "GroupElement":
        return GroupElement(self, coords)

    def zero(self) -> "GroupElement":
        return self.element([0] * self.generators)

    def canonical_coords(self, coords) -> tuple[tuple[int, ...],
                                                tuple[int, ...]]:
        """(free coordinates, torsion residues) of a coordinate vector.

        Vectors name the same group element iff these agree; the residues
        are listed per invariant factor > 1 in Smith order.  With no
        relations the vector is its own free coordinates, and no transform
        is built.
        """
        x = intmat._vector(coords, self.generators)
        if not self._relations:
            return x, ()
        u, moduli = self._smith_coords
        (y,) = _images(u, [x])
        free = tuple(y[i] for i, d in enumerate(moduli) if d == 0)
        tors = tuple(y[i] % d for i, d in enumerate(moduli) if d > 1)
        return free, tors

    def _contains(self, columns) -> bool:
        """True iff every column, a sequence of ``generators`` ints, lies
        in the relation lattice.

        Compares the canonical form of the group modulo the columns with
        the group's own.  No columns, or a trivial group, in which every
        column lies, cost no elimination; neither does a group with no
        relations, whose lattice holds the zero column alone.
        """
        if not self._relations:
            return not any(map(any, columns))
        return (not columns or self.canonical().is_trivial
                or _cokernel(self.generators, self._relations + columns)
                == self.canonical())


class GroupElement:
    """A coordinate vector in a fixed presentation.

    Arithmetic and comparison require the *same* presentation object;
    silently reinterpreting coordinates across presentations is the main
    correctness hazard, so it raises instead.
    """

    __slots__ = ("group", "_coords")
    __hash__ = None

    def __init__(self, group: PresentedGroup, coords):
        self.group = group
        self._coords = intmat._vector(coords, group.generators)

    @property
    def coords(self) -> tuple[int, ...]:
        """The coordinates, a tuple of Python ints."""
        return self._coords

    def _same_group(self, other: "GroupElement") -> None:
        if self.group is not other.group:
            raise ValueError("elements belong to different presentations")

    def __add__(self, other):
        self._same_group(other)
        return GroupElement(self.group,
                            tuple(map(add, self._coords, other._coords)))

    def __sub__(self, other):
        self._same_group(other)
        return GroupElement(self.group,
                            tuple(map(sub, self._coords, other._coords)))

    def __neg__(self):
        return GroupElement(self.group, tuple(-x for x in self._coords))

    def __mul__(self, k: int):
        k = index(k)  # a float raises TypeError rather than truncating
        return GroupElement(self.group, tuple(x * k for x in self._coords))

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, GroupElement):
            return NotImplemented
        self._same_group(other)
        return self.group._contains([(self - other)._coords])

    def __repr__(self):
        return f"GroupElement({list(self._coords)})"

    def is_zero(self) -> bool:
        return self.group._contains([self._coords])

    def canonical_coords(self):
        return self.group.canonical_coords(self._coords)

    def order(self) -> int:
        """Order of the element; 0 encodes infinite order.

        In a trivial group every element has order 1, with no elimination.
        """
        group = self.group.canonical()
        if group.is_trivial:
            return 1
        return order_from_quotient(group,
                                   quotient_by_elements(self.group, [self]))


class GroupHom:
    """Homomorphism between presented groups, as an integer matrix.

    The matrix, given as rows of ints or an integer array, has one column
    per source generator, giving its image in target coordinates.  A
    matrix with no rows and no stated width, such as ``[]``, is the
    matrix of a hom into a group of no generators.
    """

    def __init__(self, source: PresentedGroup, target: PresentedGroup,
                 matrix):
        rows, width = intmat._shaped(matrix)
        if not rows and not width:
            width = source.generators
        if (len(rows), width) != (target.generators, source.generators):
            raise ValueError(
                f"hom matrix must be {target.generators} x "
                f"{source.generators}, got {(len(rows), width)}")
        self.source = source
        self.target = target
        self._rows = [list(r) for r in rows]

    def __repr__(self):
        return (f"GroupHom({self.source.generators} -> "
                f"{self.target.generators} generators)")

    @cached_property
    def _columns(self) -> list[list[int]]:
        """Images of the source generators, in target coordinates."""
        return intmat._transpose(self._rows, self.source.generators)

    def is_well_defined(self) -> bool:
        """True iff every source relation maps into the target lattice."""
        return self.target._contains(_images(self._rows,
                                             self.source._relations))

    def apply(self, element: GroupElement) -> GroupElement:
        if element.group is not self.source:
            raise ValueError("element does not belong to the source group")
        (image,) = _images(self._rows, [element._coords])
        return GroupElement(self.target, image)

    def compose(self, inner: "GroupHom") -> "GroupHom":
        """self after inner."""
        if inner.target is not self.source:
            raise ValueError("homs are not composable")
        return GroupHom(inner.source, self.target,
                        intmat._transpose(_images(self._rows, inner._columns),
                                          self.target.generators))

    def image(self) -> list[list[int]]:
        """Columns generating the image inside target coordinates, as new
        lists of Python ints.

        Images of the source generators together with the target relations;
        their column lattice is the preimage of im(f) in Z^target.
        """
        return [list(c) for c in self._columns + self.target._relations]

    @cached_property
    def _lift(self) -> list[list[int]]:
        """Generators of ker(self) in source coordinates, read by
        :meth:`kernel` and :func:`is_exact_at` alike."""
        return _preimage_generators(self._columns, self.target._relations,
                                    self.target.generators)

    def kernel(self) -> tuple[PresentedGroup, list[list[int]]]:
        """Kernel, presented on lifted generators: ``(k, lift)``, where
        ``lift`` is a new list of columns of Python ints, source coordinates
        of generators of the kernel, and ``k`` presents the kernel on them.
        """
        if not self.is_well_defined():
            raise ValueError("hom is not well-defined")
        lift = [list(c) for c in self._lift]
        rel = _preimage_generators(lift, self.source._relations,
                                   self.source.generators)
        k = len(lift)
        return PresentedGroup(k, intmat._transpose(rel, k)), lift

    def is_injective(self) -> bool:
        return self.kernel()[0].canonical().is_trivial

    def is_surjective(self) -> bool:
        return _cokernel(self.target.generators, self.image()).is_trivial


def _preimage_generators(columns, lattice, height: int) -> list[list[int]]:
    """Coefficient vectors generating {x : sum x_i columns_i is in the
    lattice}, given the columns and the lattice's generators, all of
    ``height`` ints.

    Solutions (x, y) of columns @ x + lattice @ y = 0 are a full lattice
    with a Hermite-derived basis; projecting onto x gives generators of
    the preimage.  With no columns there is nothing to lift.
    """
    k = len(columns)
    if not k:
        return []
    return [b[:k] for b in intmat._hermite(columns + lattice, height).kernel]


def is_exact_at(f: GroupHom, g: GroupHom) -> bool:
    """Exactness of source --f--> middle --g--> target at the middle.

    True iff g after f is zero and ker(g) lies in im(f).  The middle
    modulo im(f) is presented by the columns of ``f.image()``; ker(g),
    lifted to the middle's coordinates, lies in im(f) iff appending its
    generators to those columns leaves the cokernel unchanged, the
    Hopfian rule of element equality.  Both conditions are decided by
    exact lattice arithmetic.
    """
    if f.target is not g.source:
        raise ValueError("sequence is not composable at this node")
    if not g.target._contains(_images(g._rows, f._columns)):
        return False
    height = f.target.generators
    middle = PresentedGroup(height, intmat._transpose(f.image(), height))
    return middle._contains(g._lift)


def quotient_by_elements(p: PresentedGroup, elems) -> FgAbGroup:
    """Canonical form of p modulo the subgroup generated by elems."""
    coords = []
    for e in elems:
        if e.group is not p:
            raise ValueError("element does not belong to the presentation")
        coords.append(e._coords)
    return _cokernel(p.generators, p._relations + coords)


def order_from_quotient(group: FgAbGroup, quotient: FgAbGroup) -> int:
    """Order of x in G from G and G/<x>; 0 encodes infinite order.

    Finite order k keeps the free rank and divides |T(G)| by k; infinite
    order drops the free rank by one.
    """
    if quotient.free_rank != group.free_rank:
        return 0
    return prod(group.invariant_factors) // prod(quotient.invariant_factors)
