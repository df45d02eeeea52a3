"""Abelian groups presented by generators and relations.

A :class:`PresentedGroup` is Z^n modulo the lattice spanned by the columns
of a relation matrix.  Elements are integer coordinate vectors; two vectors
name the same element when their difference lies in the relation lattice.
Homomorphisms are integer matrices mapping source generators to target
coordinates.  Every query reads one Smith diagonal from :mod:`ckinv.intmat`:
that of the relations with some columns appended, the group modulo some
elements.  Columns lie in the relation lattice iff that quotient is
isomorphic to the group, since finitely generated abelian groups are
Hopfian; element equality, well-definedness and exactness use this rule,
and orders follow :func:`order_from_quotient`.  Only
:meth:`PresentedGroup.canonical_coords` computes Smith transforms.
"""

from __future__ import annotations

from functools import cached_property
from typing import TYPE_CHECKING

from . import intmat
from .groups import FgAbGroup

if TYPE_CHECKING:
    import numpy as np


class PresentedGroup:
    """Z^generators / (column lattice of relations)."""

    def __init__(self, generators: int, relations=None):
        if generators < 0:
            raise ValueError("generator count must be non-negative")
        self.generators = generators
        if relations is None:
            relations = intmat.zeros(generators, 0)
        relations = intmat.as_intmat(relations)
        if relations.shape[0] != generators:
            raise ValueError(
                f"relation columns must have {generators} coordinates, "
                f"got {relations.shape[0]}")
        self.relations = relations

    def __repr__(self):
        return (f"PresentedGroup({self.generators}, "
                f"{self.relations.shape[1]} relations; {self.canonical()})")

    @cached_property
    def _rel_snf(self) -> intmat.SmithDecomposition:
        return intmat.smith_normal_form(self.relations)

    @cached_property
    def _moduli(self) -> tuple[int, ...]:
        """Cyclic modulus of each Smith coordinate (0 marks a free one)."""
        diag = self._rel_snf.diagonal
        return tuple(diag[i] if i < len(diag) else 0
                     for i in range(self.generators))

    @cached_property
    def _canonical(self) -> FgAbGroup:
        return intmat.cokernel_invariants(self.relations)

    def canonical(self) -> FgAbGroup:
        """Canonical form; invariant under change of presentation.

        Read off the Smith diagonal alone: no transforms are computed.
        """
        return self._canonical

    def element(self, coords) -> "GroupElement":
        return GroupElement(self, intmat.as_intvec(coords, self.generators))

    def zero(self) -> "GroupElement":
        return self.element([0] * self.generators)

    def canonical_coords(self, coords) -> tuple[tuple[int, ...],
                                                tuple[int, ...]]:
        """(free coordinates, torsion residues) of a coordinate vector.

        Vectors name the same group element iff these agree; the residues
        are listed per invariant factor > 1 in Smith order.
        """
        y = self._rel_snf.u @ intmat.as_intvec(coords, self.generators)
        free = tuple(int(y[i]) for i, d in enumerate(self._moduli) if d == 0)
        tors = tuple(int(y[i]) % d for i, d in enumerate(self._moduli)
                     if d > 1)
        return free, tors

    def _contains(self, columns: np.ndarray) -> bool:
        """True iff every column lies in the relation lattice.

        Compares the canonical form of the group modulo the columns with
        the group's own.  No columns, or a trivial group, in which every
        column lies, cost no elimination.
        """
        return (not columns.shape[1] or self.canonical().is_trivial
                or intmat.cokernel_invariants(
                    intmat.hstack(self.relations, columns))
                == self.canonical())


class GroupElement:
    """A coordinate vector in a fixed presentation.

    Arithmetic and comparison require the *same* presentation object;
    silently reinterpreting coordinates across presentations is the main
    correctness hazard, so it raises instead.
    """

    __slots__ = ("group", "coords")
    __hash__ = None

    def __init__(self, group: PresentedGroup, coords):
        self.group = group
        self.coords = intmat.as_intvec(coords, group.generators)

    def _same_group(self, other: "GroupElement") -> None:
        if self.group is not other.group:
            raise ValueError("elements belong to different presentations")

    def __add__(self, other):
        self._same_group(other)
        return GroupElement(self.group, self.coords + other.coords)

    def __sub__(self, other):
        self._same_group(other)
        return GroupElement(self.group, self.coords - other.coords)

    def __neg__(self):
        return GroupElement(self.group, -self.coords)

    def __mul__(self, k: int):
        return GroupElement(self.group, self.coords * int(k))

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, GroupElement):
            return NotImplemented
        self._same_group(other)
        return self.group._contains((self.coords - other.coords)[:, None])

    def __repr__(self):
        return f"GroupElement({list(self.coords)})"

    def is_zero(self) -> bool:
        return self.group._contains(self.coords[:, None])

    def canonical_coords(self):
        return self.group.canonical_coords(self.coords)

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

    ``matrix`` has one column per source generator, giving its image in
    target coordinates.
    """

    def __init__(self, source: PresentedGroup, target: PresentedGroup,
                 matrix):
        matrix = intmat.as_intmat(matrix)
        if matrix.shape != (target.generators, source.generators):
            raise ValueError(
                f"hom matrix must be {target.generators} x "
                f"{source.generators}, got {matrix.shape}")
        self.source = source
        self.target = target
        self.matrix = matrix

    def __repr__(self):
        return (f"GroupHom({self.source.canonical()} -> "
                f"{self.target.canonical()})")

    def is_well_defined(self) -> bool:
        """True iff every source relation maps into the target lattice."""
        return self.target._contains(self.matrix @ self.source.relations)

    def apply(self, element: GroupElement) -> GroupElement:
        if element.group is not self.source:
            raise ValueError("element does not belong to the source group")
        return GroupElement(self.target, self.matrix @ element.coords)

    def compose(self, inner: "GroupHom") -> "GroupHom":
        """self after inner."""
        if inner.target is not self.source:
            raise ValueError("homs are not composable")
        return GroupHom(inner.source, self.target,
                        self.matrix @ inner.matrix)

    def image(self) -> np.ndarray:
        """Columns generating the image inside target coordinates.

        Images of the source generators together with the target relations;
        their column lattice is the preimage of im(f) in Z^target.
        """
        return intmat.hstack(self.matrix, self.target.relations)

    def kernel(self) -> tuple[PresentedGroup, np.ndarray]:
        """Kernel, presented on lifted generators.

        Returns ``(k, lift)`` where the columns of ``lift`` are source
        coordinate vectors generating the kernel and ``k`` presents the
        kernel on those generators.
        """
        if not self.is_well_defined():
            raise ValueError("hom is not well-defined")
        lift = _preimage_generators(self.matrix, self.target.relations)
        rel = _preimage_generators(lift, self.source.relations)
        return PresentedGroup(lift.shape[1], rel), lift

    def is_injective(self) -> bool:
        k, _ = self.kernel()
        return k.canonical().is_trivial

    def is_surjective(self) -> bool:
        return intmat.cokernel_invariants(self.image()).is_trivial


def _preimage_generators(matrix: np.ndarray,
                         lattice: np.ndarray) -> np.ndarray:
    """Columns generating {x : matrix @ x is in the column lattice}.

    Solutions (x, y) of matrix @ x + lattice @ y = 0 are a full lattice
    with a Hermite-derived basis; projecting onto x gives generators of
    the preimage.
    """
    stacked = intmat.hstack(matrix, lattice)
    basis = intmat.kernel_basis(stacked)
    return basis[:matrix.shape[1], :]


def is_exact_at(f: GroupHom, g: GroupHom) -> bool:
    """Exactness of source --f--> middle --g--> target at the middle.

    True iff g after f is zero and ker(g)/im(f) presents the trivial
    group; both conditions are decided by exact lattice arithmetic.
    """
    if f.target is not g.source:
        raise ValueError("sequence is not composable at this node")
    if not g.target._contains(g.matrix @ f.matrix):
        return False
    ker_gens = _preimage_generators(g.matrix, g.target.relations)
    image = f.image()
    rel = _preimage_generators(ker_gens, image)
    quotient = PresentedGroup(ker_gens.shape[1], rel)
    return quotient.canonical().is_trivial


def quotient_by_elements(p: PresentedGroup, elems) -> FgAbGroup:
    """Canonical form of p modulo the subgroup generated by elems."""
    import numpy as np
    cols = []
    for e in elems:
        if e.group is not p:
            raise ValueError("element does not belong to the presentation")
        cols.append(e.coords)
    extra = (np.stack(cols, axis=1) if cols
             else intmat.zeros(p.generators, 0))
    return intmat.cokernel_invariants(intmat.hstack(p.relations, extra))


def order_from_quotient(group: FgAbGroup, quotient: FgAbGroup) -> int:
    """Order of x in G from G and G/<x>; 0 encodes infinite order.

    Finite order k keeps the free rank and divides |T(G)| by k; infinite
    order drops the free rank by one.
    """
    if quotient.free_rank != group.free_rank:
        return 0
    return group.torsion.order // quotient.torsion.order
