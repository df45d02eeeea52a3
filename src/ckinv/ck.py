"""Invariants of Cuntz-Krieger algebras computed from their 0-1 matrices.

A Cuntz-Krieger algebra O_A is determined by an N x N irreducible
non-permutation matrix A with entries in {0, 1}.  All of its K-theoretic
data is read off one Smith diagonal of I - A and one of I - A^hat, which
the validated matrix object, a :class:`ZeroOneMatrix`, runs at most once
each and keeps (see its docstring):

  ==============  =====================================================
  K_0 = ExtW 1    cokernel of I - A  (classically, of I - A^t)
  K_1 = ExtW 0    kernel of I - A: free, of the free rank of K_0
  Ext strong 1    cokernel of I - A^hat,  A^hat = A + R_1 - A @ R_1
  Ext strong 0    free, of the free rank of Ext strong 1 less 1
  ==============  =====================================================

where R_1 has an all-ones first row and zeros elsewhere.  The homotopy
groups of the automorphism group Aut(O_A) and of its stabilization are
closed tensor/Tor expressions in those groups, and the pair
(K_0, Ext strong 1) decides isomorphism of the algebras.

The class iota_1 of (I - A) e_1 in Ext strong 1 has Ext weak 1 as its
quotient, and :func:`ckinv.presented.order_from_quotient` turns the pair
into its order.  :func:`invariants` cross-checks by the classical routes,
on every call and never from a memo: coker(I - A^t) and the cokernel of
[I - A^hat | (I - A) e_1] must be Ext weak 1, and the ones-row
augmentation of I - A must have a kernel of the rank of Ext strong 0.
So a report on a fresh matrix runs five Smith diagonals and a report on
one that any entry point has read runs three; :func:`pi_aut`,
:func:`pi_aut_stable`, both deciders and :func:`five_term_sequence` run
none on a matrix whose groups are held.  Every internal check here either
holds or raises :class:`VerificationError`; no function returns a failed
verdict.
"""

from __future__ import annotations

import random
from functools import cached_property, reduce
from itertools import chain, compress
from math import gcd
from operator import mul, or_
from typing import TYPE_CHECKING

from . import intmat
from .groups import FgAbGroup, _Frozen, _tensor_sum, free_abelian
from .presented import GroupElement, GroupHom, PresentedGroup, \
    order_from_quotient

if TYPE_CHECKING:
    import numpy as np


class MatrixValidationError(ValueError):
    """Input matrix fails a Cuntz-Krieger hypothesis; ``reason`` says which."""

    def __init__(self, reason: str, message: str):
        super().__init__(message)
        self.reason = reason


class VerificationError(RuntimeError):
    """An internal cross-check failed: a library fault, never bad input."""


class ZeroOneMatrix(_Frozen):
    """Validated N x N irreducible non-permutation matrix over {0, 1}.

    The entries are held row-major in ``data``, one byte each, so a held
    matrix costs N^2 bytes rather than 8 N^2; :attr:`rows` gives them as
    lists of ints and :attr:`entries` as a new int64 array, the one
    accessor here that imports numpy.

    The object keeps (ExtW1, ExtW0) and (ExtS1, ExtS0) once an entry point
    has read them: the first read runs one Smith diagonal of I - A or of
    I - A^hat, and every later read of the same object runs none.  The
    memo lives and dies with the object and takes no part in ``==`` or
    ``hash``; :func:`validate` and :meth:`transpose` return fresh objects,
    which eliminate again.
    """

    _fields = ("data", "n")
    _hidden = ("data",)

    def __init__(self, data: bytes, n: int) -> None:
        self._set(data, n)

    @property
    def rows(self) -> list[list[int]]:
        """The matrix as n new lists of ints."""
        n, data = self.n, self.data
        return [list(data[i:i + n]) for i in range(0, n * n, n)]

    @property
    def entries(self) -> np.ndarray:
        """The matrix as a new int64 array (the ``arrays`` extra)."""
        import numpy as np
        return np.frombuffer(self.data, np.uint8).reshape(
            self.n, self.n).astype(np.int64)

    def transpose(self) -> "ZeroOneMatrix":
        """The transposed matrix; validity is preserved."""
        n = self.n
        return ZeroOneMatrix(b"".join(self.data[j::n] for j in range(n)), n)

    @cached_property
    def _weak(self) -> tuple[FgAbGroup, FgAbGroup]:
        """(ExtW1, ExtW0) = (K0, K1), from the Smith diagonal of I - A."""
        ext_w1 = intmat.cokernel_invariants(_i_minus_rows(self))
        return ext_w1, free_abelian(ext_w1.free_rank)  # rank-nullity

    @cached_property
    def _strong(self) -> tuple[FgAbGroup, FgAbGroup]:
        """(ExtS1, ExtS0), from the Smith diagonal of I - A^hat:
        Ker(I - A^hat) is Z e_1 plus ExtS0, Ker(I - A) meet the sum-zero
        lattice."""
        ext_s1 = intmat.cokernel_invariants(_hat_rows(_i_minus_rows(self)))
        return ext_s1, free_abelian(ext_s1.free_rank - 1)


def _is_permutation(rows) -> bool:
    """Whether a 0-1 matrix holds one 1 in each row and each column."""
    return (set(map(sum, rows)) == {1}
            and len({row.index(1) for row in rows}) == len(rows))


def _reaches_all(masks: list[int]) -> bool:
    """Whether vertex 0 reaches every vertex along edges i -> j, where
    byte j of ``masks[i]`` is 1 for an edge and 0 otherwise.

    Breadth first, a level at a time: the union of the frontier's edges
    is one OR of masks, and the next frontier is read off its bytes.
    """
    n = len(masks)
    span = range(n)
    seen, frontier = 1, [0]
    while frontier:
        new = reduce(or_, map(masks.__getitem__, frontier)) & ~seen
        seen |= new
        frontier = list(compress(span, new.to_bytes(n, "little")))
    return seen.bit_count() == n


def _strongly_connected(data: bytes, n: int) -> bool:
    """Every vertex reaches every vertex along edges i -> j with a[i][j] = 1,
    for the n x n 0-1 matrix a held row-major in ``data``."""
    if n == 1:
        return bool(data[0])  # a path must use at least one edge
    return (_reaches_all([int.from_bytes(data[i:i + n], "little")
                          for i in range(0, n * n, n)])
            and _reaches_all([int.from_bytes(data[j::n], "little")
                              for j in range(n)]))


def validate(raw) -> ZeroOneMatrix:
    """Check the Cuntz-Krieger hypotheses, naming the violated one.

    Raises :class:`MatrixValidationError` with reason ``not-square``,
    ``bad-entry``, ``permutation`` or ``reducible``.  The rows are read
    as :func:`ckinv.intmat.smith_diagonal` reads them: rows of Python
    ints, or anything read into them through ``tolist()``, with booleans
    as 0 and 1, so ``validate(a.rows) == a``; a non-integer entry is a
    ``bad-entry``, and ragged or non-2-D rows are ``not-square``.
    """
    try:
        rows, width = intmat._shaped(raw)
    except TypeError as e:
        raise MatrixValidationError("bad-entry", str(e)) from None
    except ValueError as e:
        raise MatrixValidationError("not-square", str(e)) from None
    n = len(rows)
    if width != n:
        raise MatrixValidationError(
            "not-square", f"matrix must be square, got shape ({n}, {width})")
    if not n:
        raise MatrixValidationError("not-square", "matrix must be non-empty")
    try:
        data = bytes(chain.from_iterable(rows))
    except ValueError:  # an entry outside range(256)
        data = None
    if data is None or data.translate(None, b"\0\1"):
        i, j = next((i, j) for i, row in enumerate(rows)
                    for j, x in enumerate(row) if x not in (0, 1))
        raise MatrixValidationError(
            "bad-entry",
            f"entry outside {{0,1}} at row {i}, column {j}: {rows[i][j]}")
    if _is_permutation(rows):
        raise MatrixValidationError("permutation",
                                    "permutation matrices are excluded")
    if not _strongly_connected(data, n):
        raise MatrixValidationError(
            "reducible", "matrix is reducible: its digraph is not strongly "
                         "connected")
    return ZeroOneMatrix(data, n)


# Byte 1 read as a signed char is -1, so this maps the entries of A to -A.
_NEGATE = bytes.maketrans(b"\1", b"\xff")


def _i_minus_rows(a: ZeroOneMatrix) -> list[list[int]]:
    """Rows of I - A."""
    n = a.n
    flat = memoryview(a.data.translate(_NEGATE)).cast("b").tolist()
    rows = [flat[i:i + n] for i in range(0, n * n, n)]
    for i, row in enumerate(rows):
        row[i] += 1
    return rows


def _hat_rows(ia) -> list[list[int]]:
    """Rows of I - A^hat, from the rows of I - A.

    I - A^hat = (I - A)(I - R_1), and multiplying by I - R_1 on the right
    subtracts the first column from every column.
    """
    return [[x - r[0] for x in r] for r in ia]


def _augmented_rows(ia) -> list[list[int]]:
    """Rows of the all-ones row stacked on I - A, from the rows of I - A."""
    return [[1] * len(ia)] + ia


def _iota_quotient_rows(ia) -> list[list[int]]:
    """Rows of [I - A^hat | (I - A) e_1], from the rows of I - A: the
    strong extension group modulo the class iota_1."""
    return [h + [r[0]] for h, r in zip(_hat_rows(ia), ia)]


def i_minus(m) -> list[list[int]]:
    """I - m as new int rows, for a square matrix read as :func:`validate`
    reads it, such as :attr:`ZeroOneMatrix.entries`; else ``ValueError``."""
    rows, width = intmat._shaped(m)
    if width != len(rows):
        raise ValueError(f"matrix must be square, got {len(rows)} x {width}")
    return [[(i == j) - x for j, x in enumerate(row)]
            for i, row in enumerate(rows)]


class CKReport(_Frozen):
    """The full invariant bundle of one Cuntz-Krieger algebra: the side
    ``n``, the groups that ``_GROUPS`` names, and ``iota_one_order``, the
    order of iota_1, 0 if infinite: |T(ExtS1)| / |T(ExtW1)| when the free
    ranks agree, ExtS1/<iota_1> being ExtW1, which the report checks
    against the cokernel of [I - A^hat | (I - A) e_1]."""

    # the JSON and text name, then the field, of each group in report order
    _GROUPS = (
        ("K0", "k0"), ("K1", "k1"), ("ExtW1", "ext_w1"),
        ("ExtW0", "ext_w0"), ("ExtS1", "ext_s1"), ("ExtS0", "ext_s0"),
        ("pi1_aut", "pi1_aut"), ("pi2_aut", "pi2_aut"),
        ("pi1_aut_stable", "pi1_aut_stable"),
        ("pi2_aut_stable", "pi2_aut_stable"))
    _fields = ("n", *(f for _, f in _GROUPS), "iota_one_order")

    def __init__(self, n: int, k0: FgAbGroup, k1: FgAbGroup,
                 ext_w1: FgAbGroup, ext_w0: FgAbGroup, ext_s1: FgAbGroup,
                 ext_s0: FgAbGroup, pi1_aut: FgAbGroup, pi2_aut: FgAbGroup,
                 pi1_aut_stable: FgAbGroup, pi2_aut_stable: FgAbGroup,
                 iota_one_order: int) -> None:
        self._set(n, k0, k1, ext_w1, ext_w0, ext_s1, ext_s0, pi1_aut,
                  pi2_aut, pi1_aut_stable, pi2_aut_stable, iota_one_order)

    def to_json(self) -> dict:
        groups = {name: getattr(self, f).to_json() for name, f in self._GROUPS}
        return {"n": self.n, **groups, "iota_one_order": self.iota_one_order}


def _require_valid(a) -> ZeroOneMatrix:
    if not isinstance(a, ZeroOneMatrix):
        raise TypeError("expected a validated ZeroOneMatrix; call validate()")
    return a


# Largest matrix side invariants accepts.  Its five Smith diagonals take
# time growing about as the fourth power of the side: over densities 0.1,
# 0.3 and 0.6 with seeds 1 to 3, the slowest random matrix took 3.2 s at
# side 200, 17 s at side 300 and 35 s at side 330 (2-core x86-64, Python
# 3.11), so larger matrices are refused up front.
MAX_INVARIANTS_SIDE = 330


def _require_invariants_side(*mats) -> None:
    """Check that the matrices are validated, and refuse a side above
    :data:`MAX_INVARIANTS_SIDE` before any elimination: every Ext entry
    point runs Smith diagonals of that side."""
    side = max(_require_valid(a).n for a in mats)
    if side > MAX_INVARIANTS_SIDE:
        raise ValueError(f"invariants take a side of at most "
                         f"{MAX_INVARIANTS_SIDE}, got {side}")


def invariants(a: ZeroOneMatrix) -> CKReport:
    """Compute every invariant in one report.

    The groups are those ``a`` holds: a fresh matrix runs the Smith
    diagonals of I - A and I - A^hat, one that an entry point has read
    runs neither.  Three more Smith diagonals cross-check the groups on
    every call; a mismatch raises :class:`VerificationError`.  So a fresh
    matrix costs five diagonals and a reused one three.  A matrix of side
    above :data:`MAX_INVARIANTS_SIDE` raises ``ValueError`` before any
    elimination.
    """
    _require_invariants_side(a)
    ext_w1, ext_w0 = k0, k1 = a._weak
    ext_s1, ext_s0 = a._strong
    ia = _i_minus_rows(a)
    if intmat.cokernel_invariants(list(zip(*ia))) != ext_w1:
        raise VerificationError("Smith forms of I-A and I-A^t disagree")
    if a.n - sum(map(bool, intmat.smith_diagonal(_augmented_rows(ia)))) \
            != ext_s0.free_rank:
        raise VerificationError("the augmented I-A does not match ExtS0")
    if intmat.cokernel_invariants(_iota_quotient_rows(ia)) != ext_w1:
        raise VerificationError("ExtS1 modulo iota_1 is not ExtW1")
    pi_stable = _pi(ext_w1, ext_w0, k0, k1, 1)  # = degree 2; see _pi
    return CKReport(
        n=a.n,
        k0=k0, k1=k1,
        ext_w1=ext_w1, ext_w0=ext_w0,
        ext_s1=ext_s1, ext_s0=ext_s0,
        pi1_aut=_pi(ext_s1, ext_s0, k0, k1, 1),
        pi2_aut=_pi(ext_s1, ext_s0, k0, k1, 2),
        pi1_aut_stable=pi_stable, pi2_aut_stable=pi_stable,
        iota_one_order=order_from_quotient(ext_s1, ext_w1),
    )


def _pi(ext1: FgAbGroup, ext0: FgAbGroup, k0: FgAbGroup, k1: FgAbGroup,
        n: int) -> FgAbGroup:
    """Homotopy group of the automorphism group from its Ext/K data.

    Degree 1 is (Ext^1 x K_0) + (Ext^0 x K_1); degree 2 swaps the K's and
    picks up Tor(Ext^1, K_0) = T(Ext^1) x T(K_0).  The Tor terms vanish in
    degree 1 because Ext^0 and K_1 are free.  So each degree is one sum of
    tensor products, :func:`ckinv.groups._tensor_sum`, the rule behind
    Hom(G, H) = Z^rank(G) x H + T(G) x T(H) and Ext^1(G, H) = T(G) x H too.
    On the weak groups, with K_1 = Z^r, r = rank K_0 and T = T(K_0), both
    degrees are Z^(2 r^2) + T^(2 r) + T x T: the stable groups agree.
    """
    if n == 1:
        return _tensor_sum((ext1, k0), (ext0, k1))
    return _tensor_sum((ext1, k1), (ext0, k0), (ext1.torsion, k0.torsion))


def _require_degree(n: int) -> None:
    if n not in (1, 2):
        raise ValueError(f"homotopy degree must be 1 or 2, got {n}")


def pi_aut(a: ZeroOneMatrix, n: int) -> FgAbGroup:
    """pi_n of Aut(O_A) for n in {1, 2}.

    Another n, or a side above :data:`MAX_INVARIANTS_SIDE`, raises
    ``ValueError`` before any elimination.
    """
    _require_degree(n)
    _require_invariants_side(a)
    return _pi(*a._strong, *a._weak, n)


def pi_aut_stable(a: ZeroOneMatrix, n: int) -> FgAbGroup:
    """pi_n of Aut(O_A tensor compacts) for n in {1, 2}.

    Stabilization replaces the strong extension groups by the weak ones;
    degrees 1 and 2 then agree (see :func:`_pi`), so one group answers
    both.  Another n, or a side above :data:`MAX_INVARIANTS_SIDE`, raises
    ``ValueError`` before any elimination.
    """
    _require_degree(n)
    _require_invariants_side(a)
    return _pi(*a._weak, *a._weak, 1)


def is_isomorphic_ck(a: ZeroOneMatrix, b: ZeroOneMatrix) -> bool:
    """Whether O_A and O_B are isomorphic.

    Decided by the complete invariant: the cokernels of I - A and of
    I - A^hat must both match.  A side above :data:`MAX_INVARIANTS_SIDE`
    raises ``ValueError`` before any elimination.
    """
    _require_invariants_side(a, b)
    return a._weak == b._weak and a._strong == b._strong


def is_stably_isomorphic_ck(a: ZeroOneMatrix, b: ZeroOneMatrix) -> bool:
    """Whether O_A and O_B become isomorphic after tensoring with compacts.

    Equivalent to K_0(O_A) = K_0(O_B), and to agreement of the stabilized
    homotopy groups.  A side above :data:`MAX_INVARIANTS_SIDE` raises
    ``ValueError`` before any elimination.
    """
    _require_invariants_side(a, b)
    return a._weak == b._weak


def ext_strong_presentation(a: ZeroOneMatrix) -> PresentedGroup:
    """Z^N modulo the columns of I - A^hat (the strong extension group)."""
    a = _require_valid(a)
    return PresentedGroup(a.n, _hat_rows(_i_minus_rows(a)))


def k0_pair(a: ZeroOneMatrix) -> tuple[PresentedGroup, GroupElement]:
    """The K_0 presentation (Z^N modulo I - A^t) with the unit class in it.

    The unit of O_A is the sum of the vertex projections, so its class is
    the all-ones vector; together with K_0 it determines both extension
    groups: the strong one is Z + K_0/(unit class).
    """
    a = _require_valid(a)
    # the rows of I - A are the columns of (I - A)^t
    p = PresentedGroup._on_columns(a.n, _i_minus_rows(a))
    return p, p.element([1] * a.n)


def iota_one(a: ZeroOneMatrix) -> GroupElement:
    """The class of (I - A) e_1 in the strong extension group.

    Its order together with the group itself is a complete isomorphism
    invariant; the quotient by this class is the weak extension group.
    """
    a = _require_valid(a)
    return ext_strong_presentation(a).element(
        [r[0] for r in _i_minus_rows(a)])


class FiveTermSequence(_Frozen):
    """0 -> G1 -> G2 -> G3 -> G4 -> G5 -> 0, exact at every node.

    Groups: Ker(I-A^hat)/(Z e_1), Ker(I-A), Z, coker(I-A^hat), coker(I-A).
    G2 is free on a basis B of Ker(I - A).  G1 is presented on the basis
    e_1, B c_1, ..., B c_k of Ker(I - A^hat), where the c_i are a basis of
    the coefficient vectors whose combination of B sums to zero, with the
    single relation e_1.  Maps: j (induced by I - R_1, which sends e_1 to
    0 and B c to itself, so on coordinates e_1 maps to 0 and B c_i to
    c_i), s (coordinate sum), iota (1 maps to the class of (I-A) e_1) and
    q (identity on generator coordinates).  A sequence exists only once
    every node holds: :func:`five_term_sequence` raises
    :class:`VerificationError` otherwise.  So ``nodes_exact`` (injectivity
    of j, exactness at G2, G3, G4, surjectivity of q) and ``verified`` are
    constants of the class.
    """

    _fields = ("groups", "maps")
    map_names = ("j", "s", "iota", "q")
    nodes_exact = (True,) * 5
    verified = True

    def __init__(self, groups: tuple[PresentedGroup, ...],
                 maps: tuple[GroupHom, ...]) -> None:
        self._set(groups, maps)


def _sequence_kernels(ia, ext_w1: FgAbGroup, ext_s1: FgAbGroup,
                      z: PresentedGroup):
    """(B, s, K) from the rows of I - A, both extension groups and the
    group z = Z: a basis B of Ker(I - A), s the coordinate sum from the
    free group on B to z, and the basis K of Ker(I - A^hat) made of e_1
    and the B c, c in C = ``s._lift``.

    I - A^hat = (I - A)(I - R_1), and I - R_1 maps Z^n onto the sum-zero
    lattice S with kernel Z e_1, fixing S.  So Ker(I - A^hat) is
    Z e_1 + (Ker(I - A) meet S), and Ker(I - A) meet S is B C, with C a
    basis of the kernel of s.  B and C are empty when ExtW1 has free
    rank 0, with no elimination; otherwise B comes from one Hermite
    transform of I - A, and C from a Hermite transform of s's one row.
    K is checked against I - A^hat, and its size against the free rank
    of ExtS1, the corank of I - A^hat.
    """
    n = len(ia)
    ker_a = intmat.hermite_normal_form(ia).kernel if ext_w1.free_rank \
        else []
    s = GroupHom(PresentedGroup(len(ker_a)), z, [[sum(b) for b in ker_a]])
    b_rows = list(zip(*ker_a))
    ker_hat = [[1] + [0] * (n - 1)] + [
        [sum(map(mul, c, r)) for r in b_rows] for c in s._lift]
    if len(ker_hat) != ext_s1.free_rank or any(
            sum(map(mul, r, v)) for r in _hat_rows(ia) for v in ker_hat):
        raise VerificationError("Ker(I - A^hat) basis does not match "
                                "Ker(I - A) and ExtS1")
    return ker_a, s, ker_hat


# Largest matrix side five_term_sequence accepts.  With Ker(I - A) = 0 it
# runs two Smith diagonals of the side and no Hermite transform, and over
# densities 0.1, 0.3 and 0.6 with three seeds each the slowest random
# matrix took 0.9 s at side 150 and 2.8 s at side 200.  A nonzero
# Ker(I - A) costs one Hermite transform of I - A, whose entries swell
# steeply with the side: on such matrices (two equal rows of I - A) the
# slowest took 41 s at side 150 (2-core x86-64, Python 3.11), so larger
# matrices are refused up front.
MAX_SEQUENCE_SIDE = 150


def five_term_sequence(a: ZeroOneMatrix) -> FiveTermSequence:
    """Build the extension-group exact sequence of O_A, checking each node.

    A failed check is an implementation bug, never bad input, and raises
    :class:`VerificationError`.  ExtS1 and ExtW1 are the groups ``a``
    holds, and G4 and G5 carry them as their canonical forms: a fresh
    matrix runs the Smith diagonals of I - A^hat and I - A, one that an
    entry point has read runs none, and rendering the five groups runs
    none either.  One Hermite transform of I - A runs when ExtW1 has free
    rank above 0 (see :func:`_sequence_kernels`).

    Since I - A^hat = (I - A)(I - R_1), each relation column k of G4 is
    column k of G5's minus column 1, iota's column is column 1 and q is
    the identity.  This witness is checked entry by entry before any
    elimination.  It proves q well defined and onto, and L(I - A^hat) +
    Z (I - A) e_1 = L(I - A), so im(iota) = L(I - A) / L(I - A^hat) =
    ker(q), which is exactness at coker(I - A^hat), and ExtS1 modulo
    iota_1 is ExtW1.  At Z, im(s) = gZ with g the gcd of the coordinate
    sums of the basis of Ker(I - A), and ker(iota) = kZ with k the order
    of iota_1, read off ExtS1 and ExtW1 (both 0 when it is infinite); the
    node is exact iff g = k, which is checked.  The rest holds by
    construction: j sends e_1, G1's relation, to 0; C = ``s._lift`` is a
    Hermite basis of ker s, independent (j is injective) and spanning
    (exactness at G2); s and iota have free sources.  A matrix of side
    above :data:`MAX_SEQUENCE_SIDE` raises ``ValueError`` before any
    elimination.
    """
    a = _require_valid(a)
    n = a.n
    if n > MAX_SEQUENCE_SIDE:
        raise ValueError(f"the five-term sequence takes a side of at most "
                         f"{MAX_SEQUENCE_SIDE}, got {n}")
    ia = _i_minus_rows(a)
    g3 = PresentedGroup(1)
    g4 = PresentedGroup(n, _hat_rows(ia))
    g5 = PresentedGroup(n, ia)
    iota = GroupHom(g3, g4, [r[:1] for r in ia])  # (I - A) e_1
    q = GroupHom(g4, g5, intmat._identity_rows(n))
    first = g5._relations[0]
    if (g4._relations != [[x - y for x, y in zip(c, first)]
                          for c in g5._relations]
            or iota._columns != [first]
            or q._rows != intmat._identity_rows(n)):
        raise VerificationError("I - A^hat, iota and q do not match "
                                "(I - A)(I - R_1)")
    g4._canonical, g5._canonical = ext_s1, ext_w1 = \
        a._strong[0], a._weak[0]
    ker_a, s, _ = _sequence_kernels(ia, ext_w1, ext_s1, g3)
    if gcd(*map(sum, ker_a)) != order_from_quotient(ext_s1, ext_w1):
        raise VerificationError("the coordinate sums of Ker(I - A) do not "
                                "generate the kernel of iota")
    coeffs, g2, m = s._lift, s.source, len(ker_a)
    g1 = PresentedGroup._on_columns(1 + len(coeffs),
                                    [[1] + [0] * len(coeffs)])  # e_1
    # e_1 maps to 0, B c to c
    j = GroupHom(g1, g2, intmat._transpose([[0] * m] + coeffs, m))
    return FiveTermSequence((g1, g2, g3, g4, g5), (j, s, iota, q))


# Largest matrix side the generators and realize_k0 build.  At this side
# a generator takes at most 0.2 s, and realize_k0 with its verification up
# to 0.8 s and 120 MB (2-core x86-64, Python 3.11); the side of
# gen_amplified is the product of its arguments and that of realize_k0
# grows linearly in the factors, so larger matrices are refused before any
# row is allocated.
MAX_SIDE = 1000


def _refuse_past_cap(side: int) -> None:
    if side > MAX_SIDE:
        raise ValueError(f"generators build a side of at most {MAX_SIDE}, "
                         f"got {side}")


def _square(n: int, fill: int) -> list[list[int]]:
    """n rows of n entries, each ``fill``."""
    return [[fill] * n for _ in range(n)]


def gen_cuntz(n: int) -> ZeroOneMatrix:
    """All-ones n x n matrix (the Cuntz algebra O_n); needs n >= 2."""
    if n < 2:
        raise ValueError("Cuntz matrices need n >= 2")
    _refuse_past_cap(n)
    return validate(_square(n, 1))


def gen_amplified(n: int, k: int) -> ZeroOneMatrix:
    """Block matrix presenting O_n tensor (k x k matrices); size nk x nk.

    Top-right block is all ones, the subdiagonal blocks are identities:

        [ 0   ...  0  [n] ]
        [ I        .   0  ]
        [     .    .   .  ]
        [       I  .   0  ]
    """
    if n < 2:
        raise ValueError("amplified matrices need n >= 2")
    if k < 1:
        raise ValueError("amplification factor must be >= 1")
    _refuse_past_cap(n * k)
    m = _square(n * k, 0)
    for i in range(n):
        m[i][(k - 1) * n:] = [1] * n
    for i in range(n, n * k):
        m[i][i - n] = 1
    return validate(m)


# Most draws gen_random_irreducible may expect: a draw is a permutation,
# and redrawn, with probability (1 - density)^(n(n - 1)), and one of side
# 1000 takes about 0.14 s (2-core x86-64, Python 3.11).
MAX_DRAWS = 100


def gen_random_irreducible(n: int, density: float,
                           seed: int) -> ZeroOneMatrix:
    """Random valid matrix: a Hamiltonian cycle plus density-driven edges.

    The cycle guarantees irreducibility; candidates that come out as
    permutation matrices are redrawn, deterministically for a fixed seed,
    and a density expecting over :data:`MAX_DRAWS` draws raises
    ``ValueError`` before any.
    """
    if n < 2:
        raise ValueError("random matrices need n >= 2")
    if not 0 < density <= 1:
        raise ValueError("density must lie in (0, 1]")
    _refuse_past_cap(n)
    if (1 - (1 - density) ** (n * (n - 1))) * MAX_DRAWS < 1:
        raise ValueError(f"density {density} at side {n} expects more than "
                         f"{MAX_DRAWS} draws before one is not a "
                         f"permutation matrix")
    rng = random.Random(seed)
    while True:
        m = _square(n, 0)
        for i in range(n):
            m[i][(i + 1) % n] = 1
        for row in m:
            for j in range(n):
                if not row[j] and rng.random() < density:
                    row[j] = 1
        if _is_permutation(m):
            continue
        return validate(m)
