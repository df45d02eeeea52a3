"""Invariants of Cuntz-Krieger algebras computed from their 0-1 matrices.

A Cuntz-Krieger algebra O_A is determined by an N x N irreducible
non-permutation matrix A with entries in {0, 1}.  All of its K-theoretic
data reduces to exact integer linear algebra on matrices derived from A:

  ==============  =====================================================
  K_0             cokernel of I - A^t  (canonically = cokernel of I - A)
  K_1             kernel of I - A  (free)
  Ext weak 1/0    cokernel / kernel of I - A
  Ext strong 1    cokernel of I - A^hat,  A^hat = A + R_1 - A @ R_1
  Ext strong 0    kernel of the ones-row augmentation of I - A  (free)
  ==============  =====================================================

where R_1 has an all-ones first row and zeros elsewhere.  The homotopy
groups of the automorphism group Aut(O_A) and of its stabilization are
closed tensor/Tor expressions in those six groups, and the pair
(K_0, Ext strong 1) decides isomorphism of the algebras.

The class iota_1 of (I - A) e_1 in Ext strong 1 has Ext weak 1 as its
quotient.  The report reads its order off one more Smith diagonal, of
I - A^hat with (I - A) e_1 appended as a column: that cokernel is the
quotient by the class, and :func:`ckinv.presented.order_from_quotient`
turns it into the order, the same rule :meth:`GroupElement.order` uses
on the element :func:`iota_one`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from . import intmat
from .groups import FgAbGroup, free_abelian
from .presented import GroupElement, GroupHom, PresentedGroup, \
    is_exact_at, order_from_quotient, quotient_by_elements


class MatrixValidationError(ValueError):
    """Input matrix fails a Cuntz-Krieger hypothesis; ``reason`` says which."""

    def __init__(self, reason: str, message: str):
        super().__init__(message)
        self.reason = reason


@dataclass(frozen=True)
class ZeroOneMatrix:
    """Validated N x N irreducible non-permutation matrix over {0, 1}.

    The entries are held as a read-only boolean array, one byte each, so
    a held matrix costs N^2 bytes rather than 8 N^2; :attr:`entries`
    gives them as integers.
    """

    bits: np.ndarray

    @property
    def entries(self) -> np.ndarray:
        """The matrix as a new int64 array."""
        return self.bits.astype(np.int64)

    @property
    def n(self) -> int:
        return self.bits.shape[0]

    def __eq__(self, other):
        if not isinstance(other, ZeroOneMatrix):
            return NotImplemented
        return (self.bits.shape == other.bits.shape
                and bool((self.bits == other.bits).all()))

    def transpose(self) -> "ZeroOneMatrix":
        """The transposed matrix; validity is preserved."""
        return ZeroOneMatrix(self.bits.T.copy())


def _strongly_connected(a: np.ndarray) -> bool:
    """Every vertex reaches every vertex along edges i -> j with a[i,j] = 1."""
    n = a.shape[0]
    if n == 1:
        return bool(a[0, 0])  # a path must use at least one edge
    for adj in (a, a.T):
        seen = np.zeros(n, dtype=bool)
        seen[0] = True
        frontier = [0]
        while frontier:
            nxt = np.any(adj[frontier], axis=0) & ~seen
            seen |= nxt
            frontier = list(np.nonzero(nxt)[0])
        if not seen.all():
            return False
    return True


def validate(raw) -> ZeroOneMatrix:
    """Check the Cuntz-Krieger hypotheses, naming the violated one.

    Raises :class:`MatrixValidationError` with reason ``not-square``,
    ``bad-entry``, ``permutation`` or ``reducible``.
    """
    a = np.asarray(raw)
    if a.dtype == object or np.issubdtype(a.dtype, np.integer):
        try:
            a = a.astype(np.int64)
        except (OverflowError, TypeError, ValueError):
            raise MatrixValidationError(
                "bad-entry", "matrix entries must be integers in {0,1}")
    else:
        raise MatrixValidationError("bad-entry",
                                    "matrix entries must be integers")
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise MatrixValidationError(
            "not-square", f"matrix must be square, got shape {a.shape}")
    if a.size == 0:
        raise MatrixValidationError("not-square", "matrix must be non-empty")
    bad = np.nonzero((a != 0) & (a != 1))
    if bad[0].size:
        i, j = int(bad[0][0]), int(bad[1][0])
        raise MatrixValidationError(
            "bad-entry",
            f"entry outside {{0,1}} at row {i}, column {j}: {int(a[i, j])}")
    if (a.sum(axis=0) == 1).all() and (a.sum(axis=1) == 1).all():
        raise MatrixValidationError("permutation",
                                    "permutation matrices are excluded")
    if not _strongly_connected(a):
        raise MatrixValidationError(
            "reducible", "matrix is reducible: its digraph is not strongly "
                         "connected")
    a = a.astype(bool)
    a.setflags(write=False)
    return ZeroOneMatrix(a)


def ones_row_matrix(n: int) -> np.ndarray:
    """All-ones first row, zeros elsewhere (the matrix R_1)."""
    r = np.zeros((n, n), dtype=np.int64)
    r[0, :] = 1
    return r


def hat_matrix(a: ZeroOneMatrix) -> np.ndarray:
    """A + R_1 - A @ R_1; its first column is always e_1.

    The cokernel of I minus this matrix is the strong extension group.
    """
    m = a.entries
    return m + ones_row_matrix(a.n) - m @ ones_row_matrix(a.n)


def i_minus(m: np.ndarray) -> np.ndarray:
    return np.eye(m.shape[0], dtype=np.int64) - m


def augmented_matrix(a: ZeroOneMatrix) -> np.ndarray:
    """(N+1) x N matrix: all-ones row stacked on I - A.

    Its integer kernel is the sum-zero part of the kernel of I - A, which
    is the degree-0 strong extension group.
    """
    return np.vstack([np.ones((1, a.n), dtype=np.int64),
                      i_minus(a.entries)])


@dataclass(frozen=True)
class CKReport:
    """The full invariant bundle of one Cuntz-Krieger algebra."""

    n: int
    k0: FgAbGroup
    k1: FgAbGroup
    ext_w1: FgAbGroup
    ext_w0: FgAbGroup
    ext_s1: FgAbGroup
    ext_s0: FgAbGroup
    pi1_aut: FgAbGroup
    pi2_aut: FgAbGroup
    pi1_aut_stable: FgAbGroup
    pi2_aut_stable: FgAbGroup
    # order of iota_1, 0 if infinite: |T(ExtS1)| / |T(ExtS1/<iota_1>)|
    # when the free ranks agree, the quotient read off the Smith diagonal
    # of [I - A^hat | (I - A) e_1]; no transforms are computed
    iota_one_order: int

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "K0": self.k0.to_json(),
            "K1": self.k1.to_json(),
            "ExtW1": self.ext_w1.to_json(),
            "ExtW0": self.ext_w0.to_json(),
            "ExtS1": self.ext_s1.to_json(),
            "ExtS0": self.ext_s0.to_json(),
            "pi1_aut": self.pi1_aut.to_json(),
            "pi2_aut": self.pi2_aut.to_json(),
            "pi1_aut_stable": self.pi1_aut_stable.to_json(),
            "pi2_aut_stable": self.pi2_aut_stable.to_json(),
            "iota_one_order": self.iota_one_order,
        }

    def isomorphic_to(self, other: "CKReport") -> bool:
        """Whether the two algebras are isomorphic: the complete invariant
        (K_0, Ext strong 1) agrees, as in :func:`is_isomorphic_ck`."""
        return (self.k0, self.ext_s1) == (other.k0, other.ext_s1)

    def stably_isomorphic_to(self, other: "CKReport") -> bool:
        """Whether they are stably isomorphic: K_0 agrees, as in
        :func:`is_stably_isomorphic_ck`."""
        return self.k0 == other.k0


def _require_valid(a) -> ZeroOneMatrix:
    if not isinstance(a, ZeroOneMatrix):
        raise TypeError("expected a validated ZeroOneMatrix; call validate()")
    return a


def _base_groups(a: ZeroOneMatrix):
    """(k0, k1, ext_w1, ext_w0, ext_s1, ext_s0) for one matrix."""
    ia = i_minus(a.entries)
    k0 = intmat.cokernel_invariants(ia.T)
    ext_w1 = intmat.cokernel_invariants(ia)
    if k0 != ext_w1:
        raise ArithmeticError("Smith forms of I-A and I-A^t disagree")
    free = free_abelian(ext_w1.free_rank)  # kernel rank, by rank-nullity
    diag = intmat.smith_diagonal(augmented_matrix(a))
    ext_s0 = free_abelian(a.n - sum(1 for d in diag if d))
    ext_s1 = intmat.cokernel_invariants(i_minus(hat_matrix(a)))
    return k0, free, ext_w1, free, ext_s1, ext_s0


# Largest matrix side invariants accepts.  Its five Smith diagonals take
# time growing about as the fourth power of the side: over densities 0.1,
# 0.3 and 0.6 with three seeds each, the slowest random matrix took 6.4 s
# at side 200, 33 s at side 300 and 47 s at side 330, and one at side 350
# took 58 s (2-core x86-64, Python 3.11), so larger matrices are refused
# up front.
MAX_INVARIANTS_SIDE = 330


def invariants(a: ZeroOneMatrix) -> CKReport:
    """Compute every invariant in one report.

    A matrix of side above :data:`MAX_INVARIANTS_SIDE` raises
    ``ValueError`` before any elimination.
    """
    a = _require_valid(a)
    if a.n > MAX_INVARIANTS_SIDE:
        raise ValueError(f"invariants take a side of at most "
                         f"{MAX_INVARIANTS_SIDE}, got {a.n}")
    k0, k1, ext_w1, ext_w0, ext_s1, ext_s0 = _base_groups(a)
    iota = iota_one(a)
    return CKReport(
        n=a.n,
        k0=k0, k1=k1,
        ext_w1=ext_w1, ext_w0=ext_w0,
        ext_s1=ext_s1, ext_s0=ext_s0,
        pi1_aut=_pi(ext_s1, ext_s0, k0, k1, 1),
        pi2_aut=_pi(ext_s1, ext_s0, k0, k1, 2),
        pi1_aut_stable=_pi(ext_w1, ext_w0, k0, k1, 1),
        pi2_aut_stable=_pi(ext_w1, ext_w0, k0, k1, 2),
        iota_one_order=order_from_quotient(
            ext_s1, quotient_by_elements(iota.group, [iota])),
    )


def _pi(ext1: FgAbGroup, ext0: FgAbGroup, k0: FgAbGroup, k1: FgAbGroup,
        n: int) -> FgAbGroup:
    """Homotopy group of the automorphism group from its Ext/K data.

    Degree 1 is (Ext^1 x K_0) + (Ext^0 x K_1); degree 2 swaps the K's and
    picks up Tor(Ext^1, K_0).  The Tor terms vanish in degree 1 because
    Ext^0 and K_1 are free.
    """
    if n == 1:
        return ext1.tensor(k0).direct_sum(ext0.tensor(k1))
    if n == 2:
        return (ext1.tensor(k1).direct_sum(ext0.tensor(k0))
                .direct_sum(ext1.tor(k0)))
    raise ValueError(f"homotopy degree must be 1 or 2, got {n}")


def pi_aut(a: ZeroOneMatrix, n: int) -> FgAbGroup:
    """pi_n of Aut(O_A) for n in {1, 2}."""
    a = _require_valid(a)
    k0, k1, _, _, ext_s1, ext_s0 = _base_groups(a)
    return _pi(ext_s1, ext_s0, k0, k1, n)


def pi_aut_stable(a: ZeroOneMatrix, n: int) -> FgAbGroup:
    """pi_n of Aut(O_A tensor compacts) for n in {1, 2}.

    Stabilization replaces the strong extension groups by the weak ones;
    degrees 1 and 2 then agree.
    """
    a = _require_valid(a)
    k0, k1, ext_w1, ext_w0, _, _ = _base_groups(a)
    return _pi(ext_w1, ext_w0, k0, k1, n)


def is_isomorphic_ck(a: ZeroOneMatrix, b: ZeroOneMatrix) -> bool:
    """Whether O_A and O_B are isomorphic.

    Decided by the complete invariant: the cokernels of I - A and of
    I - A^hat must both match.
    """
    a, b = _require_valid(a), _require_valid(b)
    if (intmat.cokernel_invariants(i_minus(a.entries))
            != intmat.cokernel_invariants(i_minus(b.entries))):
        return False
    return (intmat.cokernel_invariants(i_minus(hat_matrix(a)))
            == intmat.cokernel_invariants(i_minus(hat_matrix(b))))


def is_stably_isomorphic_ck(a: ZeroOneMatrix, b: ZeroOneMatrix) -> bool:
    """Whether O_A and O_B become isomorphic after tensoring with compacts.

    Equivalent to K_0(O_A) = K_0(O_B), and to agreement of the stabilized
    homotopy groups.
    """
    a, b = _require_valid(a), _require_valid(b)
    return (intmat.cokernel_invariants(i_minus(a.entries))
            == intmat.cokernel_invariants(i_minus(b.entries)))


def ext_strong_presentation(a: ZeroOneMatrix) -> PresentedGroup:
    """Z^N modulo the columns of I - A^hat (the strong extension group)."""
    a = _require_valid(a)
    return PresentedGroup(a.n, i_minus(hat_matrix(a)))


def k0_pair(a: ZeroOneMatrix) -> tuple[PresentedGroup, GroupElement]:
    """The K_0 presentation (Z^N modulo I - A^t) with the unit class in it.

    The unit of O_A is the sum of the vertex projections, so its class is
    the all-ones vector; together with K_0 it determines both extension
    groups: the strong one is Z + K_0/(unit class).
    """
    a = _require_valid(a)
    p = PresentedGroup(a.n, i_minus(a.entries).T)
    return p, p.element([1] * a.n)


def iota_one(a: ZeroOneMatrix) -> GroupElement:
    """The class of (I - A) e_1 in the strong extension group.

    Its order together with the group itself is a complete isomorphism
    invariant; the quotient by this class is the weak extension group.
    """
    a = _require_valid(a)
    e1 = np.zeros(a.n, dtype=np.int64)
    e1[0] = 1
    return ext_strong_presentation(a).element(i_minus(a.entries) @ e1)


@dataclass(frozen=True)
class FiveTermSequence:
    """0 -> G1 -> G2 -> G3 -> G4 -> G5 -> 0 with its verification verdicts.

    Groups: Ker(I-A^hat)/(Z e_1), Ker(I-A), Z, coker(I-A^hat), coker(I-A).
    Maps: j (induced by I - R_1 on kernel coordinates), s (coordinate
    sum), iota (1 maps to the class of (I-A) e_1) and q (identity on
    generator coordinates).  ``nodes_exact`` lists, in order: injectivity
    of j, exactness at G2, G3, G4, and surjectivity of q.
    """

    groups: tuple[PresentedGroup, ...]
    maps: tuple[GroupHom, ...]
    map_names: tuple[str, ...]
    nodes_exact: tuple[bool, ...]
    verified: bool


# Largest matrix side five_term_sequence accepts.  The entries of its
# Hermite kernel transforms swell steeply with the side: over densities
# 0.1, 0.3 and 0.6 with three seeds each, the slowest random matrix took
# 49 s at side 109 and 63 s at side 110 (2-core x86-64, Python 3.11), so
# larger matrices are refused up front.
MAX_SEQUENCE_SIDE = 109


def five_term_sequence(a: ZeroOneMatrix) -> FiveTermSequence:
    """Build and verify the extension-group exact sequence of O_A.

    A False verdict anywhere signals an implementation bug, never bad
    input; every valid matrix yields an exact sequence.  A matrix of side
    above :data:`MAX_SEQUENCE_SIDE` raises ``ValueError`` before any
    elimination.
    """
    a = _require_valid(a)
    n = a.n
    if n > MAX_SEQUENCE_SIDE:
        raise ValueError(f"the five-term sequence takes a side of at most "
                         f"{MAX_SEQUENCE_SIDE}, got {n}")
    ia = i_minus(a.entries)
    ia_hat = i_minus(hat_matrix(a))
    ir1 = i_minus(ones_row_matrix(n))

    ker_hat = intmat.kernel_basis(ia_hat)
    ker_a = intmat.kernel_basis(ia)
    e1 = np.zeros(n, dtype=np.int64)
    e1[0] = 1
    e1_coords = intmat.lattice_solve(ker_hat, e1)
    if e1_coords is None:  # e_1 is always in Ker(I - A^hat)
        raise RuntimeError("e_1 not found in Ker(I - A^hat)")

    g1 = PresentedGroup(ker_hat.shape[1], e1_coords[:, None])
    g2 = PresentedGroup(ker_a.shape[1])
    g3 = PresentedGroup(1)
    g4 = PresentedGroup(n, ia_hat)
    g5 = PresentedGroup(n, ia)

    j_cols = []
    for b in ker_hat.T:
        x = intmat.lattice_solve(ker_a, ir1 @ b)
        if x is None:
            raise RuntimeError("(I - R_1) does not map Ker(I - A^hat) "
                               "into Ker(I - A)")
        j_cols.append(x)
    j_mat = (np.stack(j_cols, axis=1) if j_cols
             else intmat.zeros(ker_a.shape[1], 0))
    s_mat = ker_a.sum(axis=0)[None, :] if ker_a.size else \
        intmat.zeros(1, ker_a.shape[1])

    j = GroupHom(g1, g2, j_mat)
    s = GroupHom(g2, g3, s_mat)
    iota = GroupHom(g3, g4, (ia @ e1)[:, None])
    q = GroupHom(g4, g5, np.eye(n, dtype=np.int64))

    wells = all(h.is_well_defined() for h in (j, s, iota, q))
    nodes = (
        j.is_injective(),
        is_exact_at(j, s),
        is_exact_at(s, iota),
        is_exact_at(iota, q),
        q.is_surjective(),
    )
    return FiveTermSequence(
        groups=(g1, g2, g3, g4, g5),
        maps=(j, s, iota, q),
        map_names=("j", "s", "iota", "q"),
        nodes_exact=nodes,
        verified=wells and all(nodes),
    )


def gen_cuntz(n: int) -> ZeroOneMatrix:
    """All-ones n x n matrix (the Cuntz algebra O_n); needs n >= 2."""
    if n < 2:
        raise ValueError("Cuntz matrices need n >= 2")
    return validate(np.ones((n, n), dtype=np.int64))


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
    m = np.zeros((n * k, n * k), dtype=np.int64)
    m[:n, (k - 1) * n:] = 1
    for block in range(k - 1):
        r = (block + 1) * n
        c = block * n
        m[r:r + n, c:c + n] = np.eye(n, dtype=np.int64)
    return validate(m)


def gen_random_irreducible(n: int, density: float,
                           seed: int) -> ZeroOneMatrix:
    """Random valid matrix: a Hamiltonian cycle plus density-driven edges.

    The cycle guarantees irreducibility; candidates that come out as
    permutation matrices are rejected and redrawn, so the call always
    terminates with a valid matrix, deterministically for a fixed seed.
    """
    if n < 2:
        raise ValueError("random matrices need n >= 2")
    if not 0 < density <= 1:
        raise ValueError("density must lie in (0, 1]")
    rng = random.Random(seed)
    while True:
        m = np.zeros((n, n), dtype=np.int64)
        for i in range(n):
            m[i, (i + 1) % n] = 1
        for i in range(n):
            for j in range(n):
                if not m[i, j] and rng.random() < density:
                    m[i, j] = 1
        if (m.sum(axis=0) == 1).all() and (m.sum(axis=1) == 1).all():
            continue
        return validate(m)
