"""Exact integer linear algebra on dense matrices.

A matrix is given as rows of Python ints, or as anything whose
``tolist()`` gives such rows (booleans are 0 and 1), such as a numpy
array, for every routine here and for :func:`ckinv.ck.validate`; no
numpy is imported to read it (see :func:`_shaped`).  Every computation
is exact, with no magnitude bound.  This module has the normal forms and
lattice routines:

  * :func:`smith_normal_form`   -- u @ m @ v = s, unimodular u, v,
    non-negative diagonal forming a divisibility chain
  * :func:`smith_diagonal`      -- the diagonal of s alone
  * :func:`hermite_normal_form` -- column-style echelon form m @ u = h
  * :func:`kernel_basis`, :func:`cokernel_invariants`
  * :func:`lattice_contains`, :func:`lattice_solve`

Every elimination runs on lists of Python ints, and every result is
Python ints, down to the rows of u and columns of v that
:class:`SmithDecomposition` keeps and the columns of h and u of
:class:`HermiteDecomposition`.  Only their arrays ``u``, ``s``, ``v`` and
``h``, object arrays built on first access for the benchmark, import
numpy (the ``arrays`` extra).
:func:`smith_normal_form` runs a min-abs-pivot Smith loop on the whole
matrix with its transforms, each carried in the rows or columns it
transforms, as in the augmented form [m | I] (Cohen, Sec. 2.4), so that
every operation is written once; so does the Hermite loop.
:func:`smith_diagonal` first eliminates unit
pivots, each in the shortest row that holds one and there in the
shortest column, keeping the row and column nonzero counts as the Schur
updates change them.  On the dense core left, fraction-free (Bareiss)
elimination gives the rank r and a gcd D of r x r minors, which every
diagonal entry divides; it takes two pivots per pass (Bareiss, Math.
Comp. 22 (1968)).  The core is then diagonalized modulo D: unit
pivots by one Schur pass each, the rest by extended-gcd (Bezout) steps.
Entries never grow past D there, where the min-abs loop needs many
rounds per diagonal entry.  The diagonal entries are read off as gcds
with D, put into a divisibility chain, and copies of D past the rank are
dropped.  On a square nonsingular core D = |det| is the product of the
diagonal, so only the first r - 1 entries are read, modulo a gcd of
(r-1) x (r-1) minors, which is usually 1.  See Hafner and McCurley,
SIAM J. Comput. 20 (1991), and Cohen, A Course in Computational
Algebraic Number Theory, Alg. 2.4.14.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain, compress
from math import gcd, prod
from operator import index
from typing import TYPE_CHECKING

from .groups import FgAbGroup, _Frozen, _chain

if TYPE_CHECKING:
    import numpy as np


def _listed(seq, what: str) -> list | tuple:
    """A list or tuple as it is, anything else through its ``tolist()``,
    which must give one."""
    if type(seq) not in (list, tuple):
        seq = seq.tolist() if hasattr(seq, "tolist") else seq
        if type(seq) not in (list, tuple):
            raise ValueError(f"{what} is not a sequence: {type(seq).__name__}")
    return seq


def _ints(seq, what: str) -> list | tuple:
    """A row or vector as Python ints; see :func:`_shaped`."""
    seq = _listed(seq, what)
    if {int}.issuperset(map(type, seq)):
        return seq
    out = []
    for x in seq:
        if not isinstance(x, int):  # a bool is an int
            x = x.tolist() if hasattr(x, "tolist") else x
            if type(x) in (list, tuple):
                raise ValueError(f"{what} holds a sequence, not an integer")
        out.append(index(x))  # TypeError for a float, str, ...
    return out


def _shaped(data) -> tuple[list | tuple, int]:
    """(rows of Python ints, column count) of a matrix; the eliminations
    only read the rows.

    A list or tuple of equal-length list or tuple rows of Python ints is
    returned as it is.  Anything else is read, and so is each of its rows
    and entries, through ``tolist()`` where it has one (numpy arrays and
    scalars, ``memoryview``, ``array.array``), with no numpy import;
    booleans are 0 and 1.  A matrix with no rows keeps its column count
    only in the second item, from its ``shape`` if it has one.  An entry
    that is not an integer raises ``TypeError``, ragged or non-2-D input
    ``ValueError``.
    """
    if not (type(data) in (list, tuple)
            and {list, tuple}.issuperset(map(type, data))
            and {int}.issuperset(map(type, chain.from_iterable(data)))):
        shape = getattr(data, "shape", ())
        if len(shape) > 2:
            raise ValueError(f"expected a 2-D matrix, got shape {shape}")
        data = [_ints(row, "matrix row") for row in _listed(data, "matrix")]
        if not data:
            return data, shape[1] if len(shape) == 2 else 0
    if len(set(map(len, data))) > 1:
        raise ValueError("matrix rows differ in length")
    return data, len(data[0]) if data else 0


def _transpose(vectors, length: int) -> list[list[int]]:
    """The columns of the matrix with these rows, or the rows of the one
    with these columns, as new lists; ``length``, the length of each
    vector given, is the count returned when none is given."""
    if not vectors:
        return [[] for _ in range(length)]
    return [list(x) for x in zip(*vectors)]


def _columns(data) -> tuple[list[list[int]], int]:
    """(columns as new lists of Python ints, row count) of a matrix, with
    the checks of :func:`_shaped`."""
    rows, width = _shaped(data)
    return _transpose(rows, width), len(rows)


def _vector(data, length: int) -> tuple[int, ...]:
    """A vector of ``length`` Python ints, as a tuple, read as
    :func:`_shaped` reads a row."""
    v = tuple(_ints(data, "vector"))
    if len(v) != length:
        raise ValueError(f"expected length {length}, got {len(v)}")
    return v


def _identity_rows(n: int) -> list[list[int]]:
    return [[0] * i + [1] + [0] * (n - 1 - i) for i in range(n)]


def _object_array(values, shape: tuple[int, ...]) -> np.ndarray:
    """An object array of the given shape holding these Python ints, given
    as nested sequences in row-major order."""
    import numpy as np
    return np.array(values, dtype=object).reshape(shape)


def _from_columns(columns, height: int) -> np.ndarray:
    """The height x len(columns) object array with these columns."""
    return _object_array(columns, (len(columns), height)).T


class SmithDecomposition(_Frozen):
    """u @ m @ v = s with u, v unimodular and s in Smith normal form.

    ``diagonal`` lists the min(rows, columns) diagonal entries of s.  It,
    the rows of u and the columns of v hold Python ints; the arrays
    ``u``, ``s`` and ``v`` are built from them on first access.
    """

    _fields = ("diagonal", "u_rows", "v_columns")
    _hidden = ("u_rows", "v_columns")

    def __init__(self, diagonal: tuple[int, ...], u_rows: list[list[int]],
                 v_columns: list[list[int]]) -> None:
        self._set(diagonal, u_rows, v_columns)

    @cached_property
    def u(self) -> np.ndarray:
        return _object_array(self.u_rows, (len(self.u_rows),) * 2)

    @cached_property
    def s(self) -> np.ndarray:
        rows, cols = len(self.u_rows), len(self.v_columns)
        diag = self.diagonal
        return _object_array([[diag[i] if i == j else 0 for j in range(cols)]
                              for i in range(rows)], (rows, cols))

    @cached_property
    def v(self) -> np.ndarray:
        return _from_columns(self.v_columns, len(self.v_columns))

    @property
    def rank(self) -> int:
        return sum(1 for d in self.diagonal if d)


def _support(row: list[int]) -> list[tuple[int, int]]:
    """The (index, entry) pairs of the nonzero entries of a row."""
    return [(c, x) for c, x in enumerate(row) if x]


def _subtract(row: list[int], q: int, pairs) -> None:
    """row -= q * (the row whose nonzero entries ``pairs`` lists), in place.

    Only the nonzero entries are visited; on transforms and on the rows
    of a sparse matrix that skips most of the work.
    """
    for c, x in pairs:
        row[c] -= q * x


def _reduce(vectors: list[list[int]], i: int, r: int, ks) -> None:
    """Subtract from each vector k in ks the multiple of vector i that
    floors its entry r against the pivot ``vectors[i][r]``: a Euclidean
    step on the rows of a matrix, or on its columns held as lists."""
    p = vectors[i][r]
    pairs = _support(vectors[i])
    for k in ks:
        q = vectors[k][r] // p
        if q:
            _subtract(vectors[k], q, pairs)


def _smith_rows(a: list[list[int]], u=None, vt=None) -> list[int]:
    """Min-abs-pivot Smith elimination of equal-length int rows.

    Returns the diagonal with zeros omitted.  The pivot is the
    smallest-magnitude nonzero entry, first in row-major order on ties,
    which keeps intermediate values small; a finished pivot row and column
    are sliced off.  Given ``u`` and ``vt`` (rows of v transposed), each
    row of u rides on its row of ``a`` past the live width w, and the rows
    of v under the columns, so each operation is written once; u and vt
    are filled in place so that u @ m @ v is diagonal.  Consumes ``a``; no
    two rows of ``a``, ``u`` or ``vt`` may be the same list object.
    """
    w = len(a[0]) if a else 0
    for row, tail in zip(a, u or ()):
        row += tail
    v = [list(x) for x in zip(*(vt or ()))]  # rows of v, w entries live
    diag, u_done, v_done = [], [], []
    while a and w:
        i, p = None, 0
        for k, row in enumerate(a):
            least = min(map(abs, filter(None, row[:w])), default=0)
            if least and (not p or least < p):
                i, p = k, least
                if p == 1:
                    break
        if i is None:
            break
        j = next(j for j, x in enumerate(a[i]) if x == p or x == -p)
        a[0], a[i] = a[i], a[0]
        for row in chain(a, v):
            row[0], row[j] = row[j], row[0]
        if a[0][0] < 0:
            a[0] = [-x for x in a[0]]
        _reduce(a, 0, 0, range(1, len(a)))
        qs = _support([0] + [x // p for x in a[0][1:w]])
        for row in chain(a, v):
            if row[0]:
                _subtract(row, row[0], qs)
        if p != 1 and (any(row[0] for row in a[1:]) or any(a[0][1:w])):
            continue  # remainders left; re-pivot on a smaller entry
        if p > 1:
            bad = next((r for r in a[1:] if any(x % p for x in r[1:w])), None)
            if bad is not None:
                a[0] = [x + y for x, y in zip(a[0], bad)]
                continue  # pivot must divide the remaining block
        diag.append(p)
        u_done.append(a[0][w:])
        v_done.append([row[0] for row in v])
        a = [row[1:] for row in a[1:]]
        v = [row[1:] for row in v]
        w -= 1
    if u is not None:
        u[:] = u_done + [row[w:] for row in a]
    if vt is not None:
        vt[:] = v_done + _transpose(v, len(vt) - len(v_done))
    return diag


def smith_normal_form(m) -> SmithDecomposition:
    """Smith normal form with recorded unimodular transforms.

    Returns a :class:`SmithDecomposition` with ``u @ m @ v == s``, the
    diagonal of s non-negative and each entry dividing the next.  Works for
    any rectangular matrix, including empty ones, and is deterministic:
    the pivot is always the smallest-magnitude nonzero entry (first in
    row-major order on ties), which keeps intermediate values small.
    """
    rows, width = _shaped(m)
    u, vt = _identity_rows(len(rows)), _identity_rows(width)
    diag = _smith_rows([list(row) for row in rows], u, vt)
    size = min(len(rows), width)
    return SmithDecomposition(tuple(diag + [0] * (size - len(diag))), u, vt)


def _unit_prepass(m) -> tuple[int, list[list[int]]]:
    """Eliminate unit pivots on int rows; (count, dense core left).

    Each step pivots on a +-1 entry of the shortest live row that holds
    one, and in that row on the unit whose column is shortest: a cheap
    stand-in for least Markowitz cost (row nnz - 1) * (column nnz - 1).
    It subtracts multiples of the pivot row from the rows hit by the
    pivot column.  A unit pivot makes that Schur update exact over the
    integers, and then column operations clear the pivot row without
    touching any other row, so the pivot row and column drop out and
    contribute one diagonal 1.  The rows are copied once and updated in
    place; the nonzero count of every row and column changes only where
    an update makes an entry zero or nonzero, and a row is searched for a
    unit again only once an update has touched it, a zero row never.  The
    core is what remains once no live row holds a unit, with empty rows
    and columns dropped: they contribute only zeros.  The rows of ``m``
    are read, not changed.
    """
    a = [list(row) for row in m]
    if not a:
        return 0, []
    height, width = len(a), len(a[0])
    span = range(width)
    row_nnz = [width - row.count(0) for row in a]
    col_nnz = [height - col.count(0) for col in zip(*a)]
    live = list(range(height))
    maybe_unit = set(compress(live, row_nnz))  # not yet seen to hold none
    ones = 0
    while maybe_unit:
        i = min(maybe_unit, key=row_nnz.__getitem__)
        maybe_unit.discard(i)
        prow = a[i]
        pairs = [(c, prow[c]) for c in compress(span, prow)]
        units = [c for c, x in pairs if x == 1 or x == -1]
        if not units:
            continue
        j = min(units, key=col_nnz.__getitem__)
        unit = prow[j]
        live.remove(i)
        for c, _ in pairs:
            col_nnz[c] -= 1
        if col_nnz[j]:
            for k in live:
                row = a[k]
                if not row[j]:
                    continue
                f = row[j] * unit
                nnz = row_nnz[k]
                for c, x in pairs:
                    y = row[c]
                    z = y - f * x
                    row[c] = z
                    if y:
                        if not z:
                            nnz -= 1
                            col_nnz[c] -= 1
                    elif z:
                        nnz += 1
                        col_nnz[c] += 1
                row_nnz[k] = nnz
                maybe_unit.add(k)
        ones += 1
    keep = [c > 0 for c in col_nnz]
    return ones, [list(compress(a[k], keep)) for k in live if row_nnz[k]]


def _bareiss(a: list[list[int]]) -> list[int]:
    """Minor gcds g_1, ..., g_r of int rows of rank r; consumes a.

    Fraction-free elimination with row pivoting: after k pivots every
    entry left is a (k+1) x (k+1) minor of the original rows, so each
    division by the previous pivot is exact.  g_k is the gcd of the k x k
    minors that the k-th pivot's row and column hold, the pivot among
    them, so it is nonzero and d_1 ... d_k divides it (d_i the Smith
    diagonal).  A column with no pivot is skipped.

    A pass takes two pivots where it can (Bareiss's two-step method, Math.
    Comp. 22 (1968)).  Pivot row r, p = r[0], gives each other row its
    next column-1 entry t = (p row[1] - row[0] r[1]) / prev; the first row
    with t != 0 is the second pivot row s, p2 its t.  The others go two
    levels down at once, to (p2 y + c r[j] - t s[j]) / prev for j >= 2,
    with c = (row[1] s[0] - s[1] row[0]) / prev: 3 products and 1 exact
    division (Sylvester's identity) where two passes take 4 and 2.  A pass
    on fewer than 3 rows or 2 columns, or with no t != 0, takes one pivot.
    """
    gs, prev = [], 1
    while a and a[0]:
        k = next((k for k, row in enumerate(a) if row[0]), None)
        if k is None:
            for row in a:
                del row[0]
            continue
        prow = a.pop(k)
        p = prow.pop(0)
        xs = [row.pop(0) for row in a]
        gs.append(gcd(p, *prow, *xs))
        if len(a) > 1 and prow:
            r1 = prow[0]
            ts = [(p * row[0] - x * r1) // prev for row, x in zip(a, xs)]
            k = next((k for k, t in enumerate(ts) if t), None)
            if k is not None:
                srow, s0, p2 = a.pop(k), xs.pop(k), ts.pop(k)
                s1 = srow.pop(0)
                del prow[0]
                gs.append(gcd(p2, *ts, *((p * y - s0 * z) // prev
                                         for y, z in zip(srow, prow))))
                for i, (row, x, t) in enumerate(zip(a, xs, ts)):
                    c = (row.pop(0) * s0 - s1 * x) // prev
                    a[i] = [(p2 * y + c * z - t * w) // prev
                            for y, z, w in zip(row, prow, srow)]
                prev = p2
                continue
        for i, (row, x) in enumerate(zip(a, xs)):
            a[i] = [(p * y - x * z) // prev for y, z in zip(row, prow)]
        prev = p
    return gs


def _bezout(x: int, y: int) -> tuple[int, int, int]:
    """(g, s, t) with s x + t y = g = gcd(x, y), for x, y > 0."""
    g = gcd(x, y)
    s = pow(x // g, -1, y // g)
    return g, s, (g - s * x) // y


def _diagonal_mod(a: list[list[int]], d: int) -> list[int]:
    """gcd(e, d) for the diagonal entries e of int rows diagonalized mod d.

    The pivot is the entry of least gcd with d, the first unit found if
    any; a unit is scaled to 1 by its inverse.  Row operations clear the
    pivot's column: a multiple of the pivot row where the pivot divides
    the entry, else an extended-gcd (Bezout) step, a 2 x 2 unimodular
    operation that turns (x, b) into (gcd(x, b), 0).  Entries of the pivot
    row that the pivot does not divide take Bezout column steps, which
    may refill the column, so the passes repeat; the pivot only shrinks,
    so they end.  Then the pivot divides its row, column operations clear
    that without touching any other row, and the pivot row and column
    drop out.  A unit pivot thus costs one Schur pass.  Once every entry
    left is 0 mod d, the entries still to come are 0 and are not listed.
    Consumes ``a``, whose entries must lie in [0, d).
    """
    out = []
    while a and a[0]:
        least, i, j = d, None, None
        for k, row in enumerate(a):
            for c, x in enumerate(row):  # gcd(0, d) = d is never least
                if x and (g := gcd(x, d)) < least:
                    least, i, j = g, k, c
                    if g == 1:
                        break
            if least == 1:
                break
        if i is None:
            break
        prow = a.pop(i)
        x = prow[j]
        if least == 1:
            inv = pow(x, -1, d)
            prow, x = [z * inv % d for z in prow], 1
        refilled = True
        while refilled:
            for k, row in enumerate(a):  # column j, by row operations
                b = row[j]
                if not b:
                    continue
                if b % x == 0:
                    q = b // x
                    a[k] = [(y - q * z) % d for y, z in zip(row, prow)]
                    continue
                g, s, t = _bezout(x, b)
                xg, bg = x // g, b // g
                prow, a[k] = ([(s * z + t * y) % d
                               for z, y in zip(prow, row)],
                              [(xg * y - bg * z) % d
                               for z, y in zip(prow, row)])
                x = g
            refilled = False
            for c, y in enumerate(prow):  # row j, by column operations
                if y % x:
                    g, s, t = _bezout(x, y)
                    xg, yg = x // g, y // g
                    for row in (prow, *a):
                        row[j], row[c] = ((s * row[j] + t * row[c]) % d,
                                          (xg * row[c] - yg * row[j]) % d)
                    x, refilled = g, True
        for row in a:
            del row[j]
        out.append(gcd(x, d))
    return out


def _leading_factors(a: list[list[int]], d: int, count: int) -> list[int]:
    """Smith diagonal entries d_1, ..., d_count of m x n int rows, given
    that they divide d; reduces ``a`` modulo d and consumes it.

    Z^m / (columns + d Z^m) is the direct sum over i <= m of the
    Z/gcd(d_i, d), with d_i = 0 past the rank.  Diagonalizing modulo d
    (:func:`_diagonal_mod`) presents the same group as the sum of the
    Z/gcd(e, d) over min(m, n) entries e, and of m - min(m, n) copies of
    Z/d.  Put into a divisibility chain, these gcd(e, d) are therefore
    the gcd(d_i, d) for i <= min(m, n); the first ``count`` are d_1, ...,
    d_count, and the copies of d after them are dropped.  d = 1 needs no
    elimination.
    """
    if d == 1:
        return [1] * count
    size = min(len(a), len(a[0]))
    for row in a:
        row[:] = [x % d for x in row]
    es = _diagonal_mod(a, d)
    chain = _chain([e for e in es if e > 1])
    chain = [1] * (len(es) - len(chain)) + chain + [d] * (size - len(es))
    return chain[:count]


def _modular_diagonal(a: list[list[int]]) -> list[int]:
    """Nonzero Smith diagonal d_1 | ... | d_r of equal-length int rows.

    :func:`_bareiss`, two pivots per pass (Bareiss, Math. Comp. 22
    (1968)), gives the rank r and minor gcds g_1, ..., g_r, with d_1 ...
    d_k dividing g_k.  So every d_i divides g_r, and the diagonal is read
    off the rows modulo g_r (:func:`_leading_factors`).  When the
    rows are square and nonsingular, g_r = |det| = d_1 ... d_r: then
    d_1, ..., d_(r-1) are read modulo g_(r-1), usually 1 or small, and
    d_r is the quotient.  Entries stay below the modulus throughout.
    A square core with one nonzero entry in each row and each column, as
    a realize output leaves, is a diagonal matrix up to permutations and
    signs: its diagonal is the chain of the absolute values of those
    entries, read with no elimination.  Consumes ``a``.
    """
    if not a or not a[0]:
        return []
    n = len(a)
    if len(a[0]) == n and all(row.count(0) == n - 1 for row in a):
        entries = [sum(row) for row in a]  # each row's one nonzero entry
        if len({row.index(x) for row, x in zip(a, entries)}) == n:
            return _chain(list(map(abs, entries)))
    gs = [1] + _bareiss([row[:] for row in a])  # g_0 = 1
    rank = len(gs) - 1
    if rank < len(a) or rank < len(a[0]):
        return _leading_factors(a, gs[-1], rank)
    head = _leading_factors(a, gs[-2], rank - 1)
    return head + [gs[-1] // prod(head)]


def smith_diagonal(m) -> tuple[int, ...]:
    """Diagonal of the Smith normal form, without transforms.

    Unit pivots are eliminated first on rows of Python ints (see
    :func:`_unit_prepass`); each gives a 1.  The dense core left over is
    diagonalized modulo a gcd of r x r minors, r its rank, both found by
    fraction-free elimination (see :func:`_modular_diagonal`), and zeros
    pad the result to ``min(m.shape)`` entries.
    """
    m, width = _shaped(m)
    ones, core = _unit_prepass(m)
    diag = [1] * ones + _modular_diagonal(core)
    size = min(len(m), width)
    return tuple(diag + [0] * (size - len(diag)))


def cokernel_invariants(m) -> FgAbGroup:
    """Canonical form of Z^rows / (column lattice of m).

    The free rank is rows - rank(m); the invariant factors are the Smith
    diagonal entries exceeding 1.
    """
    if type(m) not in (list, tuple):  # a list's rows are its items
        m = _shaped(m)[0]
    diag = smith_diagonal(m)
    rank = sum(1 for d in diag if d)
    return FgAbGroup(len(m) - rank, tuple(d for d in diag if d > 1))


class HermiteDecomposition(_Frozen):
    """Column-style Hermite form: m @ u = h with u unimodular.

    ``h`` is in column echelon form: the first nonzero entry of column j
    sits at row ``pivots[j][0]``, those rows strictly increasing, every
    pivot positive, and entries left of a pivot in its row reduced to
    [0, pivot).  Columns past ``rank`` are zero.  The columns of h, of
    ``rows`` entries each, and those of u are held as lists of Python
    ints; the arrays ``h`` and ``u`` are built from them on first access.
    """

    _fields = ("h_columns", "u_columns", "pivots", "rows")
    _hidden = ("h_columns", "u_columns")

    def __init__(self, h_columns: list[list[int]], u_columns: list[list[int]],
                 pivots: tuple[tuple[int, int], ...], rows: int) -> None:
        self._set(h_columns, u_columns, pivots, rows)

    @cached_property
    def h(self) -> np.ndarray:
        return _from_columns(self.h_columns, self.rows)

    @cached_property
    def u(self) -> np.ndarray:
        return _from_columns(self.u_columns, len(self.u_columns))

    @property
    def rank(self) -> int:
        return len(self.pivots)

    @property
    def kernel(self) -> list[list[int]]:
        """The columns of u past the rank: a basis of the integer kernel
        lattice {x : m @ x = 0}, since u is unimodular."""
        return self.u_columns[self.rank:]

    def solve(self, v) -> list[int] | None:
        """Integer x with (original matrix) @ x = v, as a list, or None.

        Forward substitution over the pivots of h; the solution is pulled
        back through u.
        """
        v = list(_vector(v, self.rows))
        x = [0] * len(self.u_columns)
        for r, c in self.pivots:
            col = self.h_columns[c]
            q, rem = divmod(v[r], col[r])
            if rem:
                return None
            if q:
                _subtract(v, q, _support(col))
                _subtract(x, -q, _support(self.u_columns[c]))
        return None if any(v) else x


def _hermite(columns, rows: int) -> HermiteDecomposition:
    """Hermite decomposition of the rows x len(columns) matrix with these
    int columns, which are read, not changed; see :func:`hermite_normal_form`.
    Each column of u rides under its column of h, split off at the end."""
    cols = len(columns)
    h = [list(c) + e for c, e in zip(columns, _identity_rows(cols))]
    pivots, pc = [], 0
    for r in range(rows):
        if pc == cols:
            break
        while True:
            i, p = None, 0
            for k in range(pc, cols):
                x = abs(h[k][r])
                if x and (not p or x < p):
                    i, p = k, x
                    if p == 1:
                        break
            if i is None:
                break
            h[pc], h[i] = h[i], h[pc]
            if h[pc][r] < 0:
                h[pc] = [-x for x in h[pc]]
            _reduce(h, pc, r, range(pc + 1, cols))
            if not any(h[k][r] for k in range(pc + 1, cols)):
                break
        if h[pc][r]:
            _reduce(h, pc, r, range(pc))
            pivots.append((r, pc))
            pc += 1
    return HermiteDecomposition([c[:rows] for c in h], [c[rows:] for c in h],
                                tuple(pivots), rows)


def hermite_normal_form(m) -> HermiteDecomposition:
    """Column-style Hermite normal form with its unimodular transform.

    Row by row, the smallest-magnitude nonzero entry right of the last
    pivot (first on ties) becomes the pivot and reduces the entries right
    of it until they vanish; the entries left of it are then reduced to
    [0, pivot).  The work runs on lists of Python-int columns.
    """
    return _hermite(*_columns(m))


def kernel_basis(m) -> list[list[int]]:
    """Basis of the integer kernel lattice {x : m @ x = 0}, as a list of
    columns of Python ints, [] when the kernel is trivial.  It comes from
    the unimodular Hermite transform, so it spans the full kernel lattice,
    not a finite-index sublattice."""
    return hermite_normal_form(m).kernel


def lattice_solve(m, v) -> list[int] | None:
    """Integer x with m @ x = v, as a list of Python ints, or None when v
    is outside the lattice."""
    return hermite_normal_form(m).solve(v)


def lattice_contains(m, v) -> bool:
    """True iff v lies in the column lattice of m."""
    return lattice_solve(m, v) is not None
