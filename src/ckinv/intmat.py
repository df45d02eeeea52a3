"""Exact integer linear algebra on dense matrices.

Matrices are 2-D numpy arrays of Python ints (``dtype=object``), so every
computation is exact with no magnitude bound.  Ordinary numpy operators
(``@``, ``+``, ``-``, ``.T``) are the matrix algebra; this module adds the
normal forms and lattice routines built on them:

  * :func:`smith_normal_form`   -- u @ m @ v = s, unimodular u, v,
    non-negative diagonal forming a divisibility chain
  * :func:`smith_diagonal`      -- the diagonal of s alone
  * :func:`hermite_normal_form` -- column-style echelon form m @ u = h
  * :func:`kernel_basis`, :func:`cokernel_invariants`
  * :func:`lattice_contains`, :func:`lattice_solve`

:func:`smith_diagonal` works on Python ints throughout: it first
eliminates unit pivots on sparse rows, cheapest Markowitz cost first,
then reduces the small dense core that is left.  The eliminations with
transforms run on int64 while all entries stay below 2**31; the step
that first writes a larger value is still exact, and from there the
working arrays continue as Python ints, so no result is ever wrapped.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .groups import FgAbGroup

_LIMIT = 1 << 31  # one int64 op on entries below 2**31 cannot wrap


def _prep(data) -> np.ndarray:
    """Normalize array-like integer data to a 2-D integer or object array."""
    a = np.asarray(data)
    if a.ndim == 1 and a.size == 0:
        a = a.reshape(0, 0)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {a.shape}")
    if a.size == 0:
        return np.zeros(a.shape, dtype=np.int64)
    if a.dtype == object:
        if a.size and not all(type(x) is int for x in a.flat):
            out = np.empty(a.shape, dtype=object)
            for idx, x in np.ndenumerate(a):
                if not isinstance(x, (int, np.integer)):
                    raise TypeError(f"matrix entry is not an integer: {x!r}")
                out[idx] = int(x)
            return out
        return a
    if not np.issubdtype(a.dtype, np.integer):
        raise TypeError(f"matrix entries must be integers, got {a.dtype}")
    return a


def as_intmat(data) -> np.ndarray:
    """Coerce array-like integer data to a 2-D object array of Python ints.

    Lists of lists, integer numpy arrays and existing object arrays are all
    accepted; an empty list becomes a 0 x 0 matrix.
    """
    return _to_object(_prep(data))


def as_intvec(data, length: int | None = None) -> np.ndarray:
    """Coerce array-like data to a 1-D object array of Python ints."""
    a = np.asarray(data)
    if a.ndim != 1:
        raise ValueError(f"expected a vector, got shape {a.shape}")
    if length is not None and a.shape[0] != length:
        raise ValueError(f"expected length {length}, got {a.shape[0]}")
    if a.size == 0:
        return np.zeros(0, dtype=object)
    if a.dtype == object:
        if a.size and not all(type(x) is int for x in a.flat):
            out = np.empty(a.shape[0], dtype=object)
            for i, x in enumerate(a):
                if not isinstance(x, (int, np.integer)):
                    raise TypeError(f"vector entry is not an integer: {x!r}")
                out[i] = int(x)
            return out
        return a
    if not np.issubdtype(a.dtype, np.integer):
        raise TypeError(f"vector entries must be integers, got {a.dtype}")
    return a.astype(object)


def _to_object(a: np.ndarray) -> np.ndarray:
    return a if a.dtype == object else a.astype(object)


def identity(n: int) -> np.ndarray:
    return np.eye(n, dtype=object)


def zeros(rows: int, cols: int) -> np.ndarray:
    return np.zeros((rows, cols), dtype=object)


def hstack(*mats) -> np.ndarray:
    """Column-concatenate matrices that share a row count."""
    mats = [as_intmat(m) for m in mats]
    rows = {m.shape[0] for m in mats}
    if len(rows) > 1:
        raise ValueError(f"row counts differ: {sorted(rows)}")
    return np.hstack(mats)


def _working(m: np.ndarray) -> np.ndarray:
    """Working copy for elimination: int64 when every entry is below 2**31."""
    if m.dtype != object:
        if m.size == 0 or max(int(m.max()), -int(m.min())) < _LIMIT:
            return m.astype(np.int64)
        return m.astype(object)
    if max((abs(x) for x in m.flat), default=0) < _LIMIT:
        return m.astype(np.int64)
    return m.copy()


def _grown(*slabs: np.ndarray) -> bool:
    """Whether int64 slabs an elementary step just wrote reached 2**31.

    Every operand of that step was below 2**31, so each product and sum
    fitted in int64 and the slabs are exact; the caller casts its working
    arrays to object and carries on from them.
    """
    return slabs[0].dtype != object and any(
        a.size and (a.max() >= _LIMIT or a.min() <= -_LIMIT) for a in slabs)


def _objects(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    return tuple(_to_object(a) for a in arrays)


def _min_abs_pivot(block: np.ndarray) -> tuple[int, int] | None:
    """Position of the smallest-magnitude nonzero entry, row-major ties."""
    nzr, nzc = np.nonzero(block)
    if nzr.size == 0:
        return None
    k = int(np.argmin(np.abs(block[nzr, nzc])))
    return int(nzr[k]), int(nzc[k])


@dataclass(frozen=True)
class SmithDecomposition:
    """u @ m @ v = s with u, v unimodular and s in Smith normal form."""

    u: np.ndarray
    s: np.ndarray
    v: np.ndarray

    @property
    def diagonal(self) -> tuple[int, ...]:
        n = min(self.s.shape)
        return tuple(int(self.s[i, i]) for i in range(n))

    @property
    def rank(self) -> int:
        return sum(1 for d in self.diagonal if d)


def _smith_run(s: np.ndarray):
    """Min-abs-pivot Smith elimination of s in place, with its transforms."""
    rows, cols = s.shape
    u = np.eye(rows, dtype=s.dtype)
    v = np.eye(cols, dtype=s.dtype)
    t = 0
    while t < min(rows, cols):
        pos = _min_abs_pivot(s[t:, t:])
        if pos is None:
            break
        i, j = pos[0] + t, pos[1] + t
        if i != t:
            s[[t, i], :] = s[[i, t], :]
            u[[t, i], :] = u[[i, t], :]
        if j != t:
            s[:, [t, j]] = s[:, [j, t]]
            v[:, [t, j]] = v[:, [j, t]]
        if s[t, t] < 0:
            s[t, t:] = -s[t, t:]
            u[t, :] = -u[t, :]
        p = s[t, t]
        qs = s[t + 1:, t] // p
        if qs.any():
            s[t + 1:, t:] -= qs[:, None] * s[t, t:][None, :]
            u[t + 1:, :] -= qs[:, None] * u[t, :][None, :]
            if _grown(s[t + 1:, t:], u[t + 1:, :]):
                s, u, v = _objects(s, u, v)
        qs = s[t, t + 1:] // p
        if qs.any():
            s[t:, t + 1:] -= s[t:, t][:, None] * qs[None, :]
            v[:, t + 1:] -= v[:, t][:, None] * qs[None, :]
            if _grown(s[t:, t + 1:], v[:, t + 1:]):
                s, u, v = _objects(s, u, v)
        if p != 1 and (s[t + 1:, t].any() or s[t, t + 1:].any()):
            continue  # remainders left; re-pivot on a smaller entry
        if p > 1:
            rem = s[t + 1:, t + 1:]
            if rem.size:
                bad = np.nonzero(rem % p)
                if bad[0].size:
                    r = t + 1 + int(bad[0][0])
                    s[t, t:] += s[r, t:]
                    u[t, :] += u[r, :]
                    if _grown(s[t, t:], u[t, :]):
                        s, u, v = _objects(s, u, v)
                    continue  # pivot must divide the remaining block
        t += 1
    return s, u, v


def smith_normal_form(m) -> SmithDecomposition:
    """Smith normal form with recorded unimodular transforms.

    Returns ``SmithDecomposition(u, s, v)`` with ``u @ m @ v == s``, the
    diagonal of s non-negative and each entry dividing the next.  Works for
    any rectangular matrix, including empty ones, and is deterministic:
    the pivot is always the smallest-magnitude nonzero entry (first in
    row-major order on ties), which keeps intermediate values small.
    """
    s, u, v = _objects(*_smith_run(_working(_prep(m))))
    return SmithDecomposition(u=u, s=s, v=v)


def _cheapest_unit(rows, cols, by_len) -> tuple[int, int] | None:
    """Unit entry of least Markowitz cost, shorter rows first, or None.

    No column may hold a lone unit entry, so with c the shortest column
    of two or more entries every candidate in a row of length L costs at
    least (L - 1) * (c - 1); the scan stops as soon as no row still to
    come can cost less than the best so far.
    """
    floor = min((c for c in set(map(len, cols)) if c > 1), default=2) - 1
    best = None
    for length in range(1, len(by_len)):
        for i in by_len[length]:
            if best is not None and best[0] <= (length - 1) * floor:
                return best[1:]
            for j, x in rows[i].items():
                if x == 1 or x == -1:
                    cost = (length - 1) * (len(cols[j]) - 1)
                    if best is None or cost < best[0]:
                        best = cost, i, j
    return best and best[1:]


def _unit_prepass(m: np.ndarray) -> tuple[int, list[list[int]]]:
    """Eliminate unit pivots on sparse rows; (count, dense core left).

    Each step pivots on the +-1 entry of least Markowitz cost
    (row nnz - 1) * (column nnz - 1), the shorter row on ties, and
    subtracts multiples of its row from the other rows.  A unit pivot
    makes that Schur update exact over the integers, and then column
    operations clear the pivot row without touching any other row, so the
    pivot row and column drop out and contribute one diagonal 1.  The core
    is what remains once no unit is left, with empty rows and columns
    dropped: they contribute only zeros.
    """
    rows: dict[int, dict[int, int]] = {}
    cols = [set() for _ in range(m.shape[1])]
    nzr, nzc = np.nonzero(m)
    for i, j, x in zip(nzr.tolist(), nzc.tolist(), m[nzr, nzc].tolist()):
        rows.setdefault(i, {})[j] = x
        cols[j].add(i)
    by_len = [set() for _ in range(m.shape[1] + 1)]  # live rows by nnz
    for i, r in rows.items():
        by_len[len(r)].add(i)
    lone = [j for j, c in enumerate(cols) if len(c) == 1]  # may be stale
    ones = 0
    while True:
        pivot = None
        while lone and pivot is None:  # cost 0: the column's only entry
            j = lone.pop()
            if len(cols[j]) == 1:
                i = next(iter(cols[j]))
                if rows[i][j] in (1, -1):
                    pivot = i, j
        if pivot is None:
            pivot = _cheapest_unit(rows, cols, by_len)
            if pivot is None:
                break
        i, j = pivot
        prow = rows.pop(i)
        by_len[len(prow)].discard(i)
        unit = prow.pop(j)
        for c in prow:
            cols[c].discard(i)
            if len(cols[c]) == 1:
                lone.append(c)
        hit, cols[j] = cols[j], set()
        hit.discard(i)
        for k in hit:
            r = rows[k]
            before = len(r)
            f = r.pop(j) * unit
            for c, x in prow.items():
                y = r.get(c, 0) - f * x
                if y:
                    r[c] = y
                    cols[c].add(k)
                else:
                    del r[c]
                    cols[c].discard(k)
                    if len(cols[c]) == 1:
                        lone.append(c)
            by_len[before].discard(k)
            if r:
                by_len[len(r)].add(k)
            else:
                del rows[k]
        ones += 1
    live = [j for j, c in enumerate(cols) if c]
    return ones, [[r.get(j, 0) for j in live] for r in rows.values()]


def _dense_diagonal(a: list[list[int]]) -> list[int]:
    """Smith diagonal, zeros omitted, of a list of equal-length int rows.

    The min-abs-pivot elimination of :func:`smith_normal_form` without
    transforms; a finished pivot row and column are sliced off.  Consumes
    ``a``.
    """
    diag = []
    while a and a[0]:
        i, p = None, 0
        for k, row in enumerate(a):
            least = min(map(abs, filter(None, row)), default=0)
            if least and (not p or least < p):
                i, p = k, least
                if p == 1:
                    break
        if i is None:
            break
        j = next(j for j, x in enumerate(a[i]) if x == p or x == -p)
        a[0], a[i] = a[i], a[0]
        if j:
            for row in a:
                row[0], row[j] = row[j], row[0]
        if a[0][0] < 0:
            a[0] = [-x for x in a[0]]
        prow = a[0]
        for k in range(1, len(a)):
            q = a[k][0] // p
            if q:
                a[k] = [x - q * y for x, y in zip(a[k], prow)]
        qs = [0] + [x // p for x in prow[1:]]
        if any(qs):
            a = [[x - row[0] * q for x, q in zip(row, qs)] if row[0] else row
                 for row in a]
        if p != 1 and (any(row[0] for row in a[1:]) or any(a[0][1:])):
            continue  # remainders left; re-pivot on a smaller entry
        if p > 1:
            bad = next((row for row in a[1:]
                        if any(x % p for x in row[1:])), None)
            if bad is not None:
                a[0] = [x + y for x, y in zip(a[0], bad)]
                continue  # pivot must divide the remaining block
        diag.append(p)
        a = [row[1:] for row in a[1:]]
    return diag


def smith_diagonal(m) -> tuple[int, ...]:
    """Diagonal of the Smith normal form, without transforms.

    Unit pivots are eliminated first on sparse rows of Python ints (see
    :func:`_unit_prepass`); each gives a 1.  The dense core left over
    goes through min-abs-pivot elimination, and zeros pad the result to
    ``min(m.shape)`` entries.
    """
    m = _prep(m)
    ones, core = _unit_prepass(m)
    diag = [1] * ones + _dense_diagonal(core)
    return tuple(diag + [0] * (min(m.shape) - len(diag)))


def cokernel_invariants(m) -> FgAbGroup:
    """Canonical form of Z^rows / (column lattice of m).

    The free rank is rows - rank(m); the invariant factors are the Smith
    diagonal entries exceeding 1.
    """
    m = _prep(m)
    diag = smith_diagonal(m)
    rank = sum(1 for d in diag if d)
    return FgAbGroup(m.shape[0] - rank, tuple(d for d in diag if d > 1))


@dataclass(frozen=True)
class HermiteDecomposition:
    """Column-style Hermite form: m @ u = h with u unimodular.

    ``h`` is in column echelon form: the first nonzero entry of column j
    sits at row ``pivots[j][0]``, those rows strictly increasing, every
    pivot positive, and entries left of a pivot in its row reduced to
    [0, pivot).  Columns past ``rank`` are zero.
    """

    h: np.ndarray
    u: np.ndarray
    pivots: tuple[tuple[int, int], ...]

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def solve(self, v) -> np.ndarray | None:
        """Integer x with (original matrix) @ x = v, or None.

        Forward substitution over the pivots of h; the solution is pulled
        back through u.
        """
        v = as_intvec(v, self.h.shape[0]).copy()
        y = np.zeros(self.h.shape[1], dtype=object)
        for r, c in self.pivots:
            q, rem = divmod(int(v[r]), int(self.h[r, c]))
            if rem:
                return None
            if q:
                y[c] = q
                v = v - q * self.h[:, c]
        if any(x != 0 for x in v):
            return None
        return self.u @ y


def _hermite_run(h: np.ndarray):
    """Column-style Hermite elimination of h in place, with its transform."""
    rows, cols = h.shape
    u = np.eye(cols, dtype=h.dtype)
    pivots = []
    pc = 0
    for r in range(rows):
        if pc == cols:
            break
        while True:
            seg = h[r, pc:]
            nz = np.nonzero(seg)[0]
            if nz.size == 0:
                break
            k = int(np.argmin(np.abs(seg[nz])))
            c0 = pc + int(nz[k])
            if c0 != pc:
                h[:, [pc, c0]] = h[:, [c0, pc]]
                u[:, [pc, c0]] = u[:, [c0, pc]]
            if h[r, pc] < 0:
                h[:, pc] = -h[:, pc]
                u[:, pc] = -u[:, pc]
            p = h[r, pc]
            qs = h[r, pc + 1:] // p
            if qs.any():
                h[:, pc + 1:] -= h[:, pc][:, None] * qs[None, :]
                u[:, pc + 1:] -= u[:, pc][:, None] * qs[None, :]
                if _grown(h[:, pc + 1:], u[:, pc + 1:]):
                    h, u = _objects(h, u)
            if not h[r, pc + 1:].any():
                break
        if pc < cols and h[r, pc] != 0:
            qs = h[r, :pc] // h[r, pc]
            if qs.any():
                h[:, :pc] -= h[:, pc][:, None] * qs[None, :]
                u[:, :pc] -= u[:, pc][:, None] * qs[None, :]
                if _grown(h[:, :pc], u[:, :pc]):
                    h, u = _objects(h, u)
            pivots.append((r, pc))
            pc += 1
    return h, u, tuple(pivots)


def hermite_normal_form(m) -> HermiteDecomposition:
    """Column-style Hermite normal form with its unimodular transform."""
    h, u, pivots = _hermite_run(_working(_prep(m)))
    h, u = _objects(h, u)
    return HermiteDecomposition(h=h, u=u, pivots=pivots)


def kernel_basis(m) -> np.ndarray:
    """Basis of the integer kernel lattice {x : m @ x = 0}, as columns.

    The result has shape (cols, k); k = 0 means the kernel is trivial.
    Because the basis comes from the unimodular Hermite transform it spans
    the full kernel lattice, not a finite-index sublattice.
    """
    dec = hermite_normal_form(m)
    return dec.u[:, dec.rank:]


def lattice_solve(m, v) -> np.ndarray | None:
    """Integer x with m @ x = v, or None when v is outside the lattice."""
    m = _prep(m)
    as_intvec(v, m.shape[0])
    return hermite_normal_form(m).solve(v)


def lattice_contains(m, v) -> bool:
    """True iff v lies in the column lattice of m."""
    return lattice_solve(m, v) is not None
