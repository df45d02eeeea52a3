"""Independent oracles the tests check the library against.

Nothing here imports library internals beyond plain arrays: determinants
come from cofactor expansion, Smith diagonals from determinant divisors
(gcds of k x k minors), from a naive first-nonzero elimination on lists,
or from the dense numpy elimination that ``smith_diagonal`` used before
its sparse unit-pivot prepass.  They are deliberately slow and simple.
"""

from itertools import combinations
from math import gcd

import numpy as np


def cofactor_det(rows) -> int:
    """Exact determinant by cofactor expansion along the first row."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j, head in enumerate(rows[0]):
        if head == 0:
            continue
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        total += (-1) ** j * head * cofactor_det(minor)
    return total


def bareiss_det(rows) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    m = [list(map(int, r)) for r in rows]
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def minor_gcd_diagonal(rows) -> list:
    """Smith diagonal via determinant divisors.

    d_k = gcd of all k x k minors; the k-th invariant factor is
    d_k / d_{k-1}.  Exponential, fine for dimensions <= 6.
    """
    if not rows or not rows[0]:
        return []
    nr, nc = len(rows), len(rows[0])
    divisors = []
    prev = 1
    for k in range(1, min(nr, nc) + 1):
        g = 0
        for rsel in combinations(range(nr), k):
            for csel in combinations(range(nc), k):
                sub = [[rows[i][j] for j in csel] for i in rsel]
                g = gcd(g, cofactor_det(sub))
        divisors.append(g)
        if g == 0:
            break
    diag = []
    prev = 1
    for d in divisors:
        if d == 0 or prev == 0:
            diag.append(0)
        else:
            diag.append(d // prev)
        prev = d
    diag += [0] * (min(nr, nc) - len(diag))
    return diag


def naive_snf_diagonal(rows) -> list:
    """Textbook Smith elimination: first-nonzero pivoting, list arithmetic.

    No transform tracking, no pivot-size heuristics; a deliberately
    different implementation from the library's.
    """
    m = [list(map(int, r)) for r in rows]
    nr = len(m)
    nc = len(m[0]) if m else 0
    diag = []
    t = 0
    while t < min(nr, nc):
        # find first nonzero in the block, scanning column-major
        pivot = None
        for j in range(t, nc):
            for i in range(t, nr):
                if m[i][j]:
                    pivot = (i, j)
                    break
            if pivot:
                break
        if pivot is None:
            break
        i, j = pivot
        m[t], m[i] = m[i], m[t]
        for row in m:
            row[t], row[j] = row[j], row[t]
        # every swap below strictly shrinks |pivot|, so this terminates
        while True:
            for i in range(t + 1, nr):
                while m[i][t]:
                    q = m[i][t] // m[t][t]
                    m[i] = [a - q * b for a, b in zip(m[i], m[t])]
                    if m[i][t]:
                        m[t], m[i] = m[i], m[t]
            for j in range(t + 1, nc):
                while m[t][j]:
                    q = m[t][j] // m[t][t]
                    for row in m:
                        row[j] -= q * row[t]
                    if m[t][j]:
                        for row in m:
                            row[t], row[j] = row[j], row[t]
            if any(m[i][t] for i in range(t + 1, nr)) or \
                    any(m[t][j] for j in range(t + 1, nc)):
                continue
            p = m[t][t]
            offender = None
            for i in range(t + 1, nr):
                if any(m[i][j] % p for j in range(t + 1, nc)):
                    offender = i
                    break
            if offender is None:
                break
            m[t] = [a + b for a, b in zip(m[t], m[offender])]
        diag.append(abs(m[t][t]))
        t += 1
    diag += [0] * (min(nr, nc) - len(diag))
    return diag


class _Overflow(Exception):
    """int64 entries reached the guard; the run restarts on Python ints."""


def _guard(fast, block):
    if fast and block.size and (block.max() >= 2 ** 31
                                or block.min() <= -2 ** 31):
        raise _Overflow


def _dense_run(s, fast):
    rows, cols = s.shape
    t = 0
    while t < min(rows, cols):
        block = s[t:, t:]
        nzr, nzc = np.nonzero(block)
        if nzr.size == 0:
            break
        k = int(np.argmin(np.abs(block[nzr, nzc])))
        i, j = int(nzr[k]) + t, int(nzc[k]) + t
        if i != t:
            s[[t, i], :] = s[[i, t], :]
        if j != t:
            s[:, [t, j]] = s[:, [j, t]]
        if s[t, t] < 0:
            s[t, t:] = -s[t, t:]
        p = s[t, t]
        qs = s[t + 1:, t] // p
        if qs.any():
            s[t + 1:, t:] -= qs[:, None] * s[t, t:][None, :]
            _guard(fast, s[t + 1:, t:])
        qs = s[t, t + 1:] // p
        if qs.any():
            s[t:, t + 1:] -= s[t:, t][:, None] * qs[None, :]
            _guard(fast, s[t:, t + 1:])
        if p != 1 and (s[t + 1:, t].any() or s[t, t + 1:].any()):
            continue
        if p > 1:
            rem = s[t + 1:, t + 1:]
            if rem.size:
                bad = np.nonzero(rem % p)
                if bad[0].size:
                    s[t, t:] += s[t + 1 + int(bad[0][0]), t:]
                    _guard(fast, s[t, t:])
                    continue
        t += 1
    return [int(s[i, i]) for i in range(min(rows, cols))]


def numpy_smith_diagonal(m) -> list:
    """Smith diagonal by dense min-abs-pivot elimination on numpy arrays.

    Runs on int64 while every entry stays below 2**31 and restarts on
    Python ints once one grows past it.
    """
    a = np.array(m, dtype=object)
    if a.ndim == 1:
        a = a.reshape(len(a), 0)
    if a.size == 0 or max(abs(int(x)) for x in a.flat) < 2 ** 31:
        try:
            return _dense_run(a.astype(np.int64), True)
        except _Overflow:
            pass
    return _dense_run(a, False)
