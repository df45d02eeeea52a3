"""Independent oracles the tests check the library against.

Nothing here imports library internals beyond plain arrays: determinants
come from cofactor expansion, Smith diagonals from determinant divisors
(gcds of k x k minors), from a naive first-nonzero elimination on lists,
or from the dense numpy elimination that ``smith_diagonal`` used before
its sparse unit-pivot prepass.  ``markowitz_unit_prepass`` is that
prepass as it pivoted before, by least Markowitz cost, on sparse rows:
the library's count-based one must leave cores of the same diagonal and
about the same size.  ``one_step_bareiss`` is the fraction-free pass the
library ran before it took two pivots per pass: its minor gcds must
match ``intmat._bareiss`` list for list.  ``all_pairs_chain`` is the
gcd/lcm pass over every pair of moduli that ``groups._chain`` ran before
it inserted each modulus into the chain, and ``front_insert_chain`` that
insertion as it ran on the listed chain, each modulus put in front of the
entries equal to it, before ``_chain`` counted the distinct entries.
``range_search`` is the bounded search for a cyclic quotient of Z + M
that ``realize.range_witness`` ran before it decided the question by the
interlacing of invariant factors.  ``listed_direct_sum``,
``listed_tensor``, ``listed_tor``, ``listed_hom`` and ``listed_ext1`` are
the bodies of the ``FgAbGroup`` methods before each became
``groups._tensor_sum`` through an identity: they split the free and
torsion cases by hand and list every free summand as a 0 modulus.
``kronecker_tensor_sum`` reads a sum of tensor products
off one cokernel, the Kronecker presentation of each product.  They are
deliberately slow and simple.
The exceptions build library groups and read them the long way round:
``transforms_order`` reads an element's order off the Smith transforms of
its presentation (``canonical_coords`` and ``smith_normal_form``), a
route the library's order rule no longer takes, ``transform_coords`` is
``canonical_coords`` as it ran before it built u alone, from the full
``smith_normal_form``, and ``homology`` presents ker(g)/im(f) outright, on
kernels from the numpy Hermite reference, where the library's exactness
test decides lattice membership instead.  ``iota_nodes`` decides
exactness at Z and at coker(I - A^hat) from one Smith diagonal of
[I - A^hat | (I - A) e_1], the rule the library ran before it read both
nodes off a witness of I - A^hat = (I - A)(I - R_1).
The numpy Smith and Hermite eliminations with transforms, int64 start and
mid-run promotion included, are the reference the list-based library
routines must match entry for entry.  ``object_array`` and
``columns_array`` build the object arrays that tests multiply and compare
from the library's int rows and int columns.  ``i_minus_array``,
``hat_matrix`` and ``augmented_matrix`` build the derived matrices of a
validated 0-1 matrix as int64 arrays, straight from their definitions,
``bool_array`` reads its bytes as booleans, and ``with_kernel`` turns a
matrix into one whose I - A has equal rows.  ``out_split`` and
``in_split`` split a vertex of a matrix's graph (Bates and Pask, Ergodic
Theory Dynam. Systems 24 (2004)): an out-split keeps the isomorphism
class of O_A, an in-split its stable class.
"""

from bisect import bisect_right
from itertools import combinations, compress, product
from math import gcd, lcm, prod

import numpy as np

from ckinv import intmat
from ckinv.groups import FgAbGroup, canonical_from_cyclic
from ckinv.presented import GroupElement, GroupHom, PresentedGroup, \
    order_from_quotient, quotient_by_elements


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


def one_step_bareiss(a: list[list[int]]) -> list[int]:
    """Minor gcds g_1, ..., g_r as ``intmat._bareiss`` returns them, by
    one pivot per pass: the first row with a nonzero leading entry
    pivots, g is the gcd of the pivot, the rest of its row and the rest of
    its column, and every other row goes one level down.  Consumes a."""
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
        for i, (row, x) in enumerate(zip(a, xs)):
            a[i] = [(p * y - x * z) // prev for y, z in zip(row, prow)]
        prev = p
    return gs


def all_pairs_chain(ds: list[int]) -> list[int]:
    """Invariant factors of the direct sum of Z/d, by gcd/lcm swaps, in
    place: after the swaps at i, entry i divides every later one, so one
    pass leaves a divisibility chain, with any 1s in front."""
    for i in range(len(ds)):
        for j in range(i + 1, len(ds)):
            g = gcd(ds[i], ds[j])
            ds[i], ds[j] = g, ds[i] * ds[j] // g
    return ds


def front_insert_chain(ds: list[int]) -> list[int]:
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


def listed_direct_sum(self: FgAbGroup, other: FgAbGroup) -> FgAbGroup:
    return canonical_from_cyclic(
        [0] * (self.free_rank + other.free_rank)
        + list(self.invariant_factors) + list(other.invariant_factors))


def listed_tensor(self: FgAbGroup, other: FgAbGroup) -> FgAbGroup:
    mods = [0] * (self.free_rank * other.free_rank)
    mods += list(other.invariant_factors) * self.free_rank
    mods += list(self.invariant_factors) * other.free_rank
    mods += [gcd(d, e) for d in self.invariant_factors
             for e in other.invariant_factors]
    return canonical_from_cyclic(mods)


def listed_tor(self: FgAbGroup, other: FgAbGroup) -> FgAbGroup:
    return canonical_from_cyclic(
        [gcd(d, e) for d in self.invariant_factors
         for e in other.invariant_factors])


def listed_hom(self: FgAbGroup, other: FgAbGroup) -> FgAbGroup:
    mods = [0] * (self.free_rank * other.free_rank)
    mods += list(other.invariant_factors) * self.free_rank
    mods += [gcd(d, e) for d in self.invariant_factors
             for e in other.invariant_factors]
    return canonical_from_cyclic(mods)


def listed_ext1(self: FgAbGroup, other: FgAbGroup) -> FgAbGroup:
    mods = []
    for d in self.invariant_factors:
        mods += [d] * other.free_rank
        mods += [gcd(d, e) for e in other.invariant_factors]
    return canonical_from_cyclic(mods)


def composite_pi(ext1, ext0, k0, k1, n: int) -> FgAbGroup:
    """pi_n of Aut(O_A) as ``ck._pi`` composed it before it made each
    degree one sum of tensor products, on the listed functors."""
    if n == 1:
        return listed_direct_sum(listed_tensor(ext1, k0),
                                 listed_tensor(ext0, k1))
    return listed_direct_sum(
        listed_direct_sum(listed_tensor(ext1, k1), listed_tensor(ext0, k0)),
        listed_tor(ext1, k0))


def _diagonal(g: FgAbGroup) -> list[list[int]]:
    """Square relation matrix of g: one generator per cyclic summand, its
    column 0 for a free one and d e_i for Z/d."""
    ds = [0] * g.free_rank + list(g.invariant_factors)
    return [[d if i == j else 0 for j in range(len(ds))]
            for i, d in enumerate(ds)]


def _kron(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    return [[x * y for x in ra for y in rb] for ra in a for rb in b]


def _eye(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def kronecker_tensor_sum(*pairs) -> FgAbGroup:
    """The sum of G x H over the pairs (G, H), as the cokernel of one block
    diagonal matrix: G x H is presented by [D_G x I | I x D_H] for
    relation matrices D_G of G and D_H of H."""
    blocks = []
    for g, h in pairs:
        dg, dh = _diagonal(g), _diagonal(h)
        blocks.append([r + s for r, s in zip(_kron(dg, _eye(len(dh))),
                                             _kron(_eye(len(dg)), dh))])
    width = sum(2 * len(b) for b in blocks)
    rows, left = [], 0
    for b in blocks:
        rows += [[0] * left + r + [0] * (width - left - len(r)) for r in b]
        left += 2 * len(b)
    return intmat.cokernel_invariants(rows)


# Largest number of candidates range_search tries.  Each costs one small
# Smith diagonal, about 0.1 ms on a 2-core x86-64 machine (Python 3.11),
# so a full search takes about 10 s; larger searches are refused up front.
MAX_CANDIDATES = 100_000


def free_plus_presentation(m: FgAbGroup) -> PresentedGroup:
    """Presentation of Z + M: one free generator ahead of M's generators."""
    gens = 1 + m.free_rank + len(m.invariant_factors)
    rel = [[0] * len(m.invariant_factors) for _ in range(gens)]
    for j, d in enumerate(m.invariant_factors):
        rel[1 + m.free_rank + j][j] = d
    return PresentedGroup(gens, rel)


def range_search(g: FgAbGroup, m: FgAbGroup,
                 bound: int) -> GroupElement | None:
    """Search for e in Z + M with (Z + M)/Ze isomorphic to G.

    Free coordinates run over 0, 1, ..., bound, -1, ..., -bound and
    torsion coordinates are exhausted completely, in lexicographic order,
    so the first (hence returned) witness is deterministic.  ``None``
    means no witness within the bound, which is *not* a proof that none
    exists.  A search of more than :data:`MAX_CANDIDATES` candidates,
    (2 bound + 1)^(1 + rank M) times the order of the torsion of M,
    raises ``ValueError`` before the first one is tried.
    """
    if bound < 1:
        raise ValueError("bound must be positive")
    sizes = [2 * bound + 1] * (1 + m.free_rank) + list(m.invariant_factors)
    if prod(sizes) > MAX_CANDIDATES:
        raise ValueError(f"the search has more than {MAX_CANDIDATES} "
                         "candidates; lower the bound")
    presentation = free_plus_presentation(m)
    for coords in product(*_search_axes(m, bound)):
        e = presentation.element(coords)
        if quotient_by_elements(presentation, [e]) == g:
            return e
    return None


def _search_axes(m: FgAbGroup, bound: int) -> list:
    """The coordinates range_search tries, one axis per generator of
    :func:`free_plus_presentation`."""
    free_seq = list(range(bound + 1)) + [-x for x in range(1, bound + 1)]
    return [free_seq] * (1 + m.free_rank) + \
        [range(d) for d in m.invariant_factors]


def range_quotients(m: FgAbGroup, bound: int) -> set:
    """Every (Z + M)/Ze over the candidates e of range_search: the groups
    g for which ``range_search(g, m, bound)`` finds a witness."""
    presentation = free_plus_presentation(m)
    return {quotient_by_elements(presentation,
                                 [presentation.element(coords)])
            for coords in product(*_search_axes(m, bound))}


def i_minus_array(m) -> np.ndarray:
    """I - m as an array, for a square matrix m given as an array or as
    int rows; ``ck.i_minus`` gives the same entries as int rows."""
    m = np.asarray(m)
    return np.eye(len(m), dtype=np.int64) - m


def bool_array(a) -> np.ndarray:
    """A validated 0-1 matrix as a read-only boolean array on its bytes."""
    return np.frombuffer(a.data, dtype=bool).reshape(a.n, a.n)


def ones_row_matrix(n: int) -> np.ndarray:
    """R_1: an all-ones first row, zeros elsewhere."""
    r = np.zeros((n, n), dtype=np.int64)
    r[0] = 1
    return r


def hat_matrix(a) -> np.ndarray:
    """A^hat = A + R_1 - A R_1 of a validated matrix A."""
    m, r1 = a.entries, ones_row_matrix(a.n)
    return m + r1 - m @ r1


def augmented_matrix(a) -> np.ndarray:
    """The all-ones row stacked on I - A, (N+1) x N."""
    return np.vstack([np.ones((1, a.n), dtype=np.int64),
                      i_minus_array(a.entries)])


def with_kernel(a, pairs: int = 1):
    """A validated matrix like a with rows 2t and 2t + 1 of I - A made
    equal for each t < pairs, so that K1 = Ker(I - A) is nonzero."""
    from ckinv import ck
    m = a.entries.copy()
    for t in range(0, 2 * pairs, 2):
        m[t + 1] = m[t]
        m[t, t] = m[t + 1, t + 1] = 1
        m[t, t + 1] = m[t + 1, t] = 0
    return ck.validate(m)


def transforms_order(element) -> int:
    """Order of a presented-group element, 0 if infinite, from the Smith
    transforms: infinite when a free coordinate is nonzero, otherwise the
    lcm over the invariant factors d > 1 of d / gcd(d, residue)."""
    free, tors = element.canonical_coords()
    if any(free):
        return 0
    group = element.group
    diag = intmat.smith_normal_form(
        columns_array(group.relations, group.generators)).diagonal
    facs = [d for d in diag if d > 1]
    return lcm(*(d // gcd(d, r) for d, r in zip(facs, tors)))


def transform_coords(group, coords) -> tuple[tuple, tuple]:
    """(free coordinates, torsion residues) of a vector in a presented
    group, from the rows of u of the full ``smith_normal_form`` of its
    relations, the diagonal padded with free coordinates."""
    dec = intmat.smith_normal_form(
        columns_array(group.relations, group.generators))
    moduli = dec.diagonal + (0,) * (group.generators - len(dec.diagonal))
    y = [sum(a * b for a, b in zip(row, coords)) for row in dec.u_rows]
    return (tuple(y[i] for i, d in enumerate(moduli) if d == 0),
            tuple(y[i] % d for i, d in enumerate(moduli) if d > 1))


def out_split(a, v: int, rng):
    """The out-split of vertex v of a validated matrix: the 1s of row v
    are split at random into two nonempty rows, v and a new last one, and
    column v is duplicated as the last column, the self-loop at v
    included.  Row v must hold two 1s or more."""
    from ckinv import ck
    rows = a.rows
    ones = [j for j, x in enumerate(rows[v]) if x]
    if len(ones) < 2:
        raise ValueError(f"row {v} holds fewer than two 1s")
    rng.shuffle(ones)
    moved = set(ones[:rng.randint(1, len(ones) - 1)])
    rows.append([int(j in moved) for j in range(a.n)])
    rows[v] = [int(x and j not in moved) for j, x in enumerate(rows[v])]
    return ck.validate([r + [r[v]] for r in rows])


def in_split(a, v: int, rng):
    """The in-split of vertex v: the out-split of the transpose,
    transposed.  Column v must hold two 1s or more."""
    return out_split(a.transpose(), v, rng).transpose()


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


# -- the Markowitz unit prepass ----------------------------------------------

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


def markowitz_unit_prepass(m) -> tuple[int, list[list[int]]]:
    """Eliminate unit pivots on int rows; (count, dense core left).

    The prepass ``smith_diagonal`` ran before its count-based one, on a
    dict of sparse rows and a set of row indices per column.  Each step
    pivots on the +-1 entry of least Markowitz cost
    (row nnz - 1) * (column nnz - 1), the shorter row on ties, and
    subtracts multiples of its row from the other rows.  A unit pivot
    makes that Schur update exact over the integers, and then column
    operations clear the pivot row without touching any other row, so the
    pivot row and column drop out and contribute one diagonal 1.  The core
    is what remains once no unit is left, with empty rows and columns
    dropped: they contribute only zeros.  The rows of ``m`` are read in
    order, not changed.
    """
    width = len(m[0]) if m else 0
    span = range(width)
    rows: dict[int, dict[int, int]] = {}
    cols = [set() for _ in span]
    for i, row in enumerate(m):
        nz = list(compress(span, row))
        if nz:
            rows[i] = dict(zip(nz, map(row.__getitem__, nz)))
            for j in nz:
                cols[j].add(i)
    by_len = [set() for _ in range(width + 1)]  # live rows by nnz
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


# -- the numpy eliminations with transforms -----------------------------------
# Smith and Hermite elimination as the library ran them on numpy arrays: on
# int64 while every entry stays below 2**31, cast to Python ints from the
# step that first writes a larger value.

_LIMIT = 1 << 31  # one int64 op on entries below 2**31 cannot wrap


def _to_object(a: np.ndarray) -> np.ndarray:
    return a if a.dtype == object else a.astype(object)


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


def _object_matrix(m) -> np.ndarray:
    a = np.array(m, dtype=object)
    return a.reshape(0, 0) if a.ndim == 1 and a.size == 0 else a


def object_array(m) -> np.ndarray:
    """A matrix, read as every library routine reads it, as a 2-D object
    array of Python ints, for numpy's operators; an empty list becomes a
    0 x 0 matrix."""
    rows, width = intmat._shaped(m)
    return np.array(rows, dtype=object).reshape(len(rows), width)


def columns_array(columns, height: int) -> np.ndarray:
    """The height x len(columns) object array with these int columns, as
    ``kernel_basis``, ``relations``, ``image()`` and ``kernel()`` give
    them."""
    return np.array(columns, dtype=object).reshape(len(columns), height).T


def numpy_smith_normal_form(m):
    """(u, s, v) with u @ m @ v = s, as object arrays."""
    s, u, v = _objects(*_smith_run(_working(_object_matrix(m))))
    return u, s, v


def numpy_hermite_normal_form(m):
    """(h, u, pivots) with m @ u = h, h and u as object arrays."""
    h, u, pivots = _hermite_run(_working(_object_matrix(m)))
    return (*_objects(h, u), pivots)


# -- exactness by homology ----------------------------------------------------

def _kernel_columns(m: np.ndarray) -> np.ndarray:
    """Basis of {x : m @ x = 0}, as columns: the columns of the numpy
    Hermite transform past the rank."""
    _, u, pivots = numpy_hermite_normal_form(m)
    return u[:, len(pivots):]


def _preimage(h: GroupHom) -> np.ndarray:
    """Columns generating {x : h(x) = 0}, in source coordinates: the
    source parts of the solutions of [h columns | target relations]."""
    image = columns_array(h.image(), h.target.generators)
    return _kernel_columns(image)[:h.source.generators]


def homology(f: GroupHom, g: GroupHom) -> PresentedGroup:
    """ker(g)/im(f), presented on generators of ker(g) lifted to the
    middle group f.target = g.source."""
    ker = _preimage(g)
    image = columns_array(f.image(), f.target.generators)
    rel = _kernel_columns(np.hstack([ker, image]))[:ker.shape[1]]
    return PresentedGroup(ker.shape[1], rel)


def is_exact_by_homology(f: GroupHom, g: GroupHom) -> bool:
    """g after f is zero, its kernel being the whole source, and
    ker(g)/im(f) is trivial."""
    gf = g.compose(f)
    return (PresentedGroup(gf.source.generators, _preimage(gf))
            .canonical().is_trivial
            and homology(f, g).canonical().is_trivial)


def sequence_exactness(groups, maps) -> tuple[bool, ...]:
    """Exactness by homology at each group of 0 -> groups[0] -> ... ->
    groups[-1] -> 0, the maps joining neighbouring groups."""
    first, last = groups[0], groups[-1]
    chain = (GroupHom(PresentedGroup(0), first,
                      np.zeros((first.generators, 0), dtype=object)),
             *maps,
             GroupHom(last, PresentedGroup(0),
                      np.zeros((0, last.generators), dtype=object)))
    return tuple(is_exact_by_homology(f, g)
                 for f, g in zip(chain, chain[1:]))


def iota_nodes(ker_a, quotient_rows, ext_s1, ext_w1) -> tuple[bool, bool]:
    """Exactness at Z and at coker(I - A^hat), given the basis of
    Ker(I - A) that s sums, the rows of [I - A^hat | (I - A) e_1], and
    both extension groups.

    The cokernel Q of those rows is coker(I - A^hat) modulo iota_1.  At Z,
    im(s) = gZ with g the gcd of the coordinate sums of the basis, and
    ker(iota) = kZ with k the order of iota_1, read off Q (both 0 when
    iota_1 has infinite order); the node is exact iff g = k.  At
    coker(I - A^hat), ker(q) is L(I - A) / L(I - A^hat) and im(iota) is
    (L(I - A^hat) + Z (I - A) e_1) / L(I - A^hat).  The former contains
    the latter when q is well defined, since (I - A) e_1 is a column of
    I - A, so they agree iff Q is isomorphic to coker(I - A).
    """
    quotient = intmat.cokernel_invariants(quotient_rows)
    k = order_from_quotient(ext_s1, quotient)
    return gcd(*map(sum, ker_a)) == k, quotient == ext_w1
