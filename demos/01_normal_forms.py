"""Exact normal forms and lattice arithmetic.

Everything in ckinv reduces to integer linear algebra that never rounds:
Smith and Hermite normal forms with their unimodular transforms, kernel
bases, and cokernel invariants.  Matrices go in as rows of Python ints and
come out as rows or columns of Python ints, so no numpy is needed.
"""

from ckinv import (cokernel_invariants, hermite_normal_form, kernel_basis,
                   lattice_contains, smith_normal_form)


def matmul(a, b):
    """The product of two matrices given as int rows."""
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


def show(rows):
    for row in rows:
        print("  ", row)


# A small integer matrix and its Smith normal form u @ m @ v = s.
m = [[2, 4, 4],
     [-6, 6, 12],
     [10, -4, -16]]
dec = smith_normal_form(m)
print("matrix:")
show(m)
print("smith diagonal:", dec.diagonal)
v = [list(row) for row in zip(*dec.v_columns)]
s = [[d if i == j else 0 for j in range(3)]
     for i, d in enumerate(dec.diagonal)]
print("u @ m @ v == s:", matmul(matmul(dec.u_rows, m), v) == s)

# The diagonal reads off the cokernel: Z^3 / (column lattice of m).
print("cokernel:", cokernel_invariants(m))

# Kernels are returned as full lattice bases, one list per basis column.
print("\nkernel of the sum map Z^3 -> Z:")
show(kernel_basis([[1, 1, 1]]))

# Hermite form answers membership questions exactly.
cols = [[2, 1], [0, 3]]
print("\ncolumn lattice of", cols)
print("  contains (2, 3)?", lattice_contains(cols, [2, 3]))
print("  contains (1, 0)?", lattice_contains(cols, [1, 0]))
print("hermite form, by columns:")
show(hermite_normal_form(cols).h_columns)

# Entries can be arbitrarily large; the arithmetic stays exact.
big = [[10 ** 40, 1], [0, 10 ** 40]]
print("\nhuge-entry smith diagonal:", smith_normal_form(big).diagonal)
