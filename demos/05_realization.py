"""Realizing prescribed K-theory and exploring the extension-pair range.

Any target Z^r + Z/n_1 + ... + Z/n_k arises as K_0 of a Cuntz-Krieger
algebra; realize_k0 builds an explicit matrix and re-verifies it.  The
group-level calculus around (K_0, unit class) predicts both extension
groups without building anything.
"""

from ckinv import (RealizationTarget, ext_pair_from_k0_pair, invariants,
                   k0_pair, range_witness, realize_k0, validate)
from ckinv.groups import FgAbGroup, canonical_from_cyclic

# Build a matrix with K_0 = Z/2 + Z/4 and torsion-free rank 1.
target = RealizationTarget(rank=1, factors=(2, 4))
matrix = realize_k0(target)
report = invariants(matrix)
print(f"target {target.group()} realized by a "
      f"{matrix.n} x {matrix.n} matrix")
print("  K0 =", report.k0, "  K1 =", report.k1)

# From (K_0, unit class) the two extension groups are predictable.
a = validate([[1, 1, 1], [1, 1, 1], [1, 0, 0]])
weak, strong = ext_pair_from_k0_pair(*k0_pair(a))
r = invariants(a)
print("\npredicted (ExtW1, ExtS1):", (str(weak), str(strong)))
print("computed  (ExtW1, ExtS1):", (str(r.ext_w1), str(r.ext_s1)))

# Which groups G pair with a given Z + M?  The interlacing of invariant
# factors decides it exactly, and gives a witness e with (Z + M)/Ze = G:
g = FgAbGroup(0, (2,))
w = range_witness(g, FgAbGroup(0))
print(f"\nwitness for G = {g} inside Z:",
      repr(w) if w else "no witness exists")
w = range_witness(canonical_from_cyclic([3]), FgAbGroup(0, (2,)))
print("witness for G = Z/3 inside Z + Z/2:",
      repr(w) if w else "no witness exists")
