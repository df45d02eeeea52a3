"""The five-term exact sequence connecting the extension groups.

For every valid matrix the sequence

  0 -> Ker(I-A^hat)/(Z e1) -> Ker(I-A) -> Z
         -> coker(I-A^hat) -> coker(I-A) -> 0

is exact.  The library builds it with explicit homomorphisms.  j's two
nodes hold by construction, an integer witness of
I - A^hat = (I - A)(I - R_1) proves the nodes at coker(I-A^hat) and
coker(I-A), and one gcd comparison checks the node at Z.  A failed check
raises VerificationError, so every sequence returned is exact.
"""

from ckinv import five_term_sequence, gen_random_irreducible, iota_one, \
    validate

a = validate([[1, 1, 1],
              [1, 1, 1],
              [1, 0, 0]])
seq = five_term_sequence(a)

names = ["Ker(I-A^hat)/(Z e1)", "Ker(I-A)", "Z",
         "coker(I-A^hat)", "coker(I-A)"]
print("sequence groups:")
for name, g in zip(names, seq.groups):
    print(f"  {name:22s} = {g.canonical()}")
print("verified exact:", seq.verified)

# The middle map sends 1 to the class of (I-A) e_1 in the strong
# extension group; its order is part of the complete invariant.
el = iota_one(a)
print("\nclass of (I-A)e1:", repr(el),
      "order:", el.order() or "infinite")

# Exactness holds for random valid matrices too.
for seed in range(3):
    m = gen_random_irreducible(6, 0.4, seed=seed)
    print(f"random seed {seed}: verified =",
          five_term_sequence(m).verified)
