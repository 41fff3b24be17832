"""Self-duality of convolutional codes: criteria, pitfalls, distances.

A (2k, k) code is self-dual exactly when its generator satisfies
G G^T = 0 AND the code is non-catastrophic.  Dropping either half of the
test gives wrong answers: this demo shows a code over GF(5) that passes
both, a binary code that is self-orthogonal yet catastrophic, and column
operations that silently destroy self-duality.
"""

from sdconv import ConvolutionalCode, PolyMatrix, determinant, make_field, parse_matrix, parse_vector

F5 = make_field(5)
F2 = make_field(2)

# -- a genuinely self-dual code over GF(5) ----------------------------------------

g5 = parse_matrix(F5, "3,z,1,3*z ; 1,2*z+4,2,z+2")
c5 = ConvolutionalCode(g5)
print("generator:", g5)
print("G G^T == 0:", (g5 @ g5.transpose()).is_zero())
print("leading 2x2 minor:", determinant(PolyMatrix(F5, [row[:2] for row in g5.entries])))
print("self-dual:", c5.is_self_dual())

# -- self-orthogonal does not imply self-dual --------------------------------------

gc = parse_matrix(F2, "z^2+z+1,z^2,z,1 ; 1,z,z^2,z^2+z+1")
cc = ConvolutionalCode(gc)
print("\nbinary counterexample:", gc)
print("self-orthogonal:", cc.is_self_orthogonal())
print("non-catastrophic:", cc.is_noncatastrophic())
print("self-dual:", cc.is_self_dual())
ones = parse_vector(F2, "1,1,1,1")
print("(1,1,1,1) in code:", cc.contains(ones))
print("(1,1,1,1) in dual:", cc.dual().contains(ones))

# -- column operations are not safe -------------------------------------------------

# adding column 2 into column 1 of the GF(5) example breaks orthogonality
broken = parse_matrix(F5, "3+z,z,1,3*z ; 2*z,2*z+4,2,z+2")
print("\nafter a column addition, self-orthogonal:",
      ConvolutionalCode(broken).is_self_orthogonal())
# scaling column 1 by 2 breaks it as well
scaled = parse_matrix(F5, "1,z,1,3*z ; 2,2*z+4,2,z+2")
print("after a column scaling, self-orthogonal:",
      ConvolutionalCode(scaled).is_self_orthogonal())
# row operations and column permutations, by contrast, never change the code

# -- free distance -------------------------------------------------------------------

nbu = ConvolutionalCode(parse_matrix(F2, "0,z^2+z+1,z,z^2+1 ; 1,1,1,1"))
print("\ndistance search on", nbu.generator)
for bound in (1, 2, 4, 6):
    print(" ", nbu.free_distance(bound).render())
# binary self-dual codes only have even-weight codewords, and this one
# has no codeword of weight 2, so the stabilized value 4 is exact
