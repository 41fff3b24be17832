"""Canonical forms over F_q[z]: Hermite, Smith, kernels and linear solving.

The row Hermite form is the unique representative of a row span and is
what the rest of the library uses to decide code equality.  The Smith
form lists its invariant factors in descending divisibility order: each
diagonal entry divides the one before it.
"""

from functools import reduce
from itertools import combinations

from sdconv import (
    ConvolutionalCode,
    PolyMatrix,
    col_hermite,
    determinant,
    format_matrix,
    gcd,
    inverse_unimodular,
    make_field,
    parse_matrix,
    parse_vector,
    right_kernel_basis,
    row_hermite,
    smith,
    solve_left,
    vstack,
)

F2 = make_field(2)

# -- Hermite forms ---------------------------------------------------------------

a = parse_matrix(F2, "1,1,1,1 ; 1,1,0,0")
dec = row_hermite(a)
print("input:          ", format_matrix(a))
print("row Hermite form:", format_matrix(dec.form))
print("transform:       ", format_matrix(dec.transform))
assert dec.transform @ a == dec.form

b = parse_matrix(F2, "z,z,1,1 ; 1+z,1+z,0,0")
cdec = col_hermite(b)
print("\ncolumn side of", format_matrix(b))
print("form [L 0]:     ", format_matrix(cdec.form))

# -- Smith form: note the descending divisibility ----------------------------------

sdec = smith(b)
print("\nSmith form of the same matrix:", format_matrix(sdec.S))
print("diagonal:", [str(d) for d in sdec.diagonal()], "(each divides the previous)")
assert sdec.U @ b @ sdec.V == sdec.S

# A full-row-rank matrix is left-prime exactly when its Smith form is
# [I 0], equivalently when its column Hermite form is [I 0] (the test
# ConvolutionalCode uses) or its maximal minors have unit gcd.  The
# minors are the determinants of the 2x2 column selections; the library
# decides left-primeness without them, so the demo takes them itself.
coprime = parse_matrix(F2, "1,1,1,1 ; 0,1,z+1,z")
minors = [
    determinant(PolyMatrix(F2, [[row[j] for j in cols] for row in coprime.entries]))
    for cols in combinations(range(4), 2)
]
print("\nminors of", format_matrix(coprime), "->", [str(m) for m in minors])
print("gcd of the minors:", reduce(gcd, minors))
print("non-catastrophic:", ConvolutionalCode(coprime).is_noncatastrophic())
print("Smith form:", format_matrix(smith(coprime).S))

# -- kernels and membership --------------------------------------------------------

h = right_kernel_basis(coprime)
print("\nkernel basis:", format_matrix(h))
assert (coprime @ h.transpose()).is_zero()

target = parse_vector(F2, "1,1,1,1")
print("solve m @ A = (1,1,1,1):", solve_left(coprime, target))
print("solve against z,z,1,1:  ",
      solve_left(parse_matrix(F2, "z,z,1,1"), target))  # no polynomial solution

# Left-prime matrices complete to unimodular ones; the completing rows
# come from the inverse of the Smith column transform.
v_inv = inverse_unimodular(smith(coprime).V)
completion = PolyMatrix(F2, v_inv.entries[2:], cols=4)
stacked = vstack(coprime, completion)
print("\ncompleted square matrix:", format_matrix(stacked))
print("unimodular:", determinant(stacked).degree() == 0)
