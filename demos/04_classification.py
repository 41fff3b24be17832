"""Classification catalogs for four families of self-dual codes.

Each driver enumerates a parameterized family exhaustively, with
parameters that give distinct codes, so no record repeats a canonical row
Hermite generator, and emits stable, diffable catalog lines.
"""

from sdconv import (
    ConvolutionalCode,
    classify_42_binary,
    classify_double_diagonal,
    format_catalog,
    make_field,
    parse_matrix,
    reduce_double_triangular,
)

# -- (2,1) codes exist iff -1 is a square -------------------------------------------

for q, p, l in ((2, 2, 1), (3, 3, 1), (4, 2, 2), (5, 5, 1), (7, 7, 1), (9, 3, 2)):
    records = classify_double_diagonal(make_field(p, l), 1) or []
    gens = [str(r.canonical_generator) for r in records]
    print(f"GF({q}) self-dual (2,1) codes: {gens or 'none'}")

# -- all binary (4,2) codes up to parameter degree 2 --------------------------------

print("\nbinary (4,2) catalog, parameter degree <= 1:")
print(format_catalog(classify_42_binary(1)))
counts = [len(classify_42_binary(d)) for d in range(3)]
print("counts by degree bound:", counts)

# -- double diagonal families --------------------------------------------------------

print("\ndouble diagonal, GF(2), k = 3:")
print(format_catalog(classify_double_diagonal(make_field(2), 3)))
print("double diagonal over GF(7):", classify_double_diagonal(make_field(7), 2))

# -- double triangular generators all collapse to [I | I] ----------------------------

F2 = make_field(2)
gen = parse_matrix(F2, "1,z,1,z ; 0,1,0,1")
print("\ndouble-triangular input:", gen)
print("reduces to:", reduce_double_triangular(gen))
assert ConvolutionalCode(gen) == ConvolutionalCode(parse_matrix(F2, "1,0,1,0 ; 0,1,0,1"))
