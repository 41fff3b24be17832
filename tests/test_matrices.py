import random

import pytest

from helpers import (
    F2,
    F4,
    F5,
    base_self_dual_codes,
    classify42,
    col_hermite_solve_left,
    det_bareiss,
    det_laplace,
    invariant_factors,
    is_identity_padded,
    is_left_prime,
    is_unimodular,
    maximal_minors,
    oracle_col_hermite,
    oracle_hermite_core,
    oracle_inverse_unimodular,
    oracle_is_noncatastrophic,
    oracle_is_self_orthogonal,
    oracle_rank,
    oracle_right_kernel_basis,
    oracle_row_hermite,
    oracle_row_reduced,
    oracle_smith,
    oracle_solve_left,
    rand_full_rank,
    rand_matrix,
    rand_poly,
    rand_unimodular,
    smith_kernel_basis,
)
from sdconv import (
    ConvolutionalCode,
    FieldElement,
    Poly,
    PolyMatrix,
    col_hermite,
    determinant,
    dot,
    gcd,
    inverse_unimodular,
    make_field,
    parse_matrix,
    parse_vector,
    rank,
    right_kernel_basis,
    row_hermite,
    smith,
    solve_left,
    vec_content,
    vstack,
    xgcd,
)
from sdconv.errors import (
    DimensionMismatch,
    FieldMismatch,
    NotSquare,
    NotUnit,
    OutOfRange,
    ParseError,
    RankDeficient,
    SdconvError,
    ShapeUnsupported,
)
from sdconv import codes, matrices, polys
from sdconv.matrices import (
    _beside_identity,
    _grid,
    _hermite_core,
    is_self_orthogonal,
    row_reduced,
)
from sdconv.polys import NEG_INF


def M(spec, text):
    return parse_matrix(spec, text)


def test_mul_paper_f5_example():
    g = M(F5, "3,z,1,3*z ; 1,2*z+4,2,z+2")
    assert (g @ g.transpose()).is_zero()


def test_mul_identity_and_ones():
    a = M(F2, "z,1 ; 0,z+1")
    assert a @ PolyMatrix.identity(F2, 2) == a
    ones_row = M(F2, "1,1,1,1")
    assert ones_row @ ones_row.transpose() == M(F2, "0")


def test_mul_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        M(F2, "1,1") @ M(F2, "1,1")


def test_empty_shapes_survive_transpose_and_products():
    empty = PolyMatrix(F2, [], cols=2)
    assert (empty.transpose().rows, empty.transpose().cols) == (2, 0)
    assert empty.transpose().transpose() == empty
    assert (empty @ empty.transpose()).is_zero()
    assert empty.transpose() @ empty == PolyMatrix.zeros(F2, 2, 2)


def test_row_and_column_take_an_index_in_range_only():
    m = M(F2, "1,z,0 ; 0,1,z+1")
    assert m.row(1) == (Poly.zero(F2), Poly.one(F2), Poly.z(F2) + 1)
    assert m.column(1) == (Poly.z(F2), Poly.one(F2))
    for call in (lambda: m.row(-1), lambda: m.row(2), lambda: m.row(10**50), lambda: m.row("z"),
                 lambda: m.column(-1), lambda: m.column(3), lambda: m.column("z"), lambda: m.column(1.0)):
        with pytest.raises(OutOfRange):
            call()


def test_empty_dot_raises_a_typed_error():
    with pytest.raises(DimensionMismatch):
        dot([], [])


def test_row_hermite_identity():
    dec = row_hermite(PolyMatrix.identity(F2, 3))
    assert dec.form == PolyMatrix.identity(F2, 3)
    assert dec.transform == PolyMatrix.identity(F2, 3)


def test_row_hermite_forces_reduction_above_pivots():
    dec = row_hermite(M(F2, "1,1,1,1 ; 1,1,0,0"))
    assert dec.form == M(F2, "1,1,0,0 ; 0,0,1,1")
    assert dec.transform @ M(F2, "1,1,1,1 ; 1,1,0,0") == dec.form


def test_col_hermite_shape():
    dec = col_hermite(M(F2, "z,z,1,1 ; 1+z,1+z,0,0"))
    assert dec.side == "column"
    # form is [L 0]: two pivot columns, two zero columns
    for i in range(2):
        for j in range(2, 4):
            assert not dec.form.entries[i][j]
    assert any(dec.form.entries[i][j] for i in range(2) for j in range(2))
    assert M(F2, "z,z,1,1 ; 1+z,1+z,0,0") @ dec.transform == dec.form


def test_hermite_rejects_tall_matrices():
    with pytest.raises(ShapeUnsupported):
        row_hermite(M(F2, "1 ; z"))


@pytest.mark.parametrize("spec,k,n", [(F2, 2, 4), (F4, 2, 3), (F5, 3, 4), (F2, 1, 2)])
def test_hermite_uniqueness_and_reconstruction(spec, k, n):
    rng = random.Random(7)
    for _ in range(12):
        a = rand_matrix(rng, spec, k, n)
        dec = row_hermite(a)
        assert is_unimodular(dec.transform)
        assert dec.transform @ a == dec.form
        u = rand_unimodular(rng, spec, k)
        assert row_hermite(u @ a).form == dec.form
        cdec = col_hermite(a)
        assert is_unimodular(cdec.transform)
        assert a @ cdec.transform == cdec.form
        v = rand_unimodular(rng, spec, n)
        assert col_hermite(a @ v).form == cdec.form


def test_smith_paper_example_descending_order():
    dec = smith(M(F2, "1+z,1+z,0,0 ; z,z,1,1"))
    assert dec.S == M(F2, "1+z,0,0,0 ; 0,1,0,0")
    assert dec.U @ M(F2, "1+z,1+z,0,0 ; z,z,1,1") @ dec.V == dec.S


def test_smith_of_identity_padded_is_identity_transforms():
    a = M(F2, "1,0,0 ; 0,1,0")
    dec = smith(a)
    assert dec.S == a
    assert dec.U == PolyMatrix.identity(F2, 2)
    assert dec.V == PolyMatrix.identity(F2, 3)


def test_smith_coprime_minors_example():
    # minors of the pair (columns 2,3) and (columns 2,4) are z and z+1
    a = M(F2, "1,1,1,1 ; 0,1,z+1,z")
    assert is_identity_padded(smith(a).S)


def test_smith_rank_deficient():
    with pytest.raises(RankDeficient):
        smith(M(F2, "z,z ; z,z"))


@pytest.mark.parametrize("q,text,form", [
    (2, "z,0,0 ; 0,z+1,0", "z^2+z,0,0 ; 0,1,0"),
    (2, "z,0,0 ; 0,z^2,0", "z^2,0,0 ; 0,z,0"),
    (2, "z,0,0 ; 0,z+1,0 ; 0,0,z^2+1", "z^3+z,0,0 ; 0,z+1,0 ; 0,0,1"),
    (3, "z+1,0,0,0 ; 0,z+2,0,0", "z^2+2,0,0,0 ; 0,1,0,0"),
])
def test_smith_repairs_diagonal_inputs(q, text, form):
    # already diagonal, so no Hermite step changes them: all but z, z^2 are
    # out of divisibility order and reach the form only by the repair
    spec = make_field(q)
    a = M(spec, text)
    dec = smith(a)
    assert dec.S == M(spec, form)
    assert dec.U @ a @ dec.V == dec.S
    assert is_unimodular(dec.U) and is_unimodular(dec.V)


@pytest.mark.parametrize("spec,k,n", [
    (F2, 2, 4), (F4, 2, 4), (F5, 2, 3), (make_field(3, 2), 3, 5), (make_field(13), 3, 4),
])
def test_smith_reconstruction_uniqueness_divisibility(spec, k, n):
    rng = random.Random(11)
    for _ in range(10):
        a = rand_full_rank(rng, spec, k, n)
        dec = smith(a)
        assert is_unimodular(dec.U) and is_unimodular(dec.V)
        assert dec.U @ a @ dec.V == dec.S
        diag = dec.diagonal()
        for i in range(k):
            assert diag[i].lc() == spec.one
            for j in range(k):
                if i != j:
                    assert not dec.S.entries[i][j]
            for j in range(k, n):
                assert not dec.S.entries[i][j]
        for i in range(k - 1):
            assert not diag[i] % diag[i + 1]  # descending: next divides previous
        u = rand_unimodular(rng, spec, k)
        v = rand_unimodular(rng, spec, n)
        assert smith(u @ a @ v).S == dec.S


def test_unimodular_examples():
    # inverse_unimodular returns an inverse exactly when the Bareiss oracle
    # says unimodular, and raises NotUnit otherwise
    def hermite_verdict(a):
        try:
            inv = inverse_unimodular(a)
        except NotUnit:
            return False
        assert inv @ a == PolyMatrix.identity(a.spec, a.rows)
        return True

    h = Poly.z(F2) ** 3
    a = PolyMatrix(F2, [[h, h + 1, 0], [1, 1, 1], [1, 1, 0]])
    assert determinant(a) == Poly.one(F2)
    cases = [
        (a, True),
        (M(F2, "z,0 ; 0,1"), False),
        (PolyMatrix.identity(F2, 3), True),
        (M(F2, "z,z ; z,z"), False),
        (M(F5, "2"), True),
        (PolyMatrix(F2, [], cols=0), True),
    ]
    for m, expected in cases:
        assert is_unimodular(m) == expected == hermite_verdict(m)
    with pytest.raises(NotSquare):
        is_unimodular(M(F2, "1,0"))
    with pytest.raises(NotSquare):
        inverse_unimodular(M(F2, "1,0"))
    # the Hermite verdict against the Bareiss oracle on random square matrices
    rng = random.Random(29)
    verdicts = set()
    for n in (1, 2, 3):
        for max_deg in (0, 1):
            for _ in range(8):
                a = rand_matrix(rng, F5, n, n, max_deg=max_deg)
                verdicts.add(is_unimodular(a))
                assert hermite_verdict(a) == is_unimodular(a)
        u = rand_unimodular(rng, F5, n) @ rand_unimodular(rng, F5, n)
        assert is_unimodular(u) and hermite_verdict(u)
    assert verdicts == {False, True}


def test_determinant_from_the_hermite_form_matches_laplace():
    rng = random.Random(3)
    for n in (5, 6):
        for _ in range(4):
            a = rand_matrix(rng, F5, n, n, max_deg=1)
            assert determinant(a) == det_laplace(
                [list(r) for r in a.entries], F5
            )
    # a unimodular matrix has a nonzero constant determinant
    u = rand_unimodular(rng, F5, 5)
    d = determinant(u)
    assert d.degree() == 0 and d


def test_decompositions_of_empty_shapes():
    # the augmented grids keep their widths when there are no rows
    empty = PolyMatrix(F2, [], cols=2)
    dec = smith(empty)
    assert [(m.rows, m.cols) for m in (dec.U, dec.S)] == [(0, 0), (0, 2)]
    assert dec.V == PolyMatrix.identity(F2, 2)
    row = row_hermite(empty)
    assert [(m.rows, m.cols) for m in (row.form, row.transform)] == [(0, 2), (0, 0)]
    col = col_hermite(empty)
    assert (col.form.rows, col.form.cols) == (0, 2)
    assert col.transform == PolyMatrix.identity(F2, 2)
    none = PolyMatrix(F2, [], cols=0)
    assert inverse_unimodular(none) == none == PolyMatrix.identity(F2, 0)
    assert rank(none) == 0 == rank(empty)


def test_inverse_unimodular():
    rng = random.Random(5)
    u = rand_unimodular(rng, F5, 3)
    assert u @ inverse_unimodular(u) == PolyMatrix.identity(F5, 3)
    with pytest.raises(ValueError):
        inverse_unimodular(M(F2, "z,0 ; 0,1"))


def test_left_prime_examples():
    assert is_left_prime(M(F5, "3,z,1,3*z ; 1,2*z+4,2,z+2"))
    assert not is_left_prime(M(F2, "z^2+z+1,z^2,z,1 ; 1,z,z^2,z^2+z+1"))
    assert is_left_prime(M(F2, "1,0,0 ; 0,1,0"))


@pytest.mark.parametrize("spec", [F2, F4, F5, make_field(3, 2)])
def test_left_prime_iff_smith_identity(spec):
    # three routes to one verdict: the gcd of the maximal minors, the Smith
    # form [I 0], and the column Hermite form that ConvolutionalCode uses
    rng = random.Random(13)
    verdicts = set()
    for k in (1, 2, 3):
        for n in range(k, 2 * k + 1):
            for _ in range(12):
                a = rand_full_rank(rng, spec, k, n)
                prime = is_left_prime(a)
                assert is_identity_padded(smith(a).S) == prime
                assert ConvolutionalCode(a).is_noncatastrophic() == prime
                verdicts.add(prime)
    assert verdicts == {False, True}


def test_right_kernel_examples():
    assert right_kernel_basis(M(F2, "1,1")) == M(F2, "1,1")
    assert right_kernel_basis(M(F2, "1,0,0 ; 0,1,0")) == M(F2, "0,0,1")
    a = M(F2, "1,0,1,0 ; 0,1,0,1")  # [I_2 I_2]
    h = right_kernel_basis(a)
    assert (a @ h.transpose()).is_zero()
    assert row_hermite(h).form == row_hermite(a).form  # equal row spans


# Ten samples each on three shapes, three each on the rest of the grid
# k <= 3, k <= n <= 2k + 2 over GF(2), GF(4), GF(5) and GF(9).
_KERNEL_SHAPES_DEEP = [(F2, 2, 4), (F5, 2, 4), (F4, 1, 3)]
_KERNEL_SHAPES = _KERNEL_SHAPES_DEEP + [
    (spec, k, n)
    for spec in (F2, F4, F5, make_field(3, 2))
    for k in (1, 2, 3)
    for n in range(k, 2 * k + 3)
    if (spec, k, n) not in _KERNEL_SHAPES_DEEP
]


@pytest.mark.parametrize("spec,k,n", _KERNEL_SHAPES)
def test_right_kernel_properties(spec, k, n):
    # the Hermite kernel against the Smith kernel: another basis of the
    # same module, so the row Hermite forms and the dual codes agree
    rng = random.Random(17)
    for _ in range(10 if (spec, k, n) in _KERNEL_SHAPES_DEEP else 3):
        a = rand_full_rank(rng, spec, k, n)
        h = right_kernel_basis(a)
        oracle = smith_kernel_basis(a)
        assert h.rows == n - k
        assert (a @ h.transpose()).is_zero()
        assert is_left_prime(h)
        assert row_hermite(h).form == row_hermite(oracle).form
        assert ConvolutionalCode(a).dual() == ConvolutionalCode(oracle)


@pytest.mark.parametrize("spec,k,n", _KERNEL_SHAPES)
def test_form_only_paths_match_the_decompositions(spec, k, n):
    # a code, its non-catastrophic check and rank reduce the matrix alone;
    # each must read what the decomposition with its transform reads, and a
    # square row Hermite form is I exactly when the Bareiss oracle says
    # unimodular
    rng = random.Random(31)
    for _ in range(3):
        a = rand_unimodular(rng, spec, k) @ rand_full_rank(rng, spec, k, n)
        code = ConvolutionalCode(a)
        assert code.canonical_generator() == row_hermite(a).form
        assert code.is_noncatastrophic() == is_identity_padded(col_hermite(a).form)
        assert rank(a) == k == rank(a.transpose())
        if k == n:
            assert is_unimodular(a) == (row_hermite(a).form == PolyMatrix.identity(spec, k))


@pytest.mark.parametrize("spec,k,n", _KERNEL_SHAPES)
def test_form_only_membership_and_self_orthogonality_match_the_oracles(spec, k, n):
    # contains reduces by the canonical form alone and is_self_orthogonal
    # dots row pairs; the [H | U] route of solve_left and the Gram product
    # are the oracles
    rng = random.Random(37)
    z = Poly.z(spec)
    verdicts = set()
    for _ in range(3):
        a = rand_unimodular(rng, spec, k) @ rand_full_rank(rng, spec, k, n)
        code = ConvolutionalCode(a)
        m = tuple(rand_poly(rng, spec, 2) for _ in range(k))
        word = tuple(dot(m, a.column(j)) for j in range(n))
        other = tuple(x + rand_poly(rng, spec, 3) for x in word)
        shifted = tuple(z * x for x in a.row(rng.randrange(k)))
        for v in (word, other, shifted):
            member = code.contains(v)
            assert member == (solve_left(a, v) is not None)
            verdicts.add(member)
        assert is_self_orthogonal(a) == (a @ a.transpose()).is_zero()
    # a square generator may be unimodular, and then every vector is a word
    assert verdicts == {True, False} or (k == n and verdicts == {True})


def test_self_orthogonality_matches_the_gram_product():
    F9 = make_field(3, 2)
    cases = [
        PolyMatrix(F2, [], cols=4),
        PolyMatrix(F9, [], cols=0),
        PolyMatrix(F2, [[], []], cols=0),
        PolyMatrix(F5, [[]] * 3, cols=0),
        M(F5, "1,2,0 ; 0,0,1"),  # only the last row's own product is nonzero
        M(F2, "1,1,0,0 ; 0,1,1,0"),  # only the product of the two rows is
        M(F2, "1,0"),
    ]
    cases += [rec.canonical_generator for rec in classify42(2)]
    cases += [rand_unimodular(random.Random(i), F2, 2) @ c for i, c in enumerate(cases[-6:])]
    verdicts = [is_self_orthogonal(a) for a in cases]
    assert verdicts == [(a @ a.transpose()).is_zero() for a in cases]
    assert verdicts[:7] == [True] * 4 + [False] * 3
    assert all(verdicts[7:])


def test_right_kernel_errors():
    with pytest.raises(RankDeficient, match=r"^rank 1 < 2$"):
        right_kernel_basis(M(F2, "z,z ; z,z"))
    with pytest.raises(ShapeUnsupported, match="need rows <= cols, got 3x2"):
        right_kernel_basis(M(F2, "1,0 ; 0,1 ; 1,1"))
    assert right_kernel_basis(PolyMatrix(F2, [], cols=3)) == PolyMatrix.identity(F2, 3)


def test_noncatastrophic_generator_completes_to_unimodular():
    # stack the generator on the complementary rows of the inverse Smith
    # column transform; the result must be unimodular
    rng = random.Random(19)
    for _ in range(8):
        a = rand_full_rank(rng, F2, 2, 4)
        if not is_left_prime(a):
            continue
        v_inv = inverse_unimodular(smith(a).V)
        bottom = PolyMatrix(F2, v_inv.entries[a.rows :], cols=a.cols)
        assert is_unimodular(vstack(a, bottom))


def test_solve_left_examples():
    a = M(F2, "0,z^2+z+1,z,z^2+1 ; 1,1,1,1")
    sol = solve_left(a, parse_vector(F2, "1,1,1,1"))
    assert sol == (Poly.zero(F2), Poly.one(F2))
    row0 = a.entries[0]
    assert solve_left(a, row0) == (Poly.one(F2), Poly.zero(F2))
    assert solve_left(M(F2, "z,z,1,1"), parse_vector(F2, "1,1,1,1")) is None
    # any iterable, read once
    assert solve_left(a, (e for e in row0)) == (Poly.one(F2), Poly.zero(F2))
    assert solve_left(a, iter((1, 1, 1, 1))) == sol


def test_solve_left_errors():
    with pytest.raises(DimensionMismatch):
        solve_left(M(F2, "1,1"), parse_vector(F2, "1,1,1"))
    with pytest.raises(DimensionMismatch):
        solve_left(M(F2, "1,1"), (e for e in parse_vector(F2, "1,1,1")))
    with pytest.raises(RankDeficient):
        solve_left(M(F2, "z,z ; z,z"), parse_vector(F2, "1,1"))
    with pytest.raises(ShapeUnsupported, match="need rows <= cols, got 2x1"):
        solve_left(M(F2, "1 ; z"), parse_vector(F2, "1"))
    empty = PolyMatrix(F2, [], cols=2)
    assert solve_left(empty, parse_vector(F2, "0,0")) == ()
    assert solve_left(empty, parse_vector(F2, "0,z")) is None


@pytest.mark.parametrize("field", [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2)])
def test_solve_left_matches_the_column_hermite_oracle(field):
    # members m @ A and random vectors, most of them outside the span
    spec = make_field(*field)
    rng = random.Random(41)
    outside = 0
    for _ in range(12):
        k = rng.randint(1, 3)
        n = rng.randint(k, 6)
        a = rand_full_rank(rng, spec, k, n)
        m = tuple(rand_poly(rng, spec, 2) for _ in range(k))
        member = tuple(dot(m, a.column(j)) for j in range(n))
        assert solve_left(a, member) == col_hermite_solve_left(a, member) == m
        for _ in range(3):
            v = tuple(rand_poly(rng, spec, 3) for _ in range(n))
            assert solve_left(a, v) == col_hermite_solve_left(a, v)
            outside += solve_left(a, v) is None
    assert outside > 18


@pytest.mark.parametrize("spec", [F2, F5])
def test_solve_left_roundtrip(spec):
    rng = random.Random(23)
    for _ in range(10):
        a = rand_full_rank(rng, spec, 2, 4)
        m = [rand_poly_deg2(rng, spec), rand_poly_deg2(rng, spec)]
        v = tuple(
            sum((m[i] * a.entries[i][j] for i in range(2)), Poly.zero(spec))
            for j in range(4)
        )
        assert solve_left(a, v) == tuple(m)


def rand_poly_deg2(rng, spec):
    from helpers import rand_poly

    return rand_poly(rng, spec, 2)


def test_rank_counts_pivots():
    assert rank(M(F2, "1,1 ; 1,1")) == 1
    assert rank(M(F2, "1,0 ; 0,1")) == 2
    assert rank(M(F2, "z,z ; z,z")) == 1
    # tall matrices: the pivot count needs no transpose
    for text, expected in (("1,0 ; 0,z ; 1,z", 2), ("z,1 ; z^2,z ; 0,0", 1), ("0,0 ; 0,0 ; 0,0", 0)):
        a = M(F2, text)
        assert rank(a) == expected == rank(a.transpose())


@pytest.mark.parametrize(
    "build,error",
    [
        pytest.param(lambda: vstack(), DimensionMismatch, id="vstack-of-no-blocks"),
        pytest.param(lambda: PolyMatrix(F2, [], cols=-1), OutOfRange, id="negative-cols"),
        pytest.param(lambda: PolyMatrix.zeros(F2, -1, 2), OutOfRange, id="zeros-negative-rows"),
        pytest.param(lambda: Poly(F2, ["1"]), FieldMismatch, id="text-coefficient"),
        pytest.param(lambda: PolyMatrix(F2, [["1"]]), FieldMismatch, id="text-entry"),
    ],
)
def test_matrix_api_edges_raise_typed_errors(build, error):
    with pytest.raises(error) as info:
        build()
    assert isinstance(info.value, SdconvError)


def test_matrix_text_roundtrip():
    text = "1,1,1,1 ; 0,z^2+z+1,z,z^2+1"
    a = M(F2, text)
    assert str(a) == text
    assert parse_matrix(F2, str(a)) == a
    with pytest.raises(ParseError):
        parse_matrix(F2, "1,1 ; 1")
    with pytest.raises(ParseError):
        parse_matrix(F2, "")
    with pytest.raises(ParseError):
        parse_vector(F2, "1,1 ; 0,1")


def test_minors_of_coprime_pair_code():
    a = M(F2, "1,1,1,1 ; 0,1,z+1,z")
    z = Poly.z(F2)
    minors = maximal_minors(a)
    assert sorted(str(m) for m in minors) == sorted(
        str(m) for m in [Poly.one(F2), z + 1, z, z, z + 1, Poly.one(F2)]
    )
    g = Poly.zero(F2)
    for m in minors:
        g = gcd(g, m)
    assert g == Poly.one(F2)
    assert max(m.degree() for m in minors) == 1


def test_degree_of_zero_sorts_below_everything():
    assert NEG_INF < Poly.one(F2).degree()


def outcome(f, *args):
    """What f(*args) returns, or the type and message of its typed error."""
    try:
        return f(*args)
    except SdconvError as e:
        return type(e), str(e)


def _differential_cases(rng, spec):
    """Every shape k <= 3, k <= n <= 2k + 1, entries of degree <= 2; some
    with a zero row, some with a row that is a multiple of another."""
    for k in range(4):
        for n in range(k, 2 * k + 2):
            rows = [list(row) for row in rand_matrix(rng, spec, k, n).entries]
            kind = rng.randrange(3)
            if k > 1 and kind:
                i, j = rng.sample(range(k), 2)
                q = rand_poly(rng, spec, 1) if kind == 2 else Poly.zero(spec)
                rows[i] = [q * x for x in rows[j]]
            yield PolyMatrix(spec, rows, cols=n)


@pytest.mark.parametrize("field", [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2), (2, 4), (2, 8)])
def test_eliminations_match_the_poly_oracles(field):
    # the code-grid eliminations against the Poly-level ones they replaced:
    # the same pivots, forms, transforms, verdicts and typed errors
    spec = make_field(*field)
    rng = random.Random(1600 + spec.q)
    p = spec.p
    cases = [m for _ in range(3) for m in _differential_cases(rng, spec)]
    # self-orthogonal inputs: rows constant over p columns, and self-dual codes
    cases += [PolyMatrix(spec, [[rand_poly(rng, spec, 2)] * p for _ in range(2)], cols=p)]
    cases += [rand_unimodular(rng, spec, c.k) @ c.generator for c in base_self_dual_codes() if c.spec == spec]
    orthogonal = deficient = singular = 0
    for a in cases:
        k, n = a.rows, a.cols
        grid = _beside_identity(spec, _grid(a.entries))
        pivots = _hermite_core(spec, grid, n)
        unit = PolyMatrix.identity(spec, k).entries
        rows, oracle_pivots = oracle_hermite_core(spec, [r + u for r, u in zip(a.entries, unit)], n)
        assert pivots == oracle_pivots
        assert grid == [[list(e.codes) for e in row] for row in rows]
        for f, oracle in [
            (row_hermite, oracle_row_hermite),
            (col_hermite, oracle_col_hermite),
            (smith, oracle_smith),
            (rank, oracle_rank),
            (right_kernel_basis, oracle_right_kernel_basis),
            (inverse_unimodular, oracle_inverse_unimodular),
            (row_reduced, oracle_row_reduced),
            (is_self_orthogonal, oracle_is_self_orthogonal),
        ]:
            assert outcome(f, a) == outcome(oracle, a), (f.__name__, str(a))
        square = PolyMatrix(spec, [row[:k] for row in a.entries], cols=k)
        for b in (square, rand_unimodular(rng, spec, max(k, 1))):
            assert outcome(inverse_unimodular, b) == outcome(oracle_inverse_unimodular, b)
            det = determinant(b)
            assert det == det_bareiss(b.entries, spec) == det_laplace(b.entries, spec), str(b)
            singular += not det
        m = tuple(rand_poly(rng, spec, 2) for _ in range(k))
        word = tuple(dot(m, a.column(j)) for j in range(n)) if k else (Poly.zero(spec),) * n
        other = tuple(rand_poly(rng, spec, 2) for _ in range(n))
        for v in (word, other):
            assert outcome(solve_left, a, v) == outcome(oracle_solve_left, a, v)
        if oracle_rank(a) == k:
            # oracle_smith runs the same alternation; the minors check S apart
            assert smith(a).diagonal() == invariant_factors(a), str(a)
            code = ConvolutionalCode(a)
            assert code.is_noncatastrophic() == oracle_is_noncatastrophic(a)
            assert code.contains(other) == (oracle_solve_left(a, other) is not None)
        else:
            deficient += 1
        orthogonal += oracle_is_self_orthogonal(a)
    assert deficient and orthogonal and singular


def test_eliminations_do_no_poly_arithmetic(monkeypatch):
    # the eliminations run on code grids: no Poly or FieldElement operator
    # or dot is called, and every result is the unpatched one
    rng = random.Random(16)
    F9 = make_field(3, 2)
    a = rand_unimodular(rng, F9, 2) @ rand_full_rank(rng, F9, 2, 4)
    u = smith(a).U
    word = tuple(dot((Poly.z(F9), Poly.one(F9)), a.column(j)) for j in range(4))
    top = max(classify42(2), key=lambda rec: rec.degree)
    g = rand_unimodular(rng, F2, 2) @ top.canonical_generator
    codeword = tuple(dot((Poly.one(F2), Poly.z(F2)), g.column(j)) for j in range(4))
    square = PolyMatrix(F9, [row[1:3] for row in a.entries])

    def code_answers():
        c = ConvolutionalCode(g)
        return c.canonical_generator(), c.is_self_dual(), c.contains(codeword), c.code_degree()

    calls = {
        "row_hermite": lambda: row_hermite(a),
        "col_hermite": lambda: col_hermite(a),
        "smith": lambda: smith(a),
        "rank": lambda: rank(a),
        "right_kernel_basis": lambda: right_kernel_basis(a),
        "inverse_unimodular": lambda: inverse_unimodular(u),
        "solve_left": lambda: solve_left(a, word),
        "row_reduced": lambda: row_reduced(a),
        "code": code_answers,
        "gcd": lambda: gcd(a.entries[0][0], a.entries[1][0]),
        "xgcd": lambda: xgcd(a.entries[0][1], a.entries[1][1]),
        "vec_content": lambda: vec_content(word),
        "determinant": lambda: (determinant(square), determinant(u)),
    }
    expected = {name: call() for name, call in calls.items()}
    assert expected["code"][1:] == (True, True, 2)
    assert expected["solve_left"] == (Poly.z(F9), Poly.one(F9))

    def refuse(*args):
        raise AssertionError("Poly or FieldElement arithmetic in an elimination")

    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__",
                 "__pow__", "__divmod__", "__floordiv__", "__mod__", "monic"):
        monkeypatch.setattr(Poly, name, refuse)
    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
                 "__rmul__", "__truediv__", "__pow__", "inverse", "__eq__", "__hash__"):
        monkeypatch.setattr(FieldElement, name, refuse)
    for module in (polys, matrices, codes):
        if hasattr(module, "dot"):
            monkeypatch.setattr(module, "dot", refuse)
    for name, call in calls.items():
        assert call() == expected[name], name
