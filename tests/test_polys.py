import random

import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import (
    oracle_format_poly,
    oracle_gcd,
    oracle_parse_element,
    oracle_parse_poly,
    oracle_xgcd,
    school_add,
    school_divmod,
    school_dot,
    school_mul,
    school_sub_mul,
)
from sdconv import (
    ConvolutionalCode,
    FieldSpec,
    Poly,
    PolyMatrix,
    dot,
    fields,
    gcd,
    make_field,
    parse_element,
    parse_matrix,
    parse_poly,
    parse_vector,
    vec_content,
    xgcd,
)
from sdconv.errors import DimensionMismatch, DivisionByZero, FieldMismatch, ParseError, SdconvError, SearchSpaceTooLarge
from sdconv.polys import NEG_INF, _divmod_codes, as_poly_vector, format_poly

F2 = make_field(2)
F3 = make_field(3)
F4 = make_field(2, 2)
F5 = make_field(5)
F9 = make_field(3, 2)
F13 = make_field(13)
F16 = make_field(2, 4)
F256 = make_field(2, 8)


def P(spec, *coeffs):
    return Poly(spec, coeffs)


def polys(spec, max_deg=5):
    els = st.sampled_from(spec.elements())
    return st.lists(els, max_size=max_deg + 1).map(lambda cs: Poly(spec, cs))


def test_normalization_strips_trailing_zeros():
    assert P(F2, 1, 0, 0) == P(F2, 1)
    assert not P(F2, 0, 0)
    assert P(F2).degree() == NEG_INF
    assert P(F2).degree() < -(10**9)


def test_arithmetic_examples():
    z = Poly.z(F2)
    assert (z**2 + z + 1) + (z**2 + 1) == z
    assert z * (z + 1) == z**2 + z
    z5 = Poly.z(F5)
    assert (z5 + 2) * 3 == 3 * z5 + 1


def test_divrem_examples():
    z = Poly.z(F2)
    assert divmod(z**2 + 1, z) == (z, Poly.one(F2))
    # (z+1)^2 = z^2+1 in characteristic 2
    assert (z + 1) * (z + 1) == z**2 + 1
    assert divmod(z**2 + 1, z + 1) == (z + 1, Poly.zero(F2))
    u = z**3 + z + 1
    assert divmod(u, u) == (Poly.one(F2), Poly.zero(F2))
    with pytest.raises(DivisionByZero):
        divmod(u, Poly.zero(F2))


def test_xgcd_examples():
    z = Poly.z(F2)
    # Euclid by hand: z^2+1 = z*z + 1, so the gcd is 1
    g, _, _ = xgcd(z, z**2 + 1)
    assert g == Poly.one(F2)
    g, _, _ = xgcd(z + 1, z**2 + 1)
    assert g == z + 1
    u = 3 * Poly.z(F5) + 1
    g, s, t = xgcd(u, Poly.zero(F5))
    assert g == u.monic() and t == Poly.zero(F5)
    assert s == Poly(F5, (F5.from_int(3).inverse(),))
    assert xgcd(Poly.zero(F2), Poly.zero(F2))[0] == Poly.zero(F2)
    # a field element or an int is lifted over the polynomial's field, as
    # Poly operators lift it; a value that cannot be is a typed error
    one = Poly.one(F2)
    assert xgcd(z, 1) == (one, Poly.zero(F2), one) == xgcd(z, F2.one)
    assert xgcd(F5.from_int(2), u) == (Poly.one(F5), Poly(F5, (3,)), Poly.zero(F5))
    for bad in ((1, 1), (F2.one, F2.one), (z, "z"), (z, F5.one), (z, Poly.z(F5))):
        with pytest.raises(FieldMismatch):
            xgcd(*bad)


@pytest.mark.parametrize("spec", [F2, F4, F5])
def test_divrem_roundtrip_property(spec):
    @settings(max_examples=150)
    @given(polys(spec), polys(spec))
    def inner(u, v):
        if not v:
            return
        q, r = divmod(u, v)
        assert q * v + r == u
        assert r.degree() < v.degree()

    inner()


@pytest.mark.parametrize("spec", [F2, F4, F5, F3, F9, F13, F16])
def test_xgcd_bezout_property(spec):
    z = Poly.z(spec)

    @settings(max_examples=150)
    @given(polys(spec), polys(spec))
    @example(Poly.zero(spec), Poly.zero(spec))
    @example(Poly.zero(spec), z + 1)
    @example(z**2 + 1, z**2 + z)
    def inner(u, v):
        # the cofactors too are Euclid's, ties of equal degree included
        assert xgcd(u, v) == oracle_xgcd(u, v)
        g, s, t = xgcd(u, v)
        assert s * u + t * v == g
        if g:
            assert g.lc() == spec.one
            assert not u % g and not v % g

    inner()


@pytest.mark.parametrize("spec", [F2, F3, F4, F5, F9, F16, F256], ids=repr)
def test_divmod_codes_matches_school_long_division(spec):
    # the one division loop on code lists against long division on
    # elements: every unit divisor, whose quotient is one scaling, and
    # seeded divisors of degree 1 and 2, each on the zero dividend and on
    # seeded dividends of degree <= 4
    rng = random.Random(spec.q)
    els = spec.elements()

    def codes(deg):  # a trimmed code list of degree deg
        return [rng.randrange(spec.q) for _ in range(deg)] + [rng.randrange(1, spec.q)]

    dividends = [[]] + [codes(rng.randrange(5)) for _ in range(8)]
    divisors = [[c] for c in range(1, spec.q)] + [codes(d) for d in (1, 1, 2, 2)]
    for b in divisors:
        for a in dividends:
            quo, rem = school_divmod(spec, tuple(els[c] for c in a), tuple(els[c] for c in b))
            want = ([e.code for e in quo], [e.code for e in rem])
            assert _divmod_codes(spec, a, b) == want, (a, b)


@pytest.mark.parametrize("spec", [F2, F3, F4, F5, F9, F16, F256])
def test_kernel_matches_the_element_oracle(spec):
    # FieldSpec(...) is make_field's door: it gives the field itself
    twin = FieldSpec(spec.p, spec.l, spec.modulus)
    assert twin is spec

    pairs = st.lists(st.tuples(polys(spec), polys(spec)), min_size=1, max_size=4)

    @settings(max_examples=60)
    @given(polys(spec), polys(spec), polys(spec), pairs)
    def inner(x, q, y, pairs):
        a, b, c = x.coeffs, q.coeffs, y.coeffs
        results = {
            "*": (x * q, school_mul(spec, a, b)),
            "-": (x - q, school_add(spec, a, b, sign=-1)),
            "x - q*y": (x - q * y, school_sub_mul(spec, a, b, c)),
        }
        us, vs = zip(*pairs)
        expected = school_dot(spec, [u.coeffs for u in us], [v.coeffs for v in vs])
        results["dot"] = (dot(us, vs), expected)
        if q:
            quo, rem = divmod(x, q)
            oracle_quo, oracle_rem = school_divmod(spec, a, b)
            results["//"] = (quo, oracle_quo)
            results["%"] = (rem, oracle_rem)
        for op, (got, want) in results.items():
            assert got.coeffs == want, op
            els = spec.elements()
            assert all(e is els[k] for e, k in zip(got.coeffs, got.codes)), op
        # a polynomial over FieldSpec(...) is one over the field itself
        x_twin = Poly(twin, a)
        assert x_twin.spec is spec and x_twin == x and hash(x_twin) == hash(x)
        assert all(e is spec.elements()[e.code] for e in x_twin.coeffs)
        assert x_twin - x == Poly.zero(spec)

    inner()


@pytest.mark.parametrize("spec", [F2, F3, F4, F5, F9, F13, F16])
def test_gcd_is_the_gcd_of_xgcd(spec):
    z = Poly.z(spec)

    @settings(max_examples=100)
    @given(polys(spec), polys(spec))
    @example(Poly.zero(spec), Poly.zero(spec))
    @example(z + 1, Poly.zero(spec))
    @example(z**2 + z, z**2 + 1)
    def inner(u, v):
        assert gcd(u, v) == oracle_gcd(u, v) == oracle_xgcd(u, v)[0]

    inner()


def test_freshman_dream_over_f2():
    @settings(max_examples=100)
    @given(st.lists(polys(F2), min_size=1, max_size=5))
    def inner(fs):
        total_sq = sum((f * f for f in fs), Poly.zero(F2))
        sq_total = sum(fs, Poly.zero(F2)) ** 2
        assert total_sq == sq_total

    inner()


def test_vec_content_examples():
    z = Poly.z(F2)
    assert vec_content((Poly.zero(F2), z**2 + z + 1, z, z**2 + 1)) == Poly.one(F2)
    assert vec_content((z, z**2, z**3)) == z
    assert vec_content((Poly.zero(F2), Poly.zero(F2))) == Poly.zero(F2)
    # entries that are field elements or ints are lifted over the field of
    # the polynomial ones; a call without one, or with a value that cannot
    # be lifted, is a typed error
    assert vec_content([z, 1]) == Poly.one(F2) == gcd(z, 1) == gcd(z, F2.one)
    assert vec_content([0, z**2, z]) == z == gcd(0, z)
    assert vec_content(p for p in (z + 1, z**2)) == Poly.one(F2)  # any iterable, read once
    assert vec_content([F5.from_int(3), Poly.zero(F5)]) == Poly.one(F5) == gcd(Poly.z(F5), 2)
    for bad in ([1, 2], [F2.one], [z, None], [z, 1.5], [z, F5.one], [z, Poly.z(F5)]):
        with pytest.raises(SdconvError):
            vec_content(bad)
    for bad in ((1, 0), (z, "1"), (F4.one, z)):
        with pytest.raises(SdconvError):
            gcd(*bad)
    with pytest.raises(DimensionMismatch):
        vec_content(5)  # not iterable


def test_dot_lifts_values_as_poly_operators_do():
    z = Poly.z(F2)
    assert dot([z], [1]) == z == z * 1
    assert dot([z, F2.one], [z, z]) == z**2 + z
    assert dot([1, z], [z, 1]) == Poly.zero(F2)  # 2z over GF(2)
    z5 = Poly.z(F5)
    assert dot([F5.from_int(3), 2], [z5, z5 + 1]) == 3 * z5 + 2 * (z5 + 1)
    # FieldSpec(...) gives the first entry's field itself
    assert dot([z], [Poly.z(FieldSpec(2, 1, F2.modulus))]) == z**2
    for bad in (([1], [1]), ([F2.one], [1]), ([z], [Poly.z(F5)]), ([z], ["1"]), ([z], [1.5])):
        with pytest.raises(FieldMismatch):
            dot(*bad)
    # any iterables, read once
    assert dot((e for e in [z, F2.one]), iter([z, z])) == z**2 + z
    assert dot(iter([1]), (e for e in [z])) == z
    with pytest.raises(DimensionMismatch):
        dot(iter([z]), (e for e in [z, z]))


def test_every_door_into_f9_z_lifts_a_value_alike():
    # one table of values, each with its lift over F9, or None where the
    # lift is FieldMismatch; each door must answer as it does on the lift
    twin = FieldSpec(3, 2, F9.modulus)  # F9 itself
    other = make_field(3, 2, (2, 2, 1))  # GF(9) with another modulus
    assert twin is F9 and other is not F9
    a, z = F9.element((0, 1)), Poly.z(F9)
    lift = lambda text: parse_poly(F9, text)
    table = [
        (7, lift("1")),
        (-1, lift("2")),
        (True, lift("1")),
        (a, lift("a")),
        (twin.element((0, 1)), lift("a")),
        (F3.from_int(2), None),
        (other.element((0, 1)), None),
        (Poly(F9, (1, a)), lift("a*z+1")),
        (Poly(twin, (1, twin.element((0, 1)))), lift("a*z+1")),
        (Poly(F3, (1, 2)), None),
        (Poly(other, (1, other.element((0, 1)))), None),
        ("a", None),
        (1.0, None),
    ]
    code = ConvolutionalCode(PolyMatrix(F9, [[1, z]]))
    doors = {
        "add": lambda x: z + x,
        "mul": lambda x: z * x,
        "PolyMatrix": lambda x: PolyMatrix(F9, [[x]]).entries[0][0],
        "as_poly_vector": lambda x: as_poly_vector(F9, [x])[0],
        "dot": lambda x: dot([Poly.one(F9)], [x]),
        "gcd": lambda x: gcd(z + a, x),
        "vec_content": lambda x: vec_content([z, x]),
        "contains": lambda x: code.contains((x, a * z)),  # iff x lifts to a
    }

    def outcome(f, x):
        try:
            return f(x)
        except Exception as e:
            return type(e)

    for value, expected in table:
        got = {name: outcome(door, value) for name, door in doors.items()}
        want = {name: FieldMismatch if expected is None else door(expected) for name, door in doors.items()}
        if not isinstance(value, Poly):  # a coefficient is a scalar
            got["Poly"] = outcome(lambda x: Poly(F9, (x,)), value)
            want["Poly"] = FieldMismatch if expected is None else expected
        assert got == want, value


def test_gcd_monic_over_f5():
    z = Poly.z(F5)
    assert gcd(2 * z + 2, 3 * z + 3) == z + 1


def test_field_mismatch():
    with pytest.raises(FieldMismatch):
        Poly.z(F2) + Poly.z(F5)


FIELD_DOORS = {
    "Poly": lambda spec: Poly(spec, (1,)),
    "Poly.zero": Poly.zero,
    "Poly.one": Poly.one,
    "Poly.z": Poly.z,
    "PolyMatrix": lambda spec: PolyMatrix(spec, [[1]]),
    "parse_poly": lambda spec: parse_poly(spec, "z"),
    "parse_matrix": lambda spec: parse_matrix(spec, "1,z"),
    "parse_vector": lambda spec: parse_vector(spec, "1,z"),
    "parse_element": lambda spec: parse_element(spec, "1"),
}


@pytest.mark.parametrize("door", FIELD_DOORS.values(), ids=FIELD_DOORS.keys())
@pytest.mark.parametrize("spec", [5, None, "GF(5)", F5.one, Poly.z(F5)], ids=repr)
def test_a_spec_that_is_not_a_field_is_field_mismatch(door, spec):
    assert door(F5) is not None
    with pytest.raises(FieldMismatch, match="is not a field"):
        door(spec)


def test_format_canonical():
    z = Poly.z(F2)
    assert str(z**2 + z + 1) == "z^2+z+1"
    assert str(Poly.zero(F2)) == "0"
    assert str(Poly.one(F2)) == "1"
    z5 = Poly.z(F5)
    assert str(3 * z5 + 1) == "3*z+1"
    assert str(z5**3 + 2) == "z^3+2"
    a = F4.element((0, 1))
    assert str((a + 1) * Poly.z(F4)) == "(a+1)*z"
    assert str(Poly(F4, (a, a + 1))) == "(a+1)*z+a"


def test_parse_examples():
    assert parse_poly(F2, "z^2 + z + 1") == Poly.z(F2) ** 2 + Poly.z(F2) + 1
    assert parse_poly(F2, "0") == Poly.zero(F2)
    assert parse_poly(F5, "3*z+1") == 3 * Poly.z(F5) + 1
    assert parse_poly(F5, "z + z") == 2 * Poly.z(F5)
    a = F4.element((0, 1))
    assert parse_poly(F4, "(a+1)*z") == (a + 1) * Poly.z(F4)
    assert parse_poly(F4, "a*z^2+a+1") == a * Poly.z(F4) ** 2 + a + 1
    with pytest.raises(ParseError):
        parse_poly(F2, "")
    with pytest.raises(ParseError):
        parse_poly(F2, "z^2 +")
    with pytest.raises(ParseError):
        parse_poly(F2, "(z+1")
    # of two faults, the one written first is reported
    with pytest.raises(SearchSpaceTooLarge):
        parse_poly(F16, "a^5002+")
    with pytest.raises(SearchSpaceTooLarge):
        parse_element(F16, "a^5002+")
    with pytest.raises(ParseError):
        parse_poly(F2, "*a+z^7518")


def test_leading_zeros_do_not_count_against_the_exponent_cap():
    assert parse_poly(F2, "z^00001") == Poly.z(F2)
    a = F9.element((0, 1))
    assert parse_element(F9, "a^00002") is a * a
    assert parse_poly(F2, "z^0001024") == Poly.z(F2) ** 1024
    # leading zeros in another decimal script (Arabic-Indic digits)
    assert parse_poly(F2, "z^٠٠٠٠١") == Poly.z(F2)
    assert parse_poly(F2, "z^٠١٠٢٤") == Poly.z(F2) ** 1024
    assert parse_element(F9, "a^٠٠٠٠٢") is a * a
    assert parse_poly(F2, "z^" + "0" * 4000 + "7") == Poly.z(F2) ** 7
    for text in ("z^01025", "z^1025", "z^99999", "z^٠١٠٢٥"):
        with pytest.raises(SearchSpaceTooLarge):
            parse_poly(F2, text)
    # the exponent's digits are capped like a coefficient's, zeros or not
    with pytest.raises(SearchSpaceTooLarge):
        parse_poly(F2, "z^" + "0" * 4300 + "1")


def test_a_power_is_refused_when_its_degree_passes_the_exponent_cap():
    z = Poly.z(F2)
    assert (z * z + 1) ** 512 == parse_poly(F2, "z^1024+1")
    for base, n in ((z, 1025), (z * z, 513), (z + 1, 1025), (Poly.z(F5), 10**50)):
        with pytest.raises(SearchSpaceTooLarge):
            base ** n
    # a constant's powers have degree 0 for any exponent
    assert Poly.one(F5) ** 10**50 == Poly.one(F5)
    assert Poly(F5, (2,)) ** (10**50 + 1) == Poly(F5, (2,))  # 2^4 = 1 in GF(5)
    assert Poly.zero(F5) ** 10**50 == Poly.zero(F5)


@pytest.mark.parametrize("spec", [F2, F4, F5, F9, F16, F256])
def test_format_parse_roundtrip(spec):
    @settings(max_examples=150)
    @given(polys(spec))
    def inner(p):
        text = format_poly(p)
        assert text == oracle_format_poly(p)
        assert parse_poly(spec, text) == p

    inner()


@pytest.mark.parametrize("spec", [F9, F16, F256])
def test_canonical_text_is_read_and_written_by_table(spec, monkeypatch):
    # canonical element text, bare or in one pair of parentheses, is a
    # lookup in the field's inverse text table and never runs the grammar,
    # and format_poly writes every term of a polynomial in one
    # _format_terms call, with the coefficient texts from the text table
    calls = []
    real = fields.parse_int_poly
    monkeypatch.setattr(fields, "parse_int_poly", lambda *args: calls.append(args) or real(*args))
    formatted = []
    real_format = fields._format_terms
    monkeypatch.setattr("sdconv.polys._format_terms", lambda *args: formatted.append(args) or real_format(*args))
    for e in spec.elements():
        text = str(e)
        for written in (text, f"({text})"):
            assert parse_element(spec, written) is e
            assert parse_poly(spec, written) == Poly(spec, [e])
        p = Poly(spec, [e, e, e])
        written = format_poly(p)
        assert parse_poly(spec, written) == p
        assert written == oracle_format_poly(p)
    assert calls == []
    assert len(formatted) == spec.q


# Short text over the grammar's alphabet; the two-letter pieces make powers
# and products likelier than single letters would.
GRAMMAR_TEXT = st.lists(
    st.sampled_from([*"az0123456789+*^() ", "z^", "a^", "*z", "*a", "+z", "+a"]), max_size=8
).map("".join)


def _outcome(parse, spec, text):
    try:
        return parse(spec, text)
    except SdconvError as exc:
        return type(exc), str(exc)


@settings(max_examples=600)
@given(st.sampled_from([F2, F4, F5, F9, F16, F256]), GRAMMAR_TEXT)
@example(F9, " ( a ^ 3 + 2*a) *z^2 + z + z+(1)")
# the edges of the inverse text table: canonical text in parentheses, text
# the table does not hold (a leading zero, an unreduced constant, a power
# canonical only in a larger field, two pairs of parentheses), and the
# malformed cells of the bench's stream
@example(F16, "(a^3+1)*z")
@example(F16, "01")
@example(F5, "01")
@example(F5, "7")
@example(F16, "a^7")
@example(F9, "((a+1))*z")
@example(F16, "w")
@example(F16, "z^")
@example(F16, "(z+1")
@example(F16, "")
def test_arbitrary_text_parses_or_raises_a_typed_error(spec, text):
    # the polynomial grammar in z and the element grammar in a, against the
    # FieldElement route: the same value, or an SdconvError of the same type
    # and message; never another exception
    for parse, oracle in ((parse_poly, oracle_parse_poly), (parse_element, oracle_parse_element)):
        assert _outcome(parse, spec, text) == _outcome(oracle, spec, text)
