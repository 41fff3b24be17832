import itertools
import random

import pytest

from helpers import (
    F2,
    F4,
    F5,
    bounded_free_distance,
    classify42,
    generalized_singleton_bound,
    maximal_minors,
    rand_full_rank,
    rand_unimodular,
    self_dual_corpus,
)
from sdconv import (
    ConvolutionalCode,
    DistanceReport,
    FieldElement,
    Poly,
    PolyMatrix,
    building_up,
    default_a_vec,
    direct_sum,
    find_completion,
    hm_extend,
    iter_bounded_polys,
    make_field,
    orthogonal_chain,
    parse_matrix,
    parse_vector,
)
from sdconv.codes import MAX_CANDIDATES, STATUS_EXACT, STATUS_UPPER
from sdconv.errors import DimensionMismatch, OutOfRange, RankDeficient, SearchSpaceTooLarge


def code(spec, text):
    return ConvolutionalCode(parse_matrix(spec, text))


CAT = "z^2+z+1,z^2,z,1 ; 1,z,z^2,z^2+z+1"  # self-orthogonal but catastrophic
NBU = "0,z^2+z+1,z,z^2+1 ; 1,1,1,1"  # self-dual with d_free 4


def test_generator_must_have_full_row_rank():
    with pytest.raises(RankDeficient):
        code(F2, "1,1 ; 1,1")
    with pytest.raises(RankDeficient):
        code(F2, "1 ; z")  # more rows than columns


def test_code_degree_examples():
    assert code(F2, "1,1,1,1 ; 0,1,z+1,z").code_degree() == 1
    assert code(F2, "1,0 ; 0,1").code_degree() == 0
    assert code(F2, "1,z^3").code_degree() == 3


def test_code_degree_invariant_under_unimodular_factors():
    rng = random.Random(31)
    c = code(F2, NBU)
    for _ in range(6):
        u = rand_unimodular(rng, F2, 2)
        assert ConvolutionalCode(u @ c.generator).code_degree() == c.code_degree()


def test_code_degree_matches_maximal_minors_oracle():
    # random full-rank generators, and the same ones times a random
    # unimodular factor; a generator whose row degrees sum above its
    # largest minor degree has a singular leading-coefficient matrix
    rng = random.Random(47)
    singular = 0
    for spec in (F2, make_field(3), F4, F5, make_field(3, 2), make_field(2, 4)):
        for k in (1, 2, 3):
            for _ in range(6):
                g = rand_full_rank(rng, spec, k, rng.randint(k, 2 * k), max_deg=2)
                for gen in (g, rand_unimodular(rng, spec, k, ops=4) @ g):
                    oracle = max(m.degree() for m in maximal_minors(gen))
                    assert ConvolutionalCode(gen).code_degree() == oracle
                    singular += sum(max(e.degree() for e in row) for row in gen.entries) > oracle
    assert singular >= 20


def test_dual_examples():
    c = code(F2, "1,1")
    assert c.dual() == c
    assert code(F2, "1,0,0 ; 0,1,0").dual() == code(F2, "0,0,1")
    ones = parse_vector(F2, "1,1,1,1")
    assert code(F2, CAT).dual().contains(ones)


def test_self_duality_trio_paper_examples():
    c5 = code(F5, "3,z,1,3*z ; 1,2*z+4,2,z+2")
    assert c5.is_self_orthogonal() and c5.is_noncatastrophic() and c5.is_self_dual()
    cc = code(F2, CAT)
    assert cc.is_self_orthogonal()
    assert not cc.is_noncatastrophic()
    assert not cc.is_self_dual()


def test_column_operations_can_break_self_orthogonality():
    # adding column 2 into column 1 of the F5 example
    g1 = parse_matrix(F5, "3+z,z,1,3*z ; 2*z,2*z+4,2,z+2")
    top = g1.entries[0]
    self_product = sum((e * e for e in top), Poly.zero(F5))
    assert self_product == Poly.z(F5) ** 2 + Poly.z(F5)
    assert not ConvolutionalCode(g1).is_self_orthogonal()
    # scaling column 1 by 2
    g2 = parse_matrix(F5, "1,z,1,3*z ; 2,2*z+4,2,z+2")
    top2 = g2.entries[0]
    self_product2 = sum((e * e for e in top2), Poly.zero(F5))
    assert self_product2 == Poly(F5, (2,))
    assert not ConvolutionalCode(g2).is_self_orthogonal()


def test_self_dual_requires_even_length():
    assert not code(F2, "1,1,1").is_self_dual()


def test_contains_examples():
    ones = parse_vector(F2, "1,1,1,1")
    assert code(F2, NBU).contains(ones)
    assert not code(F2, CAT).contains(ones)
    assert code(F2, CAT).contains(parse_vector(F2, "0,0,0,0"))
    with pytest.raises(DimensionMismatch):
        code(F2, NBU).contains(parse_vector(F2, "1,1"))


def test_canonical_generator_examples():
    # the unique row Hermite form fully reduces above pivots, so both
    # generators of this code map to the same representative
    assert code(F2, "0,0,1,1 ; 1,1,1,1").canonical_generator() == parse_matrix(
        F2, "1,1,0,0 ; 0,0,1,1"
    )
    assert code(F2, "1,1,1,1 ; 1,1,0,0").canonical_generator() == parse_matrix(
        F2, "1,1,0,0 ; 0,0,1,1"
    )
    canon = code(F2, "1,1,0,0 ; 0,0,1,1").canonical_generator()
    assert ConvolutionalCode(canon).canonical_generator() == canon  # idempotent


def test_code_equality_is_canonical_equality():
    rng = random.Random(37)
    c = code(F2, NBU)
    for _ in range(5):
        u = rand_unimodular(rng, F2, 2)
        other = ConvolutionalCode(u @ c.generator)
        assert other == c and hash(other) == hash(c) and len({c, other}) == 1
    assert code(F2, "1,1,0,0 ; 0,0,1,1") != c
    # the same canonical form over different fields is a different code
    assert code(F2, "1,1") != code(F4, "1,1")
    assert code(F2, "1,1") != code(F5, "1,1")
    # a k = 0 code has a left-prime (empty) generator
    for n in (0, 2, 4):
        empty = ConvolutionalCode(PolyMatrix(F2, [], cols=n))
        assert empty.is_noncatastrophic()
        assert empty == ConvolutionalCode(PolyMatrix(F2, [], cols=n))
    assert ConvolutionalCode(PolyMatrix(F2, [], cols=2)) != ConvolutionalCode(PolyMatrix(F2, [], cols=4))


def test_canonical_form_is_built_on_first_use(monkeypatch):
    # a code keeps its Hermite form as a code grid: membership and the
    # self-duality test read that grid, and only the dedup key builds Poly
    canon = parse_matrix(F2, "1,1,1,1 ; 0,z^2+z+1,z,z^2+1")

    def refuse(*args):
        raise AssertionError("the canonical form was built as a PolyMatrix")

    monkeypatch.setattr("sdconv.codes._matrix", refuse)
    c = code(F2, NBU)
    assert c.is_self_dual() and c.contains(parse_vector(F2, "1,1,1,1"))
    assert not c.contains(parse_vector(F2, "1,1,0,0"))
    monkeypatch.undo()
    assert c.canonical_generator() == canon
    assert c.canonical_generator() is c.canonical_generator()


def test_free_distance_trivial_code():
    rep = code(F2, "1,1").free_distance(2)
    assert rep.value == 2
    assert rep.status == STATUS_EXACT
    assert rep.render() == "d_free = 2 (stable at bound 2)"


def test_free_distance_nbu_code_oracle():
    # independent enumeration: scan all messages with components of degree
    # at most 6 and take the minimum weight directly
    rows = parse_matrix(F2, NBU).entries
    best = None
    polys = list(iter_bounded_polys(F2, 6))
    for m1, m2 in itertools.product(polys, polys):
        if not m1 and not m2:
            continue
        w = 0
        for j in range(4):
            w += (m1 * rows[0][j] + m2 * rows[1][j]).weight()
        best = w if best is None else min(best, w)
    assert best == 4
    rep = code(F2, NBU).free_distance(6)
    assert rep.value == 4
    assert rep.status == STATUS_EXACT


def test_free_distance_upper_bound_status_at_zero():
    rep = code(F2, NBU).free_distance(0)
    assert rep.status == STATUS_UPPER
    assert rep.render().startswith("d_free <=")


def test_free_distance_matches_message_scan_oracle():
    rng = random.Random(4087)
    statuses = set()
    for spec in (F2, F4, F5, make_field(3, 2), make_field(13), make_field(2, 4)):
        for k in (1, 2, 3):
            for bound in range(3):
                if spec.q ** (k * (bound + 1)) > 4096:
                    continue
                for _ in range(2):
                    c = ConvolutionalCode(rand_full_rank(rng, spec, k, rng.randint(k, 2 * k)))
                    rep = c.free_distance(bound)
                    assert rep.value == bounded_free_distance(c, bound), c
                    statuses.add(rep.status)
                    if rep.status == STATUS_EXACT:
                        # a proven d_free: longer messages are no lighter,
                        # and it is within the generalized Singleton bound
                        assert bounded_free_distance(c, bound + 1) == rep.value, c
                        assert rep.value <= generalized_singleton_bound(c.n, c.k, c.code_degree()), c
    assert statuses == {STATUS_EXACT, STATUS_UPPER}


def test_free_distance_does_no_element_arithmetic(monkeypatch):
    # the trellis runs on int codes: FieldElement operators are never called
    c = code(make_field(3, 2), "a*z+1,z,1,a ; 1,a*z,z+2,2")
    expected = c.free_distance(2)
    assert expected == DistanceReport(value=4, search_bound=2, status=STATUS_UPPER)

    def refuse(*args):
        raise AssertionError("FieldElement arithmetic in free_distance")

    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
                 "__rmul__", "__truediv__", "__pow__", "inverse", "__eq__", "__hash__"):
        monkeypatch.setattr(FieldElement, name, refuse)
    assert c.free_distance(2) == expected


@pytest.mark.parametrize(
    "generator, bound, lighter",
    [
        # non-catastrophic, d_free 3: the message (1, z^2) is longer than bound 1
        ("z^2+1,z^2,z^2+z ; 1,z+1,1", 1, "1,z^3,z"),
        # catastrophic: a degree-12 message encodes to (0, 0, z^15+1)
        ("z^3+1,z^3+z^2+z,z^3+z ; z^3+z,z^3+z^2,z+1", 10, "0,0,z^15+1"),
    ],
)
def test_free_distance_claims_no_unproven_exact_value(generator, bound, lighter):
    c = code(F2, generator)
    assert c.contains(parse_vector(F2, lighter))
    assert c.free_distance(bound).render() == f"d_free <= 4 (bound {bound})"


def test_free_distance_search_cap():
    # k = 2 over GF(2) at bound 11 asks for 2^(2*12) = 2^24 messages
    assert 2 ** 24 > MAX_CANDIDATES
    with pytest.raises(SearchSpaceTooLarge):
        code(F2, NBU).free_distance(11)


def test_iter_bounded_polys_typed_errors_and_cap():
    # a negative degree is refused, and a search above the cap is refused
    # before anything is built
    for max_deg in (-2, -1):
        with pytest.raises(OutOfRange):
            iter_bounded_polys(F2, max_deg)
    with pytest.raises(SearchSpaceTooLarge):
        iter_bounded_polys(F2, 40)
    polys = iter_bounded_polys(F2, 3)
    assert len(polys) == 16
    assert polys == [Poly(F2, c) for c in itertools.product(F2.elements(), repeat=4)]


def test_even_weight_of_binary_self_dual_codewords():
    rng = random.Random(41)
    for c in self_dual_corpus(rng, size=6):
        if c.spec.q != 2:
            continue
        polys = list(iter_bounded_polys(c.spec, 2))
        for msg in itertools.islice(itertools.product(polys, repeat=c.k), 200):
            w = sum(p.weight() for p in c.encode(msg))
            assert w % 2 == 0


def test_all_ones_in_every_binary_self_dual_code():
    rng = random.Random(43)
    for c in self_dual_corpus(rng, size=10):
        if c.spec.q != 2:
            continue
        assert c.contains([1] * c.n)


def test_theorem_equivalences_on_random_corpus():
    rng = random.Random(47)
    codes = []
    for spec, k in ((F2, 1), (F2, 2), (F4, 1), (F5, 1), (F5, 2)):
        for _ in range(6):
            codes.append(ConvolutionalCode(rand_full_rank(rng, spec, k, 2 * k)))
    codes.extend(self_dual_corpus(rng, size=10))
    # completions of every (4,2) code of degree <= 1 under three pairings
    z = Poly.z(F2)
    for rec in classify42(1):
        base = ConvolutionalCode(rec.canonical_generator)
        for a_vec in (default_a_vec(base), (z, 1), (1, z + 1)):
            codes.append(ConvolutionalCode(find_completion(hm_extend(base, a_vec)).generator))
    # one output of each of the other three constructions
    nbu = code(F2, NBU)
    codes.append(direct_sum(nbu, code(F2, "1,1")))
    codes.append(building_up(nbu, parse_vector(F2, "1,z,z^2,z^2+z")))
    swap = parse_matrix(F5, "0,1,0,0 ; 1,0,0,0 ; 0,0,1,0 ; 0,0,0,1")
    c5 = code(F5, "3,z,1,3*z ; 1,2*z+4,2,z+2")
    codes.append(orthogonal_chain(c5, [(PolyMatrix.identity(F5, 4), 1, swap)]))
    for c in codes:
        sd = c.is_self_dual()
        assert sd == (c.is_self_orthogonal() and c.is_noncatastrophic())
        # parity-check characterization: the span equals the kernel
        assert sd == (c.dual() == c)


def test_biduality():
    rng = random.Random(53)
    for _ in range(10):
        c = ConvolutionalCode(rand_full_rank(rng, F2, 2, 4))
        if not c.is_noncatastrophic():
            continue
        assert c.dual().dual() == c
    cat = code(F2, CAT)
    double_dual = cat.dual().dual()
    ones = parse_vector(F2, "1,1,1,1")
    assert double_dual.contains(ones) and not cat.contains(ones)
    for row in cat.generator.entries:
        assert double_dual.contains(row)  # strict containment


def test_predicates_invariant_under_unimodular_factors():
    rng = random.Random(59)
    for base in (code(F5, "3,z,1,3*z ; 1,2*z+4,2,z+2"), code(F2, CAT)):
        for _ in range(4):
            u = rand_unimodular(rng, base.spec, base.k)
            c = ConvolutionalCode(u @ base.generator)
            assert c.is_self_orthogonal() == base.is_self_orthogonal()
            assert c.is_noncatastrophic() == base.is_noncatastrophic()
            assert c.is_self_dual() == base.is_self_dual()


def test_free_distance_invariant_under_unimodular_factors():
    rng = random.Random(61)
    base = code(F2, NBU)
    ref = base.free_distance(4).value
    for _ in range(3):
        u = rand_unimodular(rng, F2, 2)
        assert ConvolutionalCode(u @ base.generator).free_distance(4).value == ref


def test_empty_code_direct_sum_identity():
    empty = ConvolutionalCode(PolyMatrix(F2, [], cols=0))
    assert empty.k == 0 and empty.n == 0
    assert empty.is_self_dual()


def test_the_empty_code_of_length_two():
    empty = ConvolutionalCode(PolyMatrix(F2, [], cols=2))
    assert empty.is_self_orthogonal()
    assert not empty.is_self_dual()
    assert empty.encode([]) == (Poly.zero(F2), Poly.zero(F2))
