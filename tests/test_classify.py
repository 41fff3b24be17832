import collections
import itertools
import random

import pytest

from helpers import (
    F2,
    F4,
    F5,
    classify42,
    generalized_singleton_bound,
    is_left_prime,
    oracle_reduce_double_triangular,
    rand_poly,
    scan_21_generators,
)
from sdconv import (
    ConvolutionalCode,
    Poly,
    PolyMatrix,
    classify_42_binary,
    classify_double_diagonal,
    find_completion,
    format_catalog,
    hm_extend,
    make_field,
    parse_field_selector,
    parse_matrix,
    reduce_double_triangular,
    sqrt_of_minus_one,
)
from sdconv.codes import STATUS_EXACT
from sdconv.errors import NotBinary, NotSelfDual, NotTriangularPattern

EXISTENCE = {2: True, 3: False, 4: True, 5: True, 7: False, 8: True, 9: True,
              11: False, 13: True, 16: True, 25: True}

FIELDS = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 7: (7, 1), 8: (2, 3),
          9: (3, 2), 11: (11, 1), 13: (13, 1), 16: (2, 4), 25: (5, 2)}


def field(q):
    return make_field(*FIELDS[q])


# The order q of every field with q <= 64.
SMALL_FIELDS = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32, 37, 41, 43, 47, 49,
                53, 59, 61, 64]


# -- (2,1) codes: the k = 1 case of the double diagonal family ----------------

def two_one(spec):
    return classify_double_diagonal(spec, 1) or []


def test_classify_21_binary_unique():
    records = two_one(F2)
    assert len(records) == 1
    assert records[0].canonical_generator == parse_matrix(F2, "1,1")


def test_classify_21_f3_empty():
    assert classify_double_diagonal(field(3), 1) is None


def test_classify_21_f5():
    records = two_one(F5)
    gens = [r.canonical_generator for r in records]
    assert gens == [parse_matrix(F5, "1,2"), parse_matrix(F5, "1,3")]
    assert all(r.dfree.value == 2 for r in records)


@pytest.mark.parametrize("q", sorted(EXISTENCE))
def test_classify_21_matches_existence_table(q):
    spec = field(q)
    records = two_one(spec)
    assert bool(records) == EXISTENCE[q]
    assert bool(records) == (sqrt_of_minus_one(spec) is not None)


@pytest.mark.parametrize("spec,max_deg", [(F2, 2), (F5, 2), (F4, 1), (field(3), 2)])
def test_no_nonconstant_21_generator_survives(spec, max_deg):
    # exhaustive sweep: every surviving generator is constant and matches
    # the classification after scaling the first entry to 1
    found = scan_21_generators(spec, max_deg)
    classified = {r.canonical_generator for r in two_one(spec)}
    for gen in found:
        assert all(e.degree() <= 0 for row in gen.entries for e in row)
        assert ConvolutionalCode(gen).canonical_generator() in classified
    # every classified code also appears in the sweep
    assert {ConvolutionalCode(g).canonical_generator() for g in found} == classified


@pytest.mark.parametrize("q", SMALL_FIELDS)
def test_double_diagonal_k1_matches_the_21_scan(q):
    # the records are the distinct codes of the constant sweep, listed as
    # (1, b) in the field's element order of b, each of degree 0 with a
    # proven d_free of 2
    spec = parse_field_selector(str(q))
    expected = {ConvolutionalCode(g).canonical_generator() for g in scan_21_generators(spec, 0)}
    records = two_one(spec)
    gens = [r.canonical_generator for r in records]
    assert len(gens) == len(expected) and set(gens) == expected
    assert sorted(gens, key=lambda g: g.entries[0][1].codes) == gens
    assert all((r.n, r.k, r.q, r.degree, r.dfree.value, r.dfree.status) == (2, 1, q, 0, 2, STATUS_EXACT)
               for r in records)


# -- binary (4,2) codes ----------------------------------------------------------

def brute_force_coprime_pairs(max_deg):
    """Oracle: coprimality by divisor enumeration, using multiplication only."""
    from sdconv import iter_bounded_polys

    universe = list(iter_bounded_polys(F2, max_deg))
    divisors = [d for d in universe if d.degree() >= 1]

    def divides(d, u):
        if not u:
            return True
        if d.degree() > u.degree():
            return False
        quotients = iter_bounded_polys(F2, int(u.degree() - d.degree()))
        return any(d * e == u for e in quotients)

    pairs = []
    for g1, g2 in itertools.product(universe, universe):
        if not g1 and not g2:
            continue
        if not any(divides(d, g1) and divides(d, g2) for d in divisors):
            pairs.append((g1, g2))
    return pairs


@pytest.mark.parametrize("max_deg,count", [(0, 3), (1, 9)])
def test_classify_42_counts_against_oracle(max_deg, count):
    assert len(brute_force_coprime_pairs(max_deg)) == count
    records = classify42(max_deg)
    assert len(records) == count


def test_classify_42_records_are_self_dual_and_contain_all_ones():
    records = classify42(2)
    assert len(records) == 33
    for rec in records:
        code = ConvolutionalCode(rec.canonical_generator)
        assert code.is_self_dual()
        assert code.contains([1, 1, 1, 1])
        assert rec.dfree.value % 2 == 0


def test_classify_42_monotone_injective_and_matching_partitions():
    sets = []
    for d in range(5):
        records = classify42(d)
        keys = {r.canonical_generator for r in records}
        # one record per coprime pair, and no dedup: distinct pairs give
        # distinct canonical generators
        assert len(keys) == len(records) == len(brute_force_coprime_pairs(d))
        sets.append(keys)
    assert sets[0] < sets[1] < sets[2] < sets[3] < sets[4]  # strictly increasing chains


def test_catalog_free_distances_respect_the_generalized_singleton_bound():
    # a proven d_free above (n-k)(floor(delta/k)+1)+delta+1 is a search bug:
    # four-two up to degree 3, two-one and double-diagonal over five fields
    records = [r for d in range(4) for r in classify42(d)]
    for q in (2, 3, 5, 9, 13):
        records += two_one(field(q))
        for k in (1, 2, 3) if q < 13 else (1, 2):
            records += classify_double_diagonal(field(q), k) or []
    exact = [r for r in records if r.dfree.status == STATUS_EXACT]
    assert len(exact) == len(records) == 218
    for r in exact:
        assert r.dfree.value <= generalized_singleton_bound(r.n, r.k, r.degree), r.render()


def test_classify_42_degree_four_catalog_structure():
    # 3 codes at delta = 0 with d_free 2, then 6*4^(delta-1) codes at each
    # delta >= 1 with d_free 4; every d_free proven at the record's bound
    records = classify42(4)
    assert len(records) == 513
    assert all(r.dfree.status == STATUS_EXACT for r in records)
    by_degree = collections.Counter((r.degree, r.dfree.value) for r in records)
    assert by_degree == {(0, 2): 3, **{(d, 4): 6 * 4 ** (d - 1) for d in range(1, 5)}}


def test_classify_42_orbits_under_column_permutations():
    # through degree 5 the catalog is closed under the 24 column
    # permutations, every orbit has 3 codes at delta = 0 and 6 at delta >= 1,
    # and the classes by delta are 1, 1, 4, 16, 64, 256
    degree = {r.canonical_generator: r.degree for r in classify42(5)}
    orbits = {}
    for gen in degree:
        if gen not in orbits:
            orbit = {
                ConvolutionalCode(PolyMatrix(F2, [[row[j] for j in perm] for row in gen.entries]))
                .canonical_generator()
                for perm in itertools.permutations(range(4))
            }
            assert orbit <= degree.keys()
            orbits.update(dict.fromkeys(orbit, frozenset(orbit)))
    classes = collections.Counter()
    for orbit in set(orbits.values()):
        (delta,) = {degree[g] for g in orbit}
        assert len(orbit) == (3 if delta == 0 else 6)
        classes[delta] += 1
    assert [classes[d] for d in range(6)] == [1, 1, 4, 16, 64, 256]
    assert len(orbits) == len(degree) == 2049


def test_every_42_record_is_a_completion_of_the_length_two_code():
    from sdconv import solve_left, vstack

    base = ConvolutionalCode(parse_matrix(F2, "1,1"))
    gt = hm_extend(base, [Poly.one(F2)])
    e_vec = (Poly.one(F2), Poly.one(F2), Poly.zero(F2), Poly.zero(F2))
    span_with_e = vstack(gt, PolyMatrix(F2, [e_vec]))
    for rec in classify42(1):
        code = ConvolutionalCode(rec.canonical_generator)
        # the canonical form is echelon with a unit pivot in column one,
        # so its second row is a representative row with leading zero
        f = rec.canonical_generator.entries[1]
        assert not f[0]
        stacked = ConvolutionalCode(vstack(PolyMatrix(F2, [f]), gt))
        assert stacked.is_self_dual()
        assert stacked == code
        if solve_left(span_with_e, f) is None:
            result = find_completion(gt, witness=f)
            assert result.kind == "non-trivial"
            assert ConvolutionalCode(result.generator) == code


# -- double diagonal -------------------------------------------------------------

def test_double_diagonal_f2_unique():
    records = classify_double_diagonal(F2, 3)
    assert records is not None and len(records) == 1
    gen = records[0].canonical_generator
    expected = parse_matrix(F2, "1,0,0,1,0,0 ; 0,1,0,0,1,0 ; 0,0,1,0,0,1")
    assert gen == expected
    assert is_left_prime(gen)
    code = ConvolutionalCode(gen)
    assert code.is_self_dual()


def test_double_diagonal_absent_over_f7():
    assert classify_double_diagonal(field(7), 2) is None


def test_double_diagonal_counts_roots_to_the_k():
    for q, k in itertools.product([5, 9, 13], [1, 2]):
        recs = classify_double_diagonal(field(q), k)
        assert recs is not None and len(recs) == 2**k  # two roots of -1, k rows
        assert len({r.canonical_generator for r in recs}) == len(recs)  # distinct with no dedup
        for r in recs:
            assert ConvolutionalCode(r.canonical_generator).is_self_dual()


# -- double triangular reduction --------------------------------------------------

def test_reduce_double_triangular_identity_case():
    gen = parse_matrix(F2, "1,0,1,0 ; 0,1,0,1")
    assert reduce_double_triangular(gen) == gen == oracle_reduce_double_triangular(gen)


def test_reduce_double_triangular_example():
    gen = parse_matrix(F2, "1,z,1,z ; 0,1,0,1")
    assert ConvolutionalCode(gen).is_self_dual()
    eye_pair = parse_matrix(F2, "1,0,1,0 ; 0,1,0,1")
    assert reduce_double_triangular(gen) == eye_pair == oracle_reduce_double_triangular(gen)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_reduce_double_triangular_randomized(k):
    rng = random.Random(79)
    eye_pair = PolyMatrix(
        F2,
        [[1 if j == i or j == k + i else 0 for j in range(2 * k)] for i in range(k)],
    )
    for _ in range(6):
        rows = [list(r) for r in PolyMatrix.identity(F2, k).entries]
        for i in range(k):
            for j in range(i + 1, k):
                rows[i][j] = rand_poly(rng, F2, 2)
        mixer = PolyMatrix(F2, rows, cols=k)
        gen = mixer @ eye_pair
        # the paper's reduction reaches [I I] with its per-step asserts
        assert oracle_reduce_double_triangular(gen) == eye_pair
        assert reduce_double_triangular(gen) == eye_pair


def test_reduce_double_triangular_errors():
    with pytest.raises(NotTriangularPattern):
        reduce_double_triangular(parse_matrix(F2, "1,0,1,0 ; 1,1,0,1"))
    with pytest.raises(NotSelfDual):
        reduce_double_triangular(parse_matrix(F2, "1,0,1,1 ; 0,1,0,1"))
    with pytest.raises(NotBinary):
        reduce_double_triangular(parse_matrix(F5, "1,0,1,0 ; 0,1,0,1"))


# -- catalog rendering ------------------------------------------------------------

def test_catalog_lines_are_stable():
    records = list(classify42(0))
    catalog = format_catalog(records)
    assert catalog.splitlines() == [
        "q=2 n=4 k=2 delta=0 dfree=2 gen=1,0,1,0 ; 0,1,0,1",
        "q=2 n=4 k=2 delta=0 dfree=2 gen=1,0,0,1 ; 0,1,1,0",
        "q=2 n=4 k=2 delta=0 dfree=2 gen=1,1,0,0 ; 0,0,1,1",
    ]
    assert format_catalog(list(classify42(0))) == catalog
