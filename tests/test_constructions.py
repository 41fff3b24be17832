import hashlib
import itertools
import json
import random
from functools import lru_cache
from pathlib import Path

import pytest

import sdconv
from helpers import (
    F2,
    F4,
    F5,
    bezout_witness,
    classify42,
    load_bench,
    oracle_find_completion,
    oracle_is_noncatastrophic,
    oracle_is_self_orthogonal,
    rand_unimodular,
    run_capped,
    self_dual_corpus,
)
from sdconv import (
    ConvolutionalCode,
    Poly,
    PolyMatrix,
    building_up,
    classify_42_binary,
    col_hermite,
    default_a_vec,
    dot,
    find_completion,
    format_matrix,
    format_vector,
    gcd,
    hm_extend,
    is_trivial_completion,
    iter_bounded_polys,
    parse_matrix,
    parse_vector,
    rank,
    right_kernel_basis,
    solve_left,
    vec_content,
    vstack,
)
from sdconv import constructions, matrices
from sdconv.constructions import (
    NON_TRIVIAL,
    TRIVIAL_ONLY,
    direct_sum,
    orthogonal_chain,
)
from sdconv.errors import (
    BadScalars,
    BadVector,
    FieldMismatch,
    FieldObstruction,
    MalformedInput,
    NotBinary,
    NotOrthogonalScaled,
    NotPermutation,
    NotSelfDual,
    NotUnit,
    SdconvError,
    ShapeUnsupported,
)


def code(spec, text):
    return ConvolutionalCode(parse_matrix(spec, text))


ONE_ONE = "1,1"
FIVE_TWO = "1,1,1,1 ; 0,1,z+1,z"  # self-dual (4,2) with degree 1
NBU = "0,z^2+z+1,z,z^2+1 ; 1,1,1,1"


# -- direct sum --------------------------------------------------------------

def test_direct_sum_examples():
    c = code(F2, ONE_ONE)
    s = direct_sum(c, c)
    assert s.generator == parse_matrix(F2, "1,1,0,0 ; 0,0,1,1")
    assert s.is_self_dual()
    s2 = direct_sum(code(F2, FIVE_TWO), c)
    assert (s2.n, s2.k) == (6, 3)
    assert s2.is_self_dual()


def test_direct_sum_degree_adds():
    c1 = code(F2, FIVE_TWO)
    c2 = code(F2, NBU)
    assert direct_sum(c1, c2).code_degree() == c1.code_degree() + c2.code_degree()


def test_direct_sum_empty_identity():
    empty = ConvolutionalCode(PolyMatrix(F2, [], cols=0))
    c = code(F2, FIVE_TWO)
    assert direct_sum(empty, c) is c
    assert direct_sum(c, empty) is c


def test_direct_sum_rejects_non_self_dual():
    with pytest.raises(NotSelfDual):
        direct_sum(code(F2, "1,0"), code(F2, ONE_ONE))


# -- orthogonal chains --------------------------------------------------------

def test_orthogonal_chain_empty_steps():
    c = code(F2, FIVE_TWO)
    assert orthogonal_chain(c, []) == c


def test_orthogonal_chain_permutation_step():
    c = code(F2, FIVE_TWO)
    perm = parse_matrix(F2, "0,1,0,0 ; 1,0,0,0 ; 0,0,1,0 ; 0,0,0,1")
    out = orthogonal_chain(c, [(PolyMatrix.identity(F2, 4), 1, perm)])
    assert out.is_self_dual()
    assert out.generator == c.generator @ perm


def test_orthogonal_chain_block_swap_over_f5():
    c = code(F5, "3,z,1,3*z ; 1,2*z+4,2,z+2")
    m = parse_matrix(F5, "0,1,0,0 ; 1,0,0,0 ; 0,0,0,1 ; 0,0,1,0")
    assert (m @ m.transpose()) == PolyMatrix.identity(F5, 4)
    out = orthogonal_chain(c, [(m, 1, PolyMatrix.identity(F5, 4))])
    assert out.is_self_dual()


def test_orthogonal_chain_scaled_transform():
    c = code(F5, "3,z,1,3*z ; 1,2*z+4,2,z+2")
    two = PolyMatrix(F5, [[2 if i == j else 0 for j in range(4)] for i in range(4)])
    out = orthogonal_chain(c, [(two, 4, PolyMatrix.identity(F5, 4))])
    assert out.is_self_dual()


def test_orthogonal_chain_errors():
    c = code(F2, FIVE_TWO)
    eye = PolyMatrix.identity(F2, 4)
    with pytest.raises(NotUnit):
        orthogonal_chain(c, [(eye, Poly.z(F2), eye)])
    with pytest.raises(NotUnit):
        orthogonal_chain(c, [(eye, 0, eye)])
    bad_m = parse_matrix(F2, "1,1,0,0 ; 0,1,0,0 ; 0,0,1,0 ; 0,0,0,1")
    with pytest.raises(NotOrthogonalScaled):
        orthogonal_chain(c, [(bad_m, 1, eye)])
    not_perm = parse_matrix(F2, "1,1,0,0 ; 1,0,0,0 ; 0,0,1,0 ; 0,0,0,1")
    with pytest.raises(NotPermutation):
        orthogonal_chain(c, [(eye, 1, not_perm)])
    # each step is a triple (M, lambda, P) whose M and P are matrices
    for steps in ([(eye, 1)], [(3, 1, eye)], [(eye, 1, "P")], [eye]):
        with pytest.raises(MalformedInput):
            orthogonal_chain(c, steps)


# -- building-up --------------------------------------------------------------

def test_building_up_worked_example():
    out = building_up(code(F2, FIVE_TWO), parse_vector(F2, "1,z,z^2,z^2+z"), 1, 1)
    assert format_matrix(out.generator) == "1,0,1,z,z^2,z^2+z ; 1,1,1,1,1,1 ; z,z,0,1,z+1,z"
    assert out.is_self_dual()
    # y values are the products of f with the base rows
    f = parse_vector(F2, "1,z,z^2,z^2+z")
    base = parse_matrix(F2, FIVE_TWO)
    assert dot(f, base.entries[0]) == Poly.one(F2)
    assert dot(f, base.entries[1]) == Poly.z(F2)


def test_building_up_defaults_to_sqrt_of_minus_one():
    out = building_up(code(F2, FIVE_TWO), parse_vector(F2, "1,z,z^2,z^2+z"))
    assert format_matrix(out.generator) == "1,0,1,z,z^2,z^2+z ; 1,1,1,1,1,1 ; z,z,0,1,z+1,z"


def test_building_up_over_f5():
    c = code(F5, "3,z,1,3*z ; 1,2*z+4,2,z+2")
    target = Poly(F5, (4,))  # -(a^{-1})^2 for a = 1
    found = None
    for f in itertools.product(iter_bounded_polys(F5, 0), repeat=4):
        if dot(f, f) == target:
            found = f
            break
    assert found is not None
    out = building_up(c, found, F5.from_int(1), F5.from_int(2))
    assert (out.n, out.k) == (6, 3)
    assert out.is_self_dual()


def test_building_up_bad_scalars():
    F3 = __import__("sdconv").make_field(3)
    g = PolyMatrix(F3, [[1, 1]])  # not self-dual over F3 but scalars fail first?
    # scalars are validated against the field before the vector, so use a
    # self-dual base over F5 and wrong scalars there
    c = code(F5, "3,z,1,3*z ; 1,2*z+4,2,z+2")
    with pytest.raises(BadScalars):
        building_up(c, parse_vector(F5, "1,0,0,0"), F5.from_int(1), F5.from_int(1))
    with pytest.raises(BadScalars):
        building_up(c, parse_vector(F5, "1,0,0,0"), F5.from_int(0), F5.from_int(0))
    with pytest.raises(BadScalars):
        building_up(c, parse_vector(F5, "1,0,0,0"), F5.from_int(1), None)
    # scalars enter F_q by its one lift: another field is FieldMismatch, and
    # a value that is no field value is named as the caller gave it
    F13 = sdconv.make_field(13)
    one_two = code(F5, "1,2")
    with pytest.raises(FieldMismatch, match="GF.5. and GF.13."):
        building_up(one_two, [1, 0], F13.one, F13.from_int(5))
    with pytest.raises(FieldMismatch):
        building_up(one_two, [1, 0], 1, F13.from_int(5))
    with pytest.raises(BadScalars, match=r"got 1\.0 and 'x'$"):
        building_up(one_two, [1, 0], 1.0, "x")
    with pytest.raises(BadScalars, match=r"got 1 and 2\.0$"):
        building_up(one_two, [1, 0], 1, 2.0)


def test_building_up_field_obstruction():
    import sdconv

    F7 = sdconv.make_field(7)
    assert sdconv.sqrt_of_minus_one(F7) is None
    # a self-dual (4,2) code exists over GF(7) even though no (2,1) does:
    # [I | M] with M M^T = -I, e.g. M = [[3,2],[2,4]]
    c7 = code(F7, "1,0,3,2 ; 0,1,2,4")
    assert c7.is_self_dual()
    with pytest.raises(FieldObstruction):
        building_up(c7, parse_vector(F7, "1,0,0,0"))
    # binary fields always contain a square root of -1, so the default
    # scalars never hit the obstruction there
    c = code(F2, FIVE_TWO)
    assert building_up(c, parse_vector(F2, "1,z,z^2,z^2+z")).is_self_dual()


def test_building_up_bad_vector():
    with pytest.raises(BadVector):
        building_up(code(F2, FIVE_TWO), parse_vector(F2, "1,z,z^2,0"), 1, 1)
    with pytest.raises(BadVector):
        building_up(code(F2, FIVE_TWO), parse_vector(F2, "1,z"), 1, 1)


def test_building_up_rejects_non_self_dual():
    with pytest.raises(NotSelfDual):
        building_up(code(F2, "1,0 ; 0,1"), parse_vector(F2, "1,1"), 1, 1)


# -- paired-column extension and completion -----------------------------------

def test_hm_extend_examples():
    g1 = hm_extend(code(F2, ONE_ONE), parse_vector(F2, "z"))
    assert g1 == parse_matrix(F2, "z,z,1,1")
    code42 = code(F2, NBU)
    g2 = hm_extend(code42, parse_vector(F2, "z^2+1,1"))
    assert g2 == parse_matrix(F2, "z^2+1,z^2+1,0,z^2+z+1,z,z^2+1 ; 1,1,1,1,1,1")
    zeroed = hm_extend(code42, parse_vector(F2, "0,0"))
    for i, row in enumerate(code42.generator.entries):
        assert zeroed.entries[i] == (Poly.zero(F2), Poly.zero(F2)) + row


def test_hm_extend_errors():
    with pytest.raises(NotBinary):
        hm_extend(code(F5, "3,z,1,3*z ; 1,2*z+4,2,z+2"), parse_vector(F5, "1,1"))
    with pytest.raises(NotSelfDual):
        hm_extend(code(F2, "1,0 ; 0,1"), parse_vector(F2, "1,1"))


def test_find_completion_trivial_only():
    result = find_completion(parse_matrix(F2, "z,z,1,1"))
    assert result.kind == TRIVIAL_ONLY
    assert result.kind != NON_TRIVIAL
    assert result.witness == parse_vector(F2, "1,1,0,0")
    assert ConvolutionalCode(result.generator).is_self_dual()
    assert is_trivial_completion(result.generator)


def test_find_completion_non_trivial():
    result = find_completion(parse_matrix(F2, "1,1,1,1"))
    assert result.kind == NON_TRIVIAL
    g1 = ConvolutionalCode(result.generator)
    assert g1.is_self_dual()
    assert not is_trivial_completion(result.generator)
    assert vec_content(result.witness) == Poly.one(F2)


def test_find_completion_accepts_injected_witness():
    witness = parse_vector(F2, "0,z^2+z+1,z,z^2+1")
    result = find_completion(parse_matrix(F2, "1,1,1,1"), witness=witness)
    assert result.kind == NON_TRIVIAL
    assert result.witness == witness
    assert result.generator == parse_matrix(F2, "0,z^2+z+1,z,z^2+1 ; 1,1,1,1")
    # a witness with content z is divided by it before the completion is built
    scaled = find_completion(
        parse_matrix(F2, "1,1,1,1"), witness=parse_vector(F2, "0,z^3+z^2+z,z^2,z^3+z")
    )
    assert scaled == result


def the_test_vector(gt):
    """v = (1, 0, (R a)^T) of find_completion, with R the first k columns of
    the column Hermite transform of G', the columns past the pairing."""
    k = gt.rows
    w = col_hermite(PolyMatrix(F2, [row[2:] for row in gt.entries])).transform
    return (Poly.one(F2), Poly.zero(F2)) + tuple(dot(row[:k], gt.column(0)) for row in w.entries)


@lru_cache(maxsize=None)
def completion_sweep():
    """The 129 codes of the degree <= 3 catalog, each extended by the 16
    pairings of degree <= 1: 2,064 pairs (gt, find_completion(gt))."""
    ops = []
    for record in classify42(3):
        base = ConvolutionalCode(record.canonical_generator)
        for a_vec in itertools.product(iter_bounded_polys(F2, 1), repeat=2):
            gt = hm_extend(base, a_vec)
            ops.append((gt, find_completion(gt)))
    return ops


def test_exact_completion_witness_completes_every_member_case():
    # every op of the completion sweep, judged by the full checks: the
    # result is self-dual, of the kind all-ones membership says, trivial
    # exactly when it says so, and stacks its witness (v, by the sweep
    # test below) on gt
    all_ones = (1,) * 6
    nontrivial = 0
    for gt, result in completion_sweep():
        gen = result.generator
        assert gen == vstack(PolyMatrix(F2, [result.witness]), gt)
        assert ConvolutionalCode(gen).is_self_dual(), format_matrix(gt)
        assert (result.kind == NON_TRIVIAL) == (solve_left(gt, all_ones) is not None)
        assert is_trivial_completion(gen) != (result.kind == NON_TRIVIAL)
        nontrivial += result.kind == NON_TRIVIAL
    assert nontrivial == 516


def test_find_completion_returns_the_test_vector_on_the_pair_sum_example():
    # no single kernel row completes this extension, and a sum of two rows
    # does; the result is still the test vector v, which completes, and the
    # pair sum passes as a caller's witness
    code = ConvolutionalCode(parse_matrix(F2, "1,1,1,1 ; z^3+z^2+1,z^2+z+1,0,z^3+z"))
    gt = hm_extend(code, (Poly.one(F2), Poly.z(F2) ** 2))
    for row in right_kernel_basis(gt).entries:
        with pytest.raises(BadVector):
            find_completion(gt, witness=row)
    result = find_completion(gt)
    assert result.kind == NON_TRIVIAL
    assert result.witness == the_test_vector(gt)
    assert result.witness == parse_vector(F2, "1,0,z^5+z^4+z^3+z^2+z,0,z^4+z,z^5+z^3+z^2+1")
    assert result.generator == vstack(PolyMatrix(F2, [result.witness]), gt)
    assert ConvolutionalCode(result.generator).is_self_dual()
    assert not is_trivial_completion(result.generator)
    pair_sum = find_completion(gt, witness=parse_vector(F2, "1,0,1,z+1,z+1,0"))
    assert pair_sum.kind == NON_TRIVIAL and not is_trivial_completion(pair_sum.generator)


def test_find_completion_asks_membership_by_the_canonical_form():
    # membership needs no coefficients: b = 1 R comes from the one
    # elimination of G', so constructions has no solve_left, no kernel
    # basis to scan, and no extended-gcd chain for the pairing
    for name in ("solve_left", "right_kernel_basis", "itertools", "xgcd", "_bezout"):
        assert not hasattr(constructions, name), name
    code = ConvolutionalCode(parse_matrix(F2, "1,1,1,1 ; z^3+z^2+1,z^2+z+1,0,z^3+z"))
    gt = hm_extend(code, (Poly.one(F2), Poly.z(F2) ** 2))
    result = find_completion(gt)
    assert result.witness == the_test_vector(gt)
    assert not is_trivial_completion(result.generator)


def test_find_completion_six_column_example():
    gt = parse_matrix(F2, "z^2+1,z^2+1,0,z^2+z+1,z,z^2+1 ; 1,1,1,1,1,1")
    result = find_completion(gt)
    assert result.kind == NON_TRIVIAL
    assert ConvolutionalCode(result.generator).is_self_dual()
    injected = find_completion(gt, witness=parse_vector(F2, "0,1,0,0,0,1"))
    assert injected.kind == NON_TRIVIAL
    assert ConvolutionalCode(injected.generator).is_self_dual()


def test_find_completion_rejects_bad_witness():
    gt = parse_matrix(F2, "1,1,1,1")
    with pytest.raises(BadVector):
        find_completion(gt, witness=parse_vector(F2, "1,1,0,0"))  # in the span
    with pytest.raises(BadVector):
        find_completion(gt, witness=parse_vector(F2, "1,0,0,0"))  # not orthogonal
    with pytest.raises(BadVector):
        find_completion(parse_matrix(F2, "z,z,1,1"), witness=parse_vector(F2, "1,1,0,0"))
    with pytest.raises(BadVector):
        find_completion(gt, witness=parse_vector(F2, "0,0,0,0"))  # content 0


def test_find_completion_malformed_inputs():
    with pytest.raises(MalformedInput):
        find_completion(parse_matrix(F2, "z,1,1,1"))  # columns not paired
    with pytest.raises(MalformedInput):
        find_completion(parse_matrix(F2, "1,1,1,0"))  # not self-orthogonal
    with pytest.raises(MalformedInput):
        find_completion(parse_matrix(F2, "1,1,1"))  # wrong width
    with pytest.raises(MalformedInput):
        find_completion(parse_matrix(F5, "1,1,1,1"))  # wrong field


@pytest.mark.parametrize(
    "text, witness",
    [
        ("0,0,z,z", "1,1,0,0"),
        ("z+1,z+1,z+1,z+1", "1,1,0,0"),
        # reaches all-ones, and [f; gt] is self-dual for this witness, but
        # G' = (1,1,z,z ; 1,1,1,1) generates no self-dual code: its 2x2
        # minors share the factor z+1
        ("0,0,1,1,z,z ; 1,1,1,1,1,1", "0,z+1,z,0,1,0"),
    ],
)
def test_find_completion_rejects_a_catastrophic_extension(text, witness):
    # [e; gt] is block-diag([1 1], G') after row steps, so with G' (the
    # columns past the pairing) catastrophic no trivial completion exists;
    # both paths refuse the extension before any search
    gt = parse_matrix(F2, text)
    with pytest.raises(MalformedInput, match="catastrophic"):
        find_completion(gt)
    with pytest.raises(MalformedInput, match="catastrophic"):
        find_completion(gt, witness=parse_vector(F2, witness))


@pytest.mark.parametrize("text, witness", [("1,1,0,0", "1,1,0,0"), ("z,z,1,1,0,0 ; 1,1,z,z,0,0", "1,1,0,0,0,0")])
def test_find_completion_rejects_dependent_rows_past_the_pairing(text, witness):
    # rank [e; gt] = 1 + rank G', so a G' with dependent rows leaves the
    # internal [e; gt] rank-deficient; the error names G' instead, on both
    # paths and before any search
    gt = parse_matrix(F2, text)
    for w in (None, parse_vector(F2, witness)):
        with pytest.raises(MalformedInput, match="columns past the paired ones have linearly dependent rows"):
            find_completion(gt, witness=w)


def test_find_completion_ends_in_a_result_or_a_typed_error():
    # seeded paired self-orthogonal extensions over GF(2) with k <= 3 and
    # entry degree <= 1: a row is self-orthogonal iff its entries past the
    # pairing sum to 0, and each row is redrawn until it is orthogonal to the
    # rows before it.  Many are catastrophic or rank-deficient past the pairing,
    # and each of those two ends in its own MalformedInput.
    rng = random.Random(59)
    polys = iter_bounded_polys(F2, 1)
    zero = Poly.zero(F2)
    outcomes = set()
    for k in (1, 2, 3):
        for _ in range(60):
            rows = []
            while len(rows) < k:
                a = rng.choice(polys)
                rest = [rng.choice(polys) for _ in range(2 * k - 1)]
                row = [a, a, *rest, sum(rest, zero)]
                if not any(dot(row, other) for other in rows):
                    rows.append(row)
            gt = PolyMatrix(F2, rows)
            try:
                result = find_completion(gt)
            except SdconvError as exc:
                outcomes.add(f"{type(exc).__name__}: {exc}")
                continue
            outcomes.add(result.kind)
            gen = result.generator
            assert gen.entries[1:] == gt.entries
            assert oracle_is_self_orthogonal(gen) and oracle_is_noncatastrophic(gen)
            assert (result.kind == NON_TRIVIAL) == (solve_left(gt, (1,) * gt.cols) is not None)
            assert (result.kind == NON_TRIVIAL) != is_trivial_completion(gen)
    assert outcomes == {
        NON_TRIVIAL,
        TRIVIAL_ONLY,
        "MalformedInput: the columns past the paired ones generate a catastrophic code",
        "MalformedInput: the columns past the paired ones have linearly dependent rows",
    }


def pair_sum_extension(a2):
    # the base code of the pair-sum example; with the pairing (1, z^2) no
    # kernel row completes but a pair sum does, with (1, z) the first row
    code = ConvolutionalCode(parse_matrix(F2, "1,1,1,1 ; z^3+z^2+1,z^2+z+1,0,z^3+z"))
    return hm_extend(code, (Poly.one(F2), a2))


def test_incremental_verdict_matches_the_full_self_duality_check():
    # the coordinate test of find_completion, reached through a caller's
    # witness, against the full check: [f; gt] self-dual with e outside its
    # span, f divided by its content.  Candidates are every kernel row, pair
    # sum and seeded kernel combination of each distinct non-trivial
    # extension of the seed-1 completion workload, and of the pair-sum example
    rng = random.Random(41)
    polys = iter_bounded_polys(F2, 2)
    extensions = {pair_sum_extension(Poly.z(F2) ** 2): None}
    for code, a_vec in load_bench("workloads").Completion(sdconv, 1).ops():
        gt = hm_extend(code, a_vec)
        if solve_left(gt, (1,) * gt.cols) is not None:
            extensions.setdefault(gt)
    assert len(extensions) == 94
    verdicts = set()
    for gt in extensions:
        e_row = parse_vector(F2, ",".join(["1", "1"] + ["0"] * (gt.cols - 2)))
        rows = right_kernel_basis(gt).entries
        pairs = [tuple(x + y for x, y in zip(u, v)) for u, v in itertools.combinations(rows, 2)]
        combos = []
        for _ in range(4):
            c = [rng.choice(polys) for _ in rows]
            combos.append(tuple(dot(c, col) for col in zip(*rows)))
        for f in (*rows, *pairs, *combos):
            try:
                verdict = find_completion(gt, witness=f).witness
            except BadVector:
                verdict = None
            content = vec_content(f)
            unit = tuple(x // content for x in f) if content else f
            gen = vstack(PolyMatrix(F2, [unit]), gt)
            completes = rank(gen) == gen.rows and ConvolutionalCode(gen).is_self_dual()
            expected = unit if completes and not ConvolutionalCode(gen).contains(e_row) else None
            assert verdict == expected, (format_matrix(gt), f)
            verdicts.add((expected is None, not dot(f, e_row)))
    # accepted and refused candidates, each of both kinds of class
    assert verdicts == {(False, False), (True, False), (True, True)}


def test_the_search_runs_the_same_eliminations_for_any_candidate(monkeypatch):
    # whether the first kernel row completes or only a pair sum does, the
    # result is the test vector from the same eliminations
    calls = []
    hermite_core = matrices._hermite_core

    def counted(*args):
        calls.append(args)
        return hermite_core(*args)

    for module in ("matrices", "codes", "constructions"):
        monkeypatch.setattr(f"sdconv.{module}._hermite_core", counted)
    counts = []
    for a2, by_a_row in ((Poly.z(F2), True), (Poly.z(F2) ** 2, False)):
        gt = pair_sum_extension(a2)
        calls.clear()
        result = find_completion(gt)
        counts.append(len(calls))
        assert result.kind == NON_TRIVIAL and result.witness == the_test_vector(gt)
        row = right_kernel_basis(gt).entries[0]
        assert (_outcome(find_completion, gt, row)[0] == NON_TRIVIAL) == by_a_row
    assert counts[0] == counts[1] > 0


def _outcome(search, gt, witness=None):
    """What a completion search gives: kind, witness and generator, or the
    error type and message."""
    try:
        result = search(gt, witness)
    except SdconvError as exc:
        return type(exc).__name__, str(exc)
    return result.kind, result.witness, result.generator


def test_find_completion_matches_the_three_elimination_route():
    # seeded paired extensions over GF(2) with k <= 3 and entry degree <= 2:
    # extensions of catalog codes (G' self-dual), paired self-orthogonal
    # rows (many with G' rank-deficient or catastrophic), and rows with no
    # constraint (mostly not self-orthogonal).  Each is searched without a
    # witness, with a random vector and with a random kernel combination.
    # Kinds, errors and the results for a caller's witness match; without a
    # witness the oracle scans the kernel, so the library's test vector is
    # judged instead: the oracle's own coordinate test (against its Bezout
    # witness) accepts it, and the full checks find a non-trivial self-dual
    # completion.
    rng = random.Random(2208)
    polys = iter_bounded_polys(F2, 2)
    zero = Poly.zero(F2)
    extensions = []
    for record in classify42(2):
        base = ConvolutionalCode(record.canonical_generator)
        extensions += [hm_extend(base, [rng.choice(polys) for _ in range(2)]) for _ in range(3)]
    for k in (1, 2, 3):
        for orthogonal in (True, False):
            for _ in range(40):
                rows = []
                while len(rows) < k:
                    a = rng.choice(polys)
                    rest = [rng.choice(polys) for _ in range(2 * k - 1)]
                    row = [a, a, *rest, sum(rest, zero) if orthogonal else rng.choice(polys)]
                    if not orthogonal or not any(dot(row, other) for other in rows):
                        rows.append(row)
                extensions.append(PolyMatrix(F2, rows))
    outcomes = set()
    for gt in extensions:
        witnesses = [None, tuple(rng.choice(polys) for _ in range(gt.cols))]
        try:
            kernel = right_kernel_basis(gt).entries
            c = [rng.choice(polys) for _ in kernel]
            witnesses.append(tuple(dot(c, col) for col in zip(*kernel)))
        except SdconvError:
            pass
        for w in witnesses:
            got = _outcome(find_completion, gt, w)
            expected = _outcome(oracle_find_completion, gt, w)
            if w is None and got[0] == NON_TRIVIAL:
                assert expected[0] == NON_TRIVIAL, format_matrix(gt)
                assert _outcome(oracle_find_completion, gt, got[1]) == got, format_matrix(gt)
                assert ConvolutionalCode(got[2]).is_self_dual() and not is_trivial_completion(got[2])
            else:
                assert got == expected, (format_matrix(gt), w)
            outcomes.add(got[0] if got[0] in (NON_TRIVIAL, TRIVIAL_ONLY) else got)
    assert outcomes == {
        NON_TRIVIAL,
        TRIVIAL_ONLY,
        ("MalformedInput", "extended matrix is not self-orthogonal"),
        ("MalformedInput", "the columns past the paired ones generate a catastrophic code"),
        ("MalformedInput", "the columns past the paired ones have linearly dependent rows"),
        ("BadVector", "only trivial completions exist for this extension"),
        ("BadVector", "witness is not orthogonal to the extended matrix"),
        ("BadVector", "witness does not produce a non-trivial self-dual completion"),
    }


def test_find_completion_eliminates_once_per_question(monkeypatch):
    # one elimination of G' answers rank, left-primeness, all-ones
    # membership and the test vector, on every path
    widths = []
    hermite_core = matrices._hermite_core

    def counted(spec, grid, width):
        widths.append(width)
        return hermite_core(spec, grid, width)

    for module in ("matrices", "codes", "constructions"):
        monkeypatch.setattr(f"sdconv.{module}._hermite_core", counted)
    trivial_k2 = hm_extend(code(F2, FIVE_TWO), (Poly.zero(F2), Poly.zero(F2)))
    pair_sum = pair_sum_extension(Poly.z(F2) ** 2)
    cases = [
        (parse_matrix(F2, "z,z,1,1"), None, TRIVIAL_ONLY, [1]),
        (trivial_k2, None, TRIVIAL_ONLY, [2]),
        (pair_sum, None, NON_TRIVIAL, [2]),
        (pair_sum, parse_vector(F2, "1,0,1,z+1,z+1,0"), NON_TRIVIAL, [2]),
    ]
    for gt, witness, kind, expected in cases:
        widths.clear()
        assert find_completion(gt, witness=witness).kind == kind
        assert widths == expected


def test_find_completion_builds_no_code_and_one_test_vector(monkeypatch):
    # no path of find_completion constructs a code; the test vector is built
    # once for each extension that completes non-trivially, with or without
    # a witness, and never for a trivial-only or malformed one
    pair_sum = pair_sum_extension(Poly.z(F2) ** 2)
    trivial = parse_matrix(F2, "z,z,1,1")
    built = []
    exact_completion_witness = constructions._exact_completion_witness

    def refuse(*args):
        raise AssertionError("unexpected call")

    def counted(*args):
        built.append(args)
        return exact_completion_witness(*args)

    monkeypatch.setattr(ConvolutionalCode, "__init__", refuse)
    monkeypatch.setattr(constructions, "_exact_completion_witness", counted)
    v = find_completion(pair_sum).witness
    assert len(built) == 1
    assert find_completion(pair_sum, witness=parse_vector(F2, "1,0,1,z+1,z+1,0")).kind == NON_TRIVIAL
    assert len(built) == 2
    assert find_completion(pair_sum, witness=v).witness == v
    built.clear()
    assert find_completion(trivial).kind == TRIVIAL_ONLY
    with pytest.raises(BadVector):
        find_completion(trivial, witness=parse_vector(F2, "1,1,0,0"))
    for text in ("0,0,z,z", "1,1,0,0"):
        with pytest.raises(MalformedInput):
            find_completion(parse_matrix(F2, text))
    assert built == []


def test_the_test_vector_gives_the_gcds_of_the_bezout_witness():
    # v = (1, 0, (R a)^T), R the right inverse of G' read off its column
    # Hermite transform, lies in the kernel with v e^T = 1 and is the
    # witness find_completion returns; every kernel row and pair sum f has
    # gcd(f v^T, f e^T) = gcd(f y^T, f e^T), y the Bezout witness, over the
    # non-trivial extensions of the seed-1 completion workload and the
    # pair-sum example
    one, zero = Poly.one(F2), Poly.zero(F2)
    extensions = {pair_sum_extension(Poly.z(F2) ** 2): None}
    for base, a_vec in load_bench("workloads").Completion(sdconv, 1).ops():
        gt = hm_extend(base, a_vec)
        if solve_left(gt, (1,) * gt.cols) is not None:
            extensions.setdefault(gt)
    assert len(extensions) == 94
    for gt in extensions:
        v = the_test_vector(gt)
        e_row = (one, one) + (zero,) * (gt.cols - 2)
        assert not any(dot(v, row) for row in gt.entries) and dot(v, e_row) == one
        assert find_completion(gt).witness == v
        kernel = right_kernel_basis(gt)
        y = bezout_witness(kernel, e_row)
        rows = kernel.entries
        pairs = [tuple(a + b for a, b in zip(f, g)) for f, g in itertools.combinations(rows, 2)]
        for f in (*rows, *pairs):
            beta = dot(f, e_row)
            assert gcd(dot(f, v), beta) == gcd(dot(f, y), beta), (format_matrix(gt), f)


def test_completion_sweep_gives_the_recorded_outputs():
    # the completion sweep: one SHA-256 over each op's JSON-encoded
    # [extension, kind, witness, generator] text and a newline, in order;
    # every non-trivial witness is the test vector v
    digest = hashlib.sha256()
    nontrivial = 0
    for gt, result in completion_sweep():
        if result.kind == NON_TRIVIAL:
            assert result.witness == the_test_vector(gt), format_matrix(gt)
            nontrivial += 1
        fields = [format_matrix(gt), result.kind, format_vector(result.witness), format_matrix(result.generator)]
        digest.update(json.dumps(fields).encode() + b"\n")
    assert len(completion_sweep()) == 2064 and nontrivial == 516
    recorded = Path(__file__).with_name("data") / "completion_sweep.sha256"
    assert digest.hexdigest() == recorded.read_text(encoding="utf-8").strip()


SWEEP_DIGEST_SCRIPT = """
import hashlib, itertools, json
from sdconv import (ConvolutionalCode, classify_42_binary, find_completion, format_matrix, format_vector,
                    hm_extend, iter_bounded_polys, make_field)
F2 = make_field(2)
digest = hashlib.sha256()
for record in classify_42_binary(3):
    base = ConvolutionalCode(record.canonical_generator)
    for a_vec in itertools.product(iter_bounded_polys(F2, 1), repeat=2):
        gt = hm_extend(base, a_vec)
        result = find_completion(gt)
        fields = [format_matrix(gt), result.kind, format_vector(result.witness), format_matrix(result.generator)]
        digest.update(json.dumps(fields).encode() + b"\\n")
print(json.dumps({"asserts": __debug__, "digest": digest.hexdigest()}))
"""


def test_completion_sweep_holds_with_asserts_off():
    # python -O drops hm_extend's assert, so find_completion computes each
    # extension's Gram verdict alone; the sweep's outputs are the same
    proc, _ = run_capped(["-O", "-c", SWEEP_DIGEST_SCRIPT], seconds=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["asserts"] is False
    recorded = Path(__file__).with_name("data") / "completion_sweep.sha256"
    assert result["digest"] == recorded.read_text(encoding="utf-8").strip()


def test_completion_builds_no_poly_canonical_form(monkeypatch):
    # membership and self-duality read each code's Hermite code grid, so no
    # code of the completion path converts its canonical form to Poly
    def refuse(*args):
        raise AssertionError("a canonical form was built as a PolyMatrix")

    monkeypatch.setattr("sdconv.codes._matrix", refuse)
    pair_sum = hm_extend(
        ConvolutionalCode(parse_matrix(F2, "1,1,1,1 ; z^3+z^2+1,z^2+z+1,0,z^3+z")),
        (Poly.one(F2), Poly.z(F2) ** 2),
    )
    six = parse_matrix(F2, "z^2+1,z^2+1,0,z^2+z+1,z,z^2+1 ; 1,1,1,1,1,1")
    assert find_completion(parse_matrix(F2, "z,z,1,1")).kind == TRIVIAL_ONLY
    assert find_completion(parse_matrix(F2, "1,1,1,1")).kind == NON_TRIVIAL
    assert find_completion(pair_sum).witness == parse_vector(F2, "1,0,z^5+z^4+z^3+z^2+z,0,z^4+z,z^5+z^3+z^2+1")
    assert find_completion(six).kind == NON_TRIVIAL
    assert find_completion(six, witness=parse_vector(F2, "0,1,0,0,0,1")).kind == NON_TRIVIAL
    with pytest.raises(MalformedInput):
        find_completion(parse_matrix(F2, "0,0,z,z"))


def gram_spy(monkeypatch) -> list:
    """The code rows of every Gram verdict computed from here on: the one
    Gram loop, ``matrices._is_self_orthogonal``, is spied on in both
    modules that call it."""
    computed = []
    loop = matrices._is_self_orthogonal

    def counted(spec, rows):
        computed.append([[list(e) for e in row] for row in rows])
        return loop(spec, rows)

    monkeypatch.setattr(matrices, "_is_self_orthogonal", counted)
    monkeypatch.setattr("sdconv.codes._is_self_orthogonal", counted)
    return computed


def codes_of(matrix: PolyMatrix) -> list:
    return [[list(e.codes) for e in row] for row in matrix.entries]


def test_find_completion_gram_checks_the_extension_once(monkeypatch):
    # the pair-sum example has a non-trivial completion, and find_completion
    # returns [v; gt] without a candidate search; the proof makes [v; gt]
    # self-dual, so the one Gram verdict is of the extension gt: hm_extend's
    # assert computes it and _validate_extended reads it (under python -O,
    # where the assert does not run, _validate_extended computes it), and
    # neither the result nor a code built from it is checked again
    computed = gram_spy(monkeypatch)
    code = ConvolutionalCode(parse_matrix(F2, "1,1,1,1 ; z^3+z^2+1,z^2+z+1,0,z^3+z"))
    assert code.is_self_dual()
    computed.clear()  # the code's own verdict, read again by hm_extend
    gt = hm_extend(code, (Poly.one(F2), Poly.z(F2) ** 2))
    assert find_completion(gt).kind == NON_TRIVIAL
    assert computed == [codes_of(gt)]
    assert find_completion(gt).kind == NON_TRIVIAL
    assert computed == [codes_of(gt)]


def test_each_object_computes_its_own_gram_verdict_on_every_pass(monkeypatch):
    # over two passes of a prefix of the bench's completion ops, each fresh
    # extension is Gram-checked once by its hm_extend + find_completion pair,
    # and each fresh code once on its own Hermite grid: no verdict carries
    # over from one pass to the next, none from a code to its generator
    computed = gram_spy(monkeypatch)
    workload = load_bench("workloads").Completion(sdconv, 1)
    for _ in range(2):
        ops = workload.ops()[:48]
        computed.clear()
        for base, a_vec in ops:
            gt = hm_extend(base, a_vec)
            find_completion(gt)
            assert computed[-1] == codes_of(gt)
        bases = {id(base): base for base, _ in ops}.values()
        assert len(computed) == len(ops) + len(bases)
        assert sorted(rows for rows in computed if len(rows[0]) == 4) == sorted(base._form for base in bases)
    assert all(g._selforth is None for g in workload.generators)
    # two codes on one generator matrix each compute their own verdict
    gen = workload.generators[0]
    computed.clear()
    first, second = ConvolutionalCode(gen), ConvolutionalCode(gen)
    assert first.is_self_orthogonal() and second.is_self_orthogonal() and first.is_self_orthogonal()
    assert computed == [first._form, second._form] and gen._selforth is None
    # a gt the caller built is computed in full, and still refused
    computed.clear()
    for text in ("1,1,1,0", "1,1,1,1,0,0 ; z,z,1,0,1,1"):
        with pytest.raises(MalformedInput, match="not self-orthogonal"):
            find_completion(parse_matrix(F2, text))
    assert len(computed) == 2


def test_find_completion_without_a_witness_calls_no_dot_and_builds_no_matrix(monkeypatch):
    # R, b and v are read off the code grid of the one elimination, and the
    # result is stacked from Poly rows already built: without a witness no
    # path takes a dot product or converts a code grid to a PolyMatrix
    def refuse(*args):
        raise AssertionError("unexpected call")

    gts = [pair_sum_extension(Poly.z(F2) ** 2), parse_matrix(F2, "z,z,1,1"), parse_matrix(F2, "1,1,1,1")]
    for base, a_vec in load_bench("workloads").Completion(sdconv, 1).ops()[:40]:
        gts.append(hm_extend(base, a_vec))
    expected = [find_completion(gt) for gt in gts]
    assert {r.kind for r in expected} == {NON_TRIVIAL, TRIVIAL_ONLY}
    for module in ("polys", "matrices", "constructions"):
        monkeypatch.setattr(f"sdconv.{module}.dot", refuse)
    monkeypatch.setattr(matrices, "_matrix", refuse)
    assert [find_completion(gt) for gt in gts] == expected


# format_vector(default_a_vec(code)), one line per code, for the 33 codes of
# classify_42_binary(2) as canonical generators and then as the seeded
# unimodular mixes of the completion workload's seeds 1-3: 132 vectors, 7
# distinct, recorded before R and b were read off the code grid
DEFAULT_A_VEC_SHA256 = "f9159ae8d6152689dbb19b4e79010d410449ecbfaa3705673d55b2b3fa11ca2c"


def test_default_a_vec_gives_the_recorded_vectors_on_the_42_catalog():
    gens = [record.canonical_generator for record in classify_42_binary(2)]
    assert len(gens) == 33
    for seed in (1, 2, 3):
        gens += load_bench("workloads").Completion(sdconv, seed).generators
    out = [format_vector(default_a_vec(ConvolutionalCode(g))) for g in gens]
    assert len(set(out)) == 7
    assert hashlib.sha256("\n".join(out).encode()).hexdigest() == DEFAULT_A_VEC_SHA256


def test_is_trivial_completion_paper_cases():
    h = Poly.z(F2)
    g1 = PolyMatrix(
        F2,
        [
            [h, h + 1, 0, 0, 0, 1],
            [1, 1, 1, 1, 1, 1],
            [1, 1, 0, 0, 1, 1],
        ],
    )
    assert not is_trivial_completion(g1)
    trivial = vstack(PolyMatrix(F2, [(1, 1, 0, 0)]), parse_matrix(F2, "z,z,1,1"))
    assert is_trivial_completion(trivial)
    with pytest.raises(MalformedInput):
        is_trivial_completion(parse_matrix(F2, "1,1,1,1"))
    with pytest.raises(MalformedInput):
        is_trivial_completion(parse_matrix(F2, "1,1,0,0 ; z,1,1,1"))


def test_default_a_vec_examples():
    assert default_a_vec(code(F2, NBU)) == (Poly.zero(F2), Poly.one(F2))
    assert default_a_vec(code(F2, ONE_ONE)) == (Poly.one(F2),)
    assert default_a_vec(code(F2, FIVE_TWO)) == (Poly.one(F2), Poly.zero(F2))


def test_default_a_vec_refuses_the_zero_code():
    # the zero code is self-dual, but has no pairing polynomials to choose
    zero_code = ConvolutionalCode(PolyMatrix(F2, [], cols=0))
    assert zero_code.is_self_dual()
    with pytest.raises(ShapeUnsupported, match="the zero code has no pairing polynomials"):
        default_a_vec(zero_code)


def test_default_a_vec_guarantees_nontrivial_completion():
    # the pairing a is the right inverse of b, checked against the b of the
    # oracle route: b a^T = 1 with b G = 1 from solve_left
    rng = random.Random(71)
    codes = [c for c in self_dual_corpus(rng, size=8) if c.spec.q == 2]
    for rec in classify42(3):
        canonical = ConvolutionalCode(rec.canonical_generator)
        u = rand_unimodular(rng, F2, canonical.k)
        codes += [canonical, ConvolutionalCode(u @ canonical.generator)]
    codes.append(direct_sum(code(F2, ONE_ONE), code(F2, FIVE_TWO)))
    one = Poly.one(F2)
    for c in codes:
        a = default_a_vec(c)
        b = solve_left(c.generator, (1,) * c.n)
        assert dot(b, a) == one
        result = find_completion(hm_extend(c, a))
        assert result.kind == NON_TRIVIAL


def test_completion_theorem_both_directions_small():
    base = code(F2, ONE_ONE)
    all_ones = parse_vector(F2, "1,1,1,1")
    for a1 in iter_bounded_polys(F2, 2):
        gt = hm_extend(base, (a1,))
        verdict = find_completion(gt).kind == NON_TRIVIAL
        assert verdict == (solve_left(gt, all_ones) is not None)


def test_common_divisor_forces_trivial_only():
    base = code(F2, NBU)
    z = Poly.z(F2)
    for a_vec in ((z, z), (z + 1, z**2 + 1), (Poly.zero(F2), Poly.zero(F2))):
        if vec_content(a_vec) == Poly.one(F2):
            continue
        assert find_completion(hm_extend(base, a_vec)).kind == TRIVIAL_ONLY


def test_building_up_is_a_special_completion():
    # reproducing the building-up output through the paired-column route:
    # pair with the y_i values, then add the row (1, 0, f)
    base = code(F2, FIVE_TWO)
    candidates = [
        parse_vector(F2, "1,z,z^2,z^2+z"),
        parse_vector(F2, "1,1,1,1"),
        parse_vector(F2, "1,z,z,1"),
    ]
    one = Poly.one(F2)
    for f in candidates:
        if dot(f, f) != one:
            continue
        built = building_up(base, f, 1, 1)
        ys = [dot(f, row) for row in base.generator.entries]
        gt = hm_extend(base, ys)
        stacked = vstack(PolyMatrix(F2, [(one, Poly.zero(F2)) + tuple(f)]), gt)
        assert stacked == built.generator


def test_closure_of_all_constructions():
    rng = random.Random(73)
    corpus = self_dual_corpus(rng, size=8)
    for c in corpus:
        assert direct_sum(c, c).is_self_dual()
        perm_rows = list(range(c.n))
        rng.shuffle(perm_rows)
        perm = PolyMatrix(
            c.spec,
            [[1 if j == perm_rows[i] else 0 for j in range(c.n)] for i in range(c.n)],
        )
        assert orthogonal_chain(c, [(PolyMatrix.identity(c.spec, c.n), 1, perm)]).is_self_dual()
        if c.spec.q == 2:
            result = find_completion(hm_extend(c, default_a_vec(c)))
            assert ConvolutionalCode(result.generator).is_self_dual()


def test_nbu_code_zero_one_exclusion():
    # no codeword mixes a zero entry with an entry equal to 1
    rows = parse_matrix(F2, NBU).entries
    one = Poly.one(F2)
    polys = list(iter_bounded_polys(F2, 3))
    for m1, m2 in itertools.product(polys, polys):
        word = [m1 * rows[0][j] + m2 * rows[1][j] for j in range(4)]
        has_zero = any(not w for w in word)
        has_one = any(w == one for w in word)
        assert not (has_zero and has_one)
