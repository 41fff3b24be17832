import hashlib
import itertools
import json
import random
from pathlib import Path

import pytest

import sdconv
from helpers import (
    F2,
    F4,
    F5,
    classify42,
    load_bench,
    oracle_find_completion,
    oracle_is_noncatastrophic,
    oracle_is_self_orthogonal,
    rand_unimodular,
    self_dual_corpus,
)
from sdconv import (
    ConvolutionalCode,
    Poly,
    PolyMatrix,
    building_up,
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
    row_matrix,
    solve_left,
    vec_content,
    vstack,
)
from sdconv import constructions, matrices
from sdconv.constructions import (
    NON_TRIVIAL,
    TRIVIAL_ONLY,
    _exact_completion_witness,
    direct_sum,
    orthogonal_chain,
)
from sdconv.errors import (
    BadScalars,
    BadVector,
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
from sdconv.matrices import is_self_orthogonal


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
    assert not result.is_nontrivial
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


def test_exact_completion_witness_completes_every_member_case():
    # the fallback of find_completion, run directly on every extension of a
    # (4,2) catalog code by pairings of degree <= 1 that reaches all-ones
    all_ones = parse_vector(F2, "1,1,1,1,1,1")
    e_row = parse_vector(F2, "1,1,0,0,0,0")
    checked = 0
    for record in classify42(1):
        base = ConvolutionalCode(record.canonical_generator)
        for a_vec in itertools.product(iter_bounded_polys(F2, 1), repeat=2):
            gt = hm_extend(base, a_vec)
            if solve_left(gt, all_ones) is None:
                continue
            x = _exact_completion_witness(gt, e_row, right_kernel_basis(gt))
            completed = vstack(row_matrix(F2, x), gt)
            assert ConvolutionalCode(completed).is_self_dual()
            assert not is_trivial_completion(completed)
            checked += 1
    assert checked == 36


def test_find_completion_takes_a_pair_sum_of_kernel_rows():
    # no single kernel row completes this extension, so the witness comes
    # from the scan over sums of two rows, before the exact witness
    code = ConvolutionalCode(parse_matrix(F2, "1,1,1,1 ; z^3+z^2+1,z^2+z+1,0,z^3+z"))
    gt = hm_extend(code, (Poly.one(F2), Poly.z(F2) ** 2))
    result = find_completion(gt)
    assert result.kind == NON_TRIVIAL
    kernel = right_kernel_basis(gt).entries
    assert result.witness not in kernel
    pair_sums = {
        tuple(x + y for x, y in zip(kernel[i], kernel[j]))
        for i in range(len(kernel))
        for j in range(i + 1, len(kernel))
    }
    assert result.witness in pair_sums
    assert result.witness == parse_vector(F2, "1,0,1,z+1,z+1,0")
    assert ConvolutionalCode(vstack(row_matrix(F2, result.witness), gt)).is_self_dual()
    assert not is_trivial_completion(result.generator)


def test_find_completion_asks_membership_by_the_canonical_form(monkeypatch):
    # membership needs no coefficients, so the pair-sum search above runs
    # with solve_left, the transform route, out of reach
    code = ConvolutionalCode(parse_matrix(F2, "1,1,1,1 ; z^3+z^2+1,z^2+z+1,0,z^3+z"))
    gt = hm_extend(code, (Poly.one(F2), Poly.z(F2) ** 2))

    def refuse(*args):
        raise AssertionError("solve_left called for a membership question")

    monkeypatch.setattr(constructions, "solve_left", refuse)
    result = find_completion(gt)
    assert result.witness == parse_vector(F2, "1,0,1,z+1,z+1,0")
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
            assert result.is_nontrivial == (solve_left(gt, (1,) * gt.cols) is not None)
            assert result.is_nontrivial != is_trivial_completion(gen)
    assert outcomes == {
        NON_TRIVIAL,
        TRIVIAL_ONLY,
        "MalformedInput: the columns past the paired ones generate a catastrophic code",
        "MalformedInput: the columns past the paired ones have linearly dependent rows",
    }


def pair_sum_extension(a2):
    # the base code of the pair-sum example; the pairing (1, z^2) leaves a
    # pair sum as the first candidate that completes, (1, z) the first row
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
            gen = vstack(row_matrix(F2, unit), gt)
            completes = rank(gen) == gen.rows and ConvolutionalCode(gen).is_self_dual()
            expected = unit if completes and not ConvolutionalCode(gen).contains(e_row) else None
            assert verdict == expected, (format_matrix(gt), f)
            verdicts.add((expected is None, not dot(f, e_row)))
    # accepted and refused candidates, each of both kinds of class
    assert verdicts == {(False, False), (True, False), (True, True)}


def test_the_search_runs_the_same_eliminations_for_any_candidate(monkeypatch):
    # a candidate costs two dot products and a gcd, so completing by a pair
    # sum runs as many Hermite eliminations as completing by the first row
    calls = []
    hermite_core = matrices._hermite_core

    def counted(*args):
        calls.append(args)
        return hermite_core(*args)

    monkeypatch.setattr("sdconv.matrices._hermite_core", counted)
    monkeypatch.setattr("sdconv.codes._hermite_core", counted)
    counts = []
    for a2, by_a_row in ((Poly.z(F2), True), (Poly.z(F2) ** 2, False)):
        gt = pair_sum_extension(a2)
        calls.clear()
        result = find_completion(gt)
        counts.append(len(calls))
        assert result.is_nontrivial
        assert (result.witness == right_kernel_basis(gt).entries[0]) == by_a_row
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
            assert got == _outcome(oracle_find_completion, gt, w), (format_matrix(gt), w)
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
    # one elimination of G' answers rank, left-primeness and all-ones
    # membership; only a search without a witness adds the kernel of gt
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
        (pair_sum, None, NON_TRIVIAL, [2, 2]),
        (pair_sum, parse_vector(F2, "1,0,1,z+1,z+1,0"), NON_TRIVIAL, [2]),
    ]
    for gt, witness, kind, expected in cases:
        widths.clear()
        assert find_completion(gt, witness=witness).kind == kind
        assert widths == expected


def test_find_completion_builds_no_code_and_no_exact_witness(monkeypatch):
    # no candidate falls through to the Bezout witness on the pair-sum
    # example, and no path of find_completion constructs a code
    pair_sum = pair_sum_extension(Poly.z(F2) ** 2)
    trivial = parse_matrix(F2, "z,z,1,1")

    def refuse(*args):
        raise AssertionError("unexpected call")

    monkeypatch.setattr(ConvolutionalCode, "__init__", refuse)
    monkeypatch.setattr(constructions, "_exact_completion_witness", refuse)
    assert find_completion(pair_sum).witness == parse_vector(F2, "1,0,1,z+1,z+1,0")
    assert find_completion(trivial).kind == TRIVIAL_ONLY
    assert find_completion(pair_sum, witness=parse_vector(F2, "1,0,1,z+1,z+1,0")).kind == NON_TRIVIAL
    with pytest.raises(BadVector):
        find_completion(trivial, witness=parse_vector(F2, "1,1,0,0"))
    for text in ("0,0,z,z", "1,1,0,0"):
        with pytest.raises(MalformedInput):
            find_completion(parse_matrix(F2, text))


def test_the_test_vector_gives_the_gcds_of_the_bezout_witness():
    # v = (1, 0, (R a)^T), R the right inverse of G' read off its column
    # Hermite transform, lies in the kernel with v e^T = 1; every kernel row
    # and pair sum f has gcd(f v^T, f e^T) = gcd(f y^T, f e^T), y the
    # Bezout witness, over the non-trivial extensions of the seed-1
    # completion workload and the pair-sum example
    one, zero = Poly.one(F2), Poly.zero(F2)
    extensions = {pair_sum_extension(Poly.z(F2) ** 2): None}
    for base, a_vec in load_bench("workloads").Completion(sdconv, 1).ops():
        gt = hm_extend(base, a_vec)
        if solve_left(gt, (1,) * gt.cols) is not None:
            extensions.setdefault(gt)
    assert len(extensions) == 94
    for gt in extensions:
        k = gt.rows
        w = col_hermite(PolyMatrix(F2, [row[2:] for row in gt.entries])).transform
        v = (one, zero) + tuple(dot(row[:k], gt.column(0)) for row in w.entries)
        e_row = (one, one) + (zero,) * (gt.cols - 2)
        assert not any(dot(v, row) for row in gt.entries) and dot(v, e_row) == one
        kernel = right_kernel_basis(gt)
        y = _exact_completion_witness(gt, e_row, kernel)
        rows = kernel.entries
        pairs = [tuple(a + b for a, b in zip(f, g)) for f, g in itertools.combinations(rows, 2)]
        for f in (*rows, *pairs):
            beta = dot(f, e_row)
            assert gcd(dot(f, v), beta) == gcd(dot(f, y), beta), (format_matrix(gt), f)


def test_completion_sweep_gives_the_recorded_outputs():
    # the 129 codes of the degree <= 3 catalog, each extended by the 16
    # pairings of degree <= 1: one SHA-256 over each op's JSON-encoded
    # [extension, kind, witness, generator] text and a newline, in order
    digest = hashlib.sha256()
    kinds = []
    for record in classify42(3):
        base = ConvolutionalCode(record.canonical_generator)
        for a_vec in itertools.product(iter_bounded_polys(F2, 1), repeat=2):
            gt = hm_extend(base, a_vec)
            result = find_completion(gt)
            if result.is_nontrivial:
                kinds.append("row" if result.witness in right_kernel_basis(gt).entries else "pair")
            fields = [format_matrix(gt), result.kind, format_vector(result.witness), format_matrix(result.generator)]
            digest.update(json.dumps(fields).encode() + b"\n")
    assert len(kinds) == 516 and kinds.count("pair") == 12
    recorded = Path(__file__).with_name("data") / "completion_sweep.sha256"
    assert digest.hexdigest() == recorded.read_text(encoding="utf-8").strip()


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
    assert find_completion(pair_sum).witness == parse_vector(F2, "1,0,1,z+1,z+1,0")
    assert find_completion(six).kind == NON_TRIVIAL
    assert find_completion(six, witness=parse_vector(F2, "0,1,0,0,0,1")).kind == NON_TRIVIAL
    with pytest.raises(MalformedInput):
        find_completion(parse_matrix(F2, "0,0,z,z"))


def test_find_completion_gram_checks_the_extension_once(monkeypatch):
    # the pair-sum example tries several candidates; each is judged by its
    # coordinates, so the one full check of the extension is the only one
    gram_checked = []

    def counted(matrix):
        gram_checked.append(matrix)
        return is_self_orthogonal(matrix)

    monkeypatch.setattr(constructions, "is_self_orthogonal", counted)
    monkeypatch.setattr("sdconv.codes.is_self_orthogonal", counted)
    code = ConvolutionalCode(parse_matrix(F2, "1,1,1,1 ; z^3+z^2+1,z^2+z+1,0,z^3+z"))
    gt = hm_extend(code, (Poly.one(F2), Poly.z(F2) ** 2))
    gram_checked.clear()  # hm_extend checks its own output
    assert find_completion(gt).kind == NON_TRIVIAL
    assert gram_checked == [gt]


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
    trivial = vstack(row_matrix(F2, (1, 1, 0, 0)), parse_matrix(F2, "z,z,1,1"))
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
    rng = random.Random(71)
    for c in self_dual_corpus(rng, size=8):
        if c.spec.q != 2:
            continue
        result = find_completion(hm_extend(c, default_a_vec(c)))
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
        stacked = vstack(row_matrix(F2, (one, Poly.zero(F2)) + tuple(f)), gt)
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
