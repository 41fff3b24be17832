"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines stream.
Every criterion enforces its own wall-clock budget.
"""

import itertools
import random
from contextlib import contextmanager
from time import perf_counter

from helpers import (
    F2,
    F4,
    F5,
    is_identity_padded,
    is_left_prime,
    oracle_reduce_double_triangular,
    rand_full_rank,
    rand_poly,
    rand_unimodular,
    self_dual_corpus,
)
from sdconv import (
    ConvolutionalCode,
    Poly,
    PolyMatrix,
    building_up,
    classify_42_binary,
    classify_double_diagonal,
    col_hermite,
    default_a_vec,
    determinant,
    direct_sum,
    dot,
    find_completion,
    format_matrix,
    hm_extend,
    is_trivial_completion,
    iter_bounded_polys,
    make_field,
    orthogonal_chain,
    parse_matrix,
    parse_vector,
    row_hermite,
    smith,
    solve_left,
    sqrt_of_minus_one,
    vec_content,
)
from sdconv.cli import main
from sdconv.constructions import NON_TRIVIAL, TRIVIAL_ONLY
from sdconv.classify import reduce_double_triangular


@contextmanager
def criterion(num: int, limit_s: float, desc: str):
    start = perf_counter()
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {num}: FAIL - {desc}")
        raise
    elapsed = perf_counter() - start
    ok = elapsed < limit_s
    verdict = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {num}: {verdict} ({elapsed:.2f}s, limit {limit_s:g}s) - {desc}")
    assert ok, f"criterion {num} exceeded its {limit_s}s budget ({elapsed:.2f}s)"


def test_criterion_1_f5_worked_example(capsys):
    with criterion(1, 1.0, "GF(5) worked example: self-dual, G G^T = 0, minor det 2"):
        assert main(["check", "--field", "5", "3,z,1,3*z ; 1,2*z+4,2,z+2"]) == 0
        out = capsys.readouterr().out
        assert "self-dual: true" in out
        g = parse_matrix(F5, "3,z,1,3*z ; 1,2*z+4,2,z+2")
        assert (g @ g.transpose()).is_zero()
        assert determinant(PolyMatrix(F5, [row[:2] for row in g.entries])) == Poly(F5, (2,))


def test_criterion_2_catastrophic_counterexample():
    with criterion(2, 1.0, "catastrophic self-orthogonal code: verdicts and membership"):
        code = ConvolutionalCode(parse_matrix(F2, "z^2+z+1,z^2,z,1 ; 1,z,z^2,z^2+z+1"))
        assert code.is_self_orthogonal()
        assert not code.is_noncatastrophic()
        assert not code.is_self_dual()
        ones = parse_vector(F2, "1,1,1,1")
        assert not code.contains(ones)
        assert code.dual().contains(ones)


def test_criterion_3_existence_table():
    with criterion(3, 5.0, "(2,1) classification empty exactly when -1 is a non-square"):
        fields = {
            2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 7: (7, 1), 8: (2, 3),
            9: (3, 2), 11: (11, 1), 13: (13, 1), 16: (2, 4), 25: (5, 2),
        }
        nonempty = {2, 4, 5, 8, 9, 13, 16, 25}
        for q, (p, l) in fields.items():
            spec = make_field(p, l)
            records = classify_double_diagonal(spec, 1) or []
            assert bool(records) == (q in nonempty)
            assert bool(records) == (p == 2 or p % 4 == 1 or l % 2 == 0)
            assert bool(records) == (sqrt_of_minus_one(spec) is not None)


def _oracle_coprime_count(max_deg: int) -> int:
    universe = list(iter_bounded_polys(F2, max_deg))
    divisors = [d for d in universe if d.degree() >= 1]

    def divides(d, u):
        if not u:
            return True
        if d.degree() > u.degree():
            return False
        return any(d * e == u for e in iter_bounded_polys(F2, int(u.degree() - d.degree())))

    count = 0
    for g1, g2 in itertools.product(universe, universe):
        if not g1 and not g2:
            continue
        if not any(divides(d, g1) and divides(d, g2) for d in divisors):
            count += 1
    return count


def test_criterion_4_42_enumeration():
    with criterion(4, 10.0, "binary (4,2) enumeration: 3 codes at degree 0, 9 at degree 1"):
        assert _oracle_coprime_count(0) == 3
        assert _oracle_coprime_count(1) == 9
        for max_deg, expected in ((0, 3), (1, 9)):
            records = classify_42_binary(max_deg)
            assert len(records) == expected
            for rec in records:
                code = ConvolutionalCode(rec.canonical_generator)
                assert code.is_self_dual()
                assert code.contains([1, 1, 1, 1])
                for msg in itertools.product(iter_bounded_polys(F2, 2), repeat=2):
                    w = sum(p.weight() for p in code.encode(msg))
                    assert w % 2 == 0


def test_criterion_5_building_up_worked_example():
    with criterion(5, 1.0, "building-up worked example reproduced byte-exactly"):
        base = ConvolutionalCode(parse_matrix(F2, "1,1,1,1 ; 0,1,z+1,z"))
        out = building_up(base, parse_vector(F2, "1,z,z^2,z^2+z"), 1, 1)
        rendered = format_matrix(out.generator)
        assert rendered == "1,0,1,z,z^2,z^2+z ; 1,1,1,1,1,1 ; z,z,0,1,z+1,z"
        assert out.is_self_dual()


def test_criterion_6_completion_theorem_exhaustive():
    with criterion(6, 60.0, "completion verdict equals all-ones membership, exhaustively"):
        codes = [ConvolutionalCode(r.canonical_generator) for r in classify_42_binary(1)]
        a_polys = list(iter_bounded_polys(F2, 1))
        checked = 0
        for code in codes:
            all_ones = parse_vector(F2, "1,1,1,1,1,1")
            for a_vec in itertools.product(a_polys, repeat=2):
                gt = hm_extend(code, a_vec)
                result = find_completion(gt)
                membership = solve_left(gt, all_ones) is not None
                assert (result.kind == NON_TRIVIAL) == membership
                if result.kind == NON_TRIVIAL:
                    assert ConvolutionalCode(result.generator).is_self_dual()
                    assert not is_trivial_completion(result.generator)
                if vec_content(a_vec) != Poly.one(F2):
                    # a common divisor among the pairing polynomials
                    # blocks every non-trivial completion
                    assert result.kind == TRIVIAL_ONLY
                checked += 1
        assert checked == 9 * 16


def test_criterion_7_paper_completion_examples():
    with criterion(7, 1.0, "worked completion examples: trivial, injected, six-column"):
        one_one = ConvolutionalCode(parse_matrix(F2, "1,1"))
        gt_z = hm_extend(one_one, parse_vector(F2, "z"))
        assert find_completion(gt_z).kind == TRIVIAL_ONLY
        gt_1 = hm_extend(one_one, parse_vector(F2, "1"))
        injected = find_completion(gt_1, witness=parse_vector(F2, "0,z^2+z+1,z,z^2+1"))
        assert injected.kind == NON_TRIVIAL
        assert injected.generator == parse_matrix(F2, "0,z^2+z+1,z,z^2+1 ; 1,1,1,1")
        g1 = parse_matrix(
            F2, "0,1,0,0,0,1 ; z^2+1,z^2+1,0,z^2+z+1,z,z^2+1 ; 1,1,1,1,1,1"
        )
        assert ConvolutionalCode(g1).is_self_dual()


def test_criterion_8_free_distance_and_exclusion():
    with criterion(8, 30.0, "distance-4 code: bounded search and zero/one exclusion"):
        code = ConvolutionalCode(parse_matrix(F2, "0,z^2+z+1,z,z^2+1 ; 1,1,1,1"))
        report = code.free_distance(6)
        assert report.value == 4
        rows = code.generator.entries
        one = Poly.one(F2)
        for m1, m2 in itertools.product(iter_bounded_polys(F2, 5), repeat=2):
            word = [m1 * rows[0][j] + m2 * rows[1][j] for j in range(4)]
            has_zero = any(not w for w in word)
            has_one = any(w == one for w in word)
            assert not (has_zero and has_one)


def test_criterion_9_property_suite():
    with criterion(9, 120.0, "randomized property suite over a 200-code corpus"):
        rng = random.Random(20260810)

        # Theorem-of-equivalences corpus: random and known-self-dual codes
        corpus = []
        for spec, k in ((F2, 1), (F2, 2), (F4, 1), (F5, 1), (F5, 2), (F2, 3)):
            for _ in range(25):
                corpus.append(ConvolutionalCode(rand_full_rank(rng, spec, k, 2 * k)))
        corpus.extend(self_dual_corpus(rng, size=50))
        assert len(corpus) == 200
        for code in corpus:
            sd = code.is_self_dual()
            assert sd == (code.is_self_orthogonal() and code.is_noncatastrophic())
            assert sd == (code.dual() == code)

        # biduality for non-catastrophic codes
        for code in corpus[:60]:
            if code.is_noncatastrophic():
                assert code.dual().dual() == code

        # Smith/Hermite reconstruction and uniqueness under unimodular factors
        for spec in (F2, F4, F5):
            for _ in range(6):
                a = rand_full_rank(rng, spec, 2, 4)
                h = row_hermite(a)
                assert h.transform @ a == h.form
                assert row_hermite(rand_unimodular(rng, spec, 2) @ a).form == h.form
                c = col_hermite(a)
                assert a @ c.transform == c.form
                assert col_hermite(a @ rand_unimodular(rng, spec, 4)).form == c.form
                s = smith(a)
                assert s.U @ a @ s.V == s.S
                assert smith(
                    rand_unimodular(rng, spec, 2) @ a @ rand_unimodular(rng, spec, 4)
                ).S == s.S
                assert is_left_prime(a) == is_identity_padded(s.S)

        # closure of the four constructions
        sd_codes = self_dual_corpus(rng, size=12)
        for code in sd_codes:
            assert direct_sum(code, code).is_self_dual()
            shuffle = list(range(code.n))
            rng.shuffle(shuffle)
            perm = PolyMatrix(
                code.spec,
                [[1 if j == shuffle[i] else 0 for j in range(code.n)] for i in range(code.n)],
            )
            chained = orthogonal_chain(
                code, [(PolyMatrix.identity(code.spec, code.n), 1, perm)]
            )
            assert chained.is_self_dual()
        bu_base = ConvolutionalCode(parse_matrix(F2, "1,1,1,1 ; 0,1,z+1,z"))
        for f_text in ("1,z,z^2,z^2+z", "1,1,1,1", "1,z,z,1"):
            f = parse_vector(F2, f_text)
            if dot(f, f) == Poly.one(F2):
                assert building_up(bu_base, f).is_self_dual()
        for code in sd_codes:
            if code.spec.q == 2:
                result = find_completion(hm_extend(code, default_a_vec(code)))
                assert result.kind == NON_TRIVIAL
                assert ConvolutionalCode(result.generator).is_self_dual()

        # double-triangular reduction for k up to 4
        for k in (2, 3, 4):
            eye_pair = PolyMatrix(
                F2,
                [[1 if j == i or j == k + i else 0 for j in range(2 * k)] for i in range(k)],
            )
            for _ in range(4):
                rows = [list(r) for r in PolyMatrix.identity(F2, k).entries]
                for i in range(k):
                    for j in range(i + 1, k):
                        rows[i][j] = rand_poly(rng, F2, 2)
                mixer = PolyMatrix(F2, rows, cols=k)
                gen = mixer @ eye_pair
                assert oracle_reduce_double_triangular(gen) == eye_pair
                assert reduce_double_triangular(gen) == eye_pair
