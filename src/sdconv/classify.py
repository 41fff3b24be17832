"""Exhaustive classification drivers with deduplicated, stable output.

Records are deduplicated by the canonical row Hermite generator and listed
in the deterministic enumeration order of their parameters, so repeated
runs produce byte-identical catalogs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .codes import ConvolutionalCode, DistanceReport, STATUS_EXACT, check_search_size, iter_bounded_polys
from .errors import NotBinary, NotSelfDual, NotTriangularPattern, OutOfRange
from .fields import FieldSpec, make_field
from .matrices import PolyMatrix, format_matrix
from .polys import Poly, gcd

# Distance searches in records use this margin above the enumeration degree.
DFREE_BOUND_MARGIN = 4
# Families with constant generators stabilize at message degree 1 and must
# stay cheap over every supported field, so they use a smaller bound.
DFREE_BOUND_CONSTANT = 1


@dataclass(frozen=True)
class ClassificationRecord:
    """One classified code: canonical generator plus headline parameters."""

    canonical_generator: PolyMatrix
    n: int
    k: int
    q: int
    degree: int
    dfree: DistanceReport

    def catalog_line(self) -> str:
        rel = "=" if self.dfree.status == STATUS_EXACT else "<="
        return (
            f"q={self.q} n={self.n} k={self.k} delta={self.degree} "
            f"dfree{rel}{self.dfree.value} gen={format_matrix(self.canonical_generator)}"
        )


def _record(code: ConvolutionalCode, dfree_bound: int) -> ClassificationRecord:
    return ClassificationRecord(
        canonical_generator=code.canonical_generator(),
        n=code.n,
        k=code.k,
        q=code.spec.q,
        degree=code.code_degree(),
        dfree=code.free_distance(dfree_bound),
    )


def _catalog(codes, dfree_bound: int) -> list[ClassificationRecord]:
    """One record per distinct code, in first-seen order: codes compare
    and hash by their canonical generator."""
    return [_record(c, dfree_bound) for c in dict.fromkeys(codes)]


def classify_21(spec: FieldSpec) -> list[ClassificationRecord]:
    """All self-dual (2,1) codes over the field, up to code equality.

    These are exactly the constant generators (1, b) with 1 + b^2 = 0, so
    the list is empty iff -1 has no square root in the field: the k = 1
    case of the double diagonal family.
    """
    return classify_double_diagonal(spec, 1) or []


def classify_42_binary(max_deg: int) -> list[ClassificationRecord]:
    """All binary self-dual (4,2) codes whose parameter pair has degree <= max_deg.

    Enumerates coprime pairs (g23, g24) in lexicographic coefficient order
    and emits the representative with all-ones first row and second row
    (0, g23+g24, g23, g24); records are deduplicated by canonical form.
    """
    if max_deg < 0:
        raise OutOfRange("max_deg must be nonnegative")
    spec = make_field(2)
    # the candidate pairs, then the messages each record's d_free scans
    check_search_size(spec.q, 2 * (max_deg + 1))
    check_search_size(spec.q, 2 * (max_deg + DFREE_BOUND_MARGIN + 1))
    one = Poly.one(spec)
    zero = Poly.zero(spec)
    candidates = iter_bounded_polys(spec, max_deg)
    codes = (
        ConvolutionalCode(PolyMatrix(spec, [[one, one, one, one], [zero, g23 + g24, g23, g24]]))
        for g23, g24 in itertools.product(candidates, candidates)
        if gcd(g23, g24) == one
    )
    return _catalog(codes, max_deg + DFREE_BOUND_MARGIN)


def classify_double_diagonal(spec: FieldSpec, k: int) -> Optional[list[ClassificationRecord]]:
    """All self-dual codes with a double diagonal k x 2k generator.

    Rows can be scaled to the shape (e_i, b_i e_{k+i}) with b_i^2 = -1, so
    the family is parameterized by k-tuples of square roots of -1; None is
    returned when the field has none (the same obstruction as for (2,1)).
    """
    if k < 1:
        raise OutOfRange("k must be at least 1")
    minus_one = spec.from_int(-1)
    roots = [b for b in spec.elements() if b * b == minus_one]
    if not roots:
        return None
    check_search_size(len(roots), k)
    check_search_size(spec.q, k * (DFREE_BOUND_CONSTANT + 1))
    zero = Poly.zero(spec)
    one = Poly.one(spec)
    codes = (
        ConvolutionalCode(PolyMatrix(spec, [
            [one if j == i else Poly(spec, (b,)) if j == k + i else zero for j in range(2 * k)]
            for i, b in enumerate(bs)
        ], cols=2 * k))
        for bs in itertools.product(roots, repeat=k)
    )
    return _catalog(codes, DFREE_BOUND_CONSTANT)


def reduce_double_triangular(gen: PolyMatrix) -> PolyMatrix:
    """Reduce a binary double-upper-triangular self-dual generator to [I I].

    Self-duality forces each diagonal pair equal to 1 from the bottom row
    upward; clearing the paired columns with that row and recursing leaves
    [I_k I_k], the unique code with this shape.  The reduction is verified
    against the canonical forms before returning.
    """
    if gen.spec.q != 2:
        raise NotBinary("double-triangular reduction is defined over GF(2) only")
    k = gen.rows
    if gen.cols != 2 * k or k < 1:
        raise NotTriangularPattern(f"expected k x 2k matrix, got {gen.rows}x{gen.cols}")
    zero = Poly.zero(gen.spec)
    one = Poly.one(gen.spec)
    for i in range(k):
        for j in range(i):
            if gen.entries[i][j] != zero or gen.entries[i][k + j] != zero:
                raise NotTriangularPattern(
                    f"entry ({i},{j}) breaks the double-triangular support"
                )
    code = ConvolutionalCode(gen)
    if not code.is_self_dual():
        raise NotSelfDual("double-triangular input is not self-dual")
    rows = [list(r) for r in gen.entries]
    for r in range(k - 1, -1, -1):
        assert rows[r][r] == one and rows[r][k + r] == one
        for i in range(r):
            c = rows[i][r]
            if c:
                assert rows[i][k + r] == c
                rows[i] = [x - c * y for x, y in zip(rows[i], rows[r])]
    reduced = PolyMatrix(gen.spec, rows, cols=2 * k)
    expected = PolyMatrix(
        gen.spec,
        [
            [one if j == i or j == k + i else zero for j in range(2 * k)]
            for i in range(k)
        ],
    )
    assert reduced == expected
    assert code.canonical_generator() == ConvolutionalCode(expected).canonical_generator()
    return reduced


def format_catalog(records: list[ClassificationRecord]) -> str:
    return "\n".join(r.catalog_line() for r in records)

