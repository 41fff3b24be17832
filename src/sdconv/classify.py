"""Exhaustive classification drivers with stable output.

Each driver enumerates parameters that give distinct codes, as its
docstring proves, so records are made as the codes are enumerated, with
no dedup, in the deterministic order of their parameters: repeated runs
produce byte-identical catalogs.  The (2,1) codes are the k = 1 case
of the double diagonal family.  The canonical form also decides the
double-triangular reduction; the paper's row reduction stays in the tests
as its oracle.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional

from .codes import ConvolutionalCode, DistanceReport, STATUS_EXACT, iter_bounded_polys
from .errors import MalformedInput, NotBinary, NotSelfDual, NotTriangularPattern, OutOfRange
from .fields import FieldSpec, _as_int, check_search_size, make_field, sqrt_of_minus_one
from .matrices import PolyMatrix, _as_matrix, format_matrix
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


def classify_42_binary(max_deg: int) -> list[ClassificationRecord]:
    """All binary self-dual (4,2) codes whose parameter pair has degree <= max_deg.

    Enumerates coprime pairs (g23, g24) in lexicographic coefficient order
    and emits the representative with all-ones first row and second row
    (0, g23+g24, g23, g24).  Distinct pairs give distinct codes: the
    codewords with first entry 0 are exactly the F_2[z]-multiples of row 2,
    so two pairs that give one code have rows 2 equal up to a unit, and the
    only unit of F_2[z] is 1.
    """
    max_deg = _as_int("max_deg", max_deg)
    if max_deg < 0:
        raise OutOfRange("max_deg must be nonnegative")
    spec = make_field(2)
    check_search_size(spec.q, 2 * (max_deg + 1))  # the candidate pairs
    one = Poly.one(spec)
    zero = Poly.zero(spec)
    candidates = iter_bounded_polys(spec, max_deg)
    return [
        _record(ConvolutionalCode(PolyMatrix(spec, [[one, one, one, one], [zero, g23 + g24, g23, g24]])),
                max_deg + DFREE_BOUND_MARGIN)
        for g23, g24 in itertools.product(candidates, candidates)
        if gcd(g23, g24) == one
    ]


def classify_double_diagonal(spec: FieldSpec, k: int) -> Optional[list[ClassificationRecord]]:
    """All self-dual codes with a double diagonal k x 2k generator.

    Rows can be scaled to the shape (e_i, b_i e_{k+i}) with b_i^2 = -1, so
    the family is parameterized by k-tuples of square roots of -1; None is
    returned when the field has none.  For k = 1 these are all the
    self-dual (2,1) codes: the constant generators (1, b) with 1 + b^2 = 0.
    Distinct tuples give distinct codes: a code has at most one generator
    of the form [I_k | B], and the roots are distinct.
    """
    k = _as_int("k", k)
    if k < 1:
        raise OutOfRange("k must be at least 1")
    root = sqrt_of_minus_one(spec)
    if root is None:
        return None
    roots = list(dict.fromkeys((root, -root)))  # one root in characteristic 2
    # the one guard before a k x 2k generator is built: GF(2) has one tuple
    check_search_size(spec.q, k * (DFREE_BOUND_CONSTANT + 1))
    zero = Poly.zero(spec)
    one = Poly.one(spec)
    return [
        _record(ConvolutionalCode(PolyMatrix(spec, [
            [one if j == i else Poly(spec, (b,)) if j == k + i else zero for j in range(2 * k)]
            for i, b in enumerate(bs)
        ], cols=2 * k)), DFREE_BOUND_CONSTANT)
        for bs in itertools.product(roots, repeat=k)
    ]


def reduce_double_triangular(gen: PolyMatrix) -> PolyMatrix:
    """Reduce a binary double-upper-triangular self-dual generator to [I I].

    [I_k I_k] is the unique code with this shape: self-duality forces each
    diagonal pair equal to 1 from the bottom row upward, and clearing the
    paired columns with that row leaves [I_k I_k] (the paper's reduction,
    kept in the tests as the oracle).  The canonical form decides it here.
    """
    if _as_matrix(gen).spec.q != 2:
        raise NotBinary("double-triangular reduction is defined over GF(2) only")
    k = gen.rows
    if gen.cols != 2 * k or k < 1:
        raise NotTriangularPattern(f"expected k x 2k matrix, got {gen.rows}x{gen.cols}")
    for i in range(k):
        for j in range(i):
            if gen.entries[i][j] or gen.entries[i][k + j]:
                raise NotTriangularPattern(
                    f"entry ({i},{j}) breaks the double-triangular support"
                )
    code = ConvolutionalCode(gen)
    if not code.is_self_dual():
        raise NotSelfDual("double-triangular input is not self-dual")
    eye_pair = PolyMatrix(gen.spec, [[int(j in (i, k + i)) for j in range(2 * k)] for i in range(k)])
    assert code == ConvolutionalCode(eye_pair)
    return eye_pair


def format_catalog(records: Iterable[ClassificationRecord]) -> str:
    """One catalog line per record; MalformedInput unless ``records`` is an
    iterable of records."""
    try:
        records = list(records)
    except TypeError:
        raise MalformedInput(f"{records!r} is not a list of records") from None
    if any(r.__class__ is not ClassificationRecord for r in records):
        raise MalformedInput("a catalog entry is not a ClassificationRecord")
    return "\n".join(r.catalog_line() for r in records)

