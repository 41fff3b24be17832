"""Convolutional codes as full-row-rank row spans over F_q[z].

A code is identified with its unique row Hermite canonical generator, so
two codes compare equal exactly when they are the same submodule.  The
self-duality predicates follow the equivalence: a code is self-dual iff it
is self-orthogonal (G G^T = 0) and non-catastrophic (Smith form [I 0]) and
n = 2k.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import DimensionMismatch, OutOfRange, RankDeficient, SearchSpaceTooLarge
from .matrices import (
    PolyMatrix,
    as_poly_vector,
    dot,
    is_identity_padded,
    maximal_minors,
    right_kernel_basis,
    row_hermite,
    smith,
    solve_left,
)
from .polys import Poly

STATUS_EXACT = "exact-under-bound"
STATUS_UPPER = "upper-bound"
# free_distance refuses to scan more candidate messages than this.
MAX_CANDIDATES = 1 << 22


@dataclass(frozen=True)
class DistanceReport:
    """Result of a bounded free-distance search.

    ``value`` is the minimum codeword weight over all nonzero messages
    whose components have degree at most ``search_bound``.  The status is
    "exact-under-bound" when the minimum already stabilized one bound
    earlier; this is a heuristic stopping signal, not a proof.
    """

    value: int
    search_bound: int
    status: str

    def render(self) -> str:
        if self.status == STATUS_EXACT:
            return f"d_free = {self.value} (stable at bound {self.search_bound})"
        return f"d_free <= {self.value} (bound {self.search_bound})"


class ConvolutionalCode:
    """Row span of a full-row-rank generator matrix over F_q[z]."""

    def __init__(self, generator: PolyMatrix):
        k, n = generator.rows, generator.cols
        if k > n:
            raise RankDeficient(f"{k}x{n} generator cannot have full row rank")
        dec = row_hermite(generator) if k else None
        if dec is not None and any(
            all(not e for e in dec.form.entries[i]) for i in range(k)
        ):
            raise RankDeficient("generator rows are linearly dependent")
        self.generator = generator
        self._canonical = dec.form if dec is not None else generator
        self._selforth: Optional[bool] = None
        self._noncat: Optional[bool] = None
        self._degree: Optional[int] = None

    @property
    def spec(self):
        return self.generator.spec

    @property
    def k(self) -> int:
        return self.generator.rows

    @property
    def n(self) -> int:
        return self.generator.cols

    def canonical_generator(self) -> PolyMatrix:
        """The unique row Hermite form of the generator; the dedup key."""
        return self._canonical

    def code_degree(self) -> int:
        """Highest degree over the maximal minors; generator independent."""
        if self._degree is None:
            # full rank guarantees a nonzero minor
            self._degree = int(max(m.degree() for m in maximal_minors(self.generator)))
        return self._degree

    def dual(self) -> "ConvolutionalCode":
        """The dual code, generated by a kernel basis of the generator."""
        if self.k == 0:
            return ConvolutionalCode(PolyMatrix.identity(self.spec, self.n))
        return ConvolutionalCode(right_kernel_basis(self.generator))

    def is_self_orthogonal(self) -> bool:
        if self._selforth is None:
            self._selforth = (self.generator @ self.generator.transpose()).is_zero()
        return self._selforth

    def is_noncatastrophic(self) -> bool:
        if self._noncat is None:
            self._noncat = self.k == 0 or is_identity_padded(smith(self.generator).S)
        return self._noncat

    def is_self_dual(self) -> bool:
        return (
            self.n == 2 * self.k
            and self.is_self_orthogonal()
            and self.is_noncatastrophic()
        )

    def contains(self, vec: Sequence) -> bool:
        if len(vec) != self.n:
            raise DimensionMismatch(f"vector of length {len(vec)} in length-{self.n} code")
        return solve_left(self.generator, as_poly_vector(self.spec, vec)) is not None

    def encode(self, message: Sequence) -> tuple[Poly, ...]:
        """The codeword m @ G for a length-k message vector."""
        msg = as_poly_vector(self.spec, message)
        if len(msg) != self.k:
            raise DimensionMismatch(f"message of length {len(msg)} for rank-{self.k} code")
        return tuple(
            dot(msg, self.generator.column(j)) for j in range(self.n)
        )

    def free_distance(self, bound: int) -> DistanceReport:
        """Exhaustive minimum codeword weight over bounded-degree messages.

        Scans every nonzero message in F_q[z]^k whose components have
        degree <= bound, skipping scalar multiples (the first nonzero
        component is forced monic; weight is scaling invariant).
        """
        if bound < 0:
            raise OutOfRange("bound must be nonnegative")
        if self.k == 0:
            raise OutOfRange("the empty code has no nonzero codewords")
        spec = self.spec
        check_search_size(spec.q, self.k * (bound + 1))
        one = spec.one
        polys = iter_bounded_polys(spec, bound)
        # precompute every component-times-row product once; a message
        # codeword is then a columnwise sum of k precomputed vectors
        tables = [
            [tuple(p * entry for entry in self.generator.row(i)) for p in polys]
            for i in range(self.k)
        ]
        monic_or_zero = [not p or p.lc() == one for p in polys]
        prev_eligible = [p.degree() < bound for p in polys]
        best: Optional[int] = None
        best_prev: Optional[int] = None
        for idx in itertools.product(range(len(polys)), repeat=self.k):
            lead = next((i for i in idx if polys[i]), None)
            if lead is None or not monic_or_zero[lead]:
                continue
            inside_prev = bound > 0 and all(prev_eligible[i] for i in idx)
            # a weight already above both minima cannot improve either,
            # so the remaining columns need not be accumulated
            cutoff = best
            if best is not None and best_prev is not None:
                cutoff = max(best, best_prev)
            vecs = [tables[i][idx[i]] for i in range(self.k)]
            word_weight = 0
            truncated = False
            for j in range(self.n):
                acc = vecs[0][j]
                for v in vecs[1:]:
                    acc = acc + v[j]
                word_weight += acc.weight()
                if cutoff is not None and word_weight > cutoff:
                    truncated = True
                    break
            if truncated:
                continue
            if best is None or word_weight < best:
                best = word_weight
            if inside_prev and (best_prev is None or word_weight < best_prev):
                best_prev = word_weight
        assert best is not None
        status = STATUS_EXACT if best_prev == best else STATUS_UPPER
        return DistanceReport(value=best, search_bound=bound, status=status)

    def __eq__(self, other):
        if isinstance(other, ConvolutionalCode):
            return self._canonical == other._canonical
        return NotImplemented

    def __hash__(self):
        return hash(self._canonical)

    def __repr__(self):
        return f"ConvolutionalCode({self.generator!r})"


def check_search_size(base: int, exp: int) -> None:
    """Refuses a search over base^exp candidates above MAX_CANDIDATES,
    without computing a power far above the cap."""
    if base > 1 and (exp >= MAX_CANDIDATES.bit_length() or base**exp > MAX_CANDIDATES):
        raise SearchSpaceTooLarge(f"{base}^{exp} candidates exceed the cap of {MAX_CANDIDATES}")


def iter_bounded_polys(spec, max_deg: int) -> list[Poly]:
    """All polynomials of degree <= max_deg, lexicographic in coefficients."""
    return [
        Poly(spec, coeffs)
        for coeffs in itertools.product(spec.elements(), repeat=max_deg + 1)
    ]
