"""Convolutional codes as full-row-rank row spans over F_q[z].

A code is identified with its unique row Hermite canonical generator, so
two codes compare equal exactly when they are the same submodule.  The
self-duality predicates follow the equivalence: a code is self-dual iff it
is self-orthogonal (G G^T = 0) and non-catastrophic (column Hermite form
[I 0]) and n = 2k.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional

from .errors import DimensionMismatch, OutOfRange, RankDeficient, SearchSpaceTooLarge
from .fields import MAX_CANDIDATES, _Words, _as_field, _as_int, check_search_size
from .matrices import (
    PolyMatrix,
    _as_matrix,
    _grid,
    _hermite_core,
    _is_identity,
    _is_self_orthogonal,
    _matrix,
    _reduce,
    right_kernel_basis,
    row_reduced,
)
from .polys import Poly, _poly, as_poly_vector, dot

STATUS_EXACT = "exact-under-bound"
STATUS_UPPER = "upper-bound"

@dataclass(frozen=True)
class DistanceReport:
    """Result of a bounded free-distance search.

    ``value`` is the minimum codeword weight over all nonzero messages
    whose components have degree at most ``search_bound``.  The status is
    "exact-under-bound" when the search proved that no longer message is
    lighter, so the value is the free distance, else "upper-bound".
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
        generator = _as_matrix(generator)
        k, n = generator.rows, generator.cols
        if k > n:
            raise RankDeficient(f"{k}x{n} generator cannot have full row rank")
        grid = _grid(generator.entries)
        pivots = _hermite_core(generator.spec, grid, n)
        if len(pivots) < k:
            raise RankDeficient("generator rows are linearly dependent")
        self.generator = generator
        self._form = grid  # the row Hermite form H = U G as a code grid
        self._pivots = pivots
        self._canonical: Optional[PolyMatrix] = None
        self._selforth: Optional[bool] = None
        self._noncat: Optional[bool] = None

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
        """The unique row Hermite form of the generator; the equality key."""
        if self._canonical is None:
            self._canonical = _matrix(self.spec, self._form, self.n)
        return self._canonical

    def code_degree(self) -> int:
        """Highest degree over the maximal minors; generator independent.

        It is the sum of the row degrees of a row-reduced generator.
        """
        reduced = row_reduced(self.generator).entries
        return sum(max(e.degree() for e in row) for row in reduced)

    def dual(self) -> "ConvolutionalCode":
        """The dual code, generated by a kernel basis of the generator."""
        return ConvolutionalCode(right_kernel_basis(self.generator))

    def is_self_orthogonal(self) -> bool:
        """G G^T = 0 iff H H^T = U G G^T U^T = 0, U unimodular, so the test
        runs on the form the code already holds, not on its generator."""
        if self._selforth is None:
            self._selforth = _is_self_orthogonal(self.spec, self._form)
        return self._selforth

    def is_noncatastrophic(self) -> bool:
        """A matrix is left prime (basic) iff its column Hermite form is
        [I 0], that is iff the row Hermite form of its transpose is [I; 0].
        G is left prime iff its row Hermite form H = U G is, U unimodular
        (Kailath, *Linear Systems*, 1980, Sec. 6.3), so the test runs on
        the transpose of the form the code already holds."""
        if self._noncat is None:
            grid = [[list(e) for e in col] for col in zip(*self._form)]
            _hermite_core(self.spec, grid, self.k)
            self._noncat = _is_identity(grid, self.k, self.spec.one.code)
        return self._noncat

    def is_self_dual(self) -> bool:
        return (
            self.n == 2 * self.k
            and self.is_self_orthogonal()
            and self.is_noncatastrophic()
        )

    def contains(self, vec: Iterable) -> bool:
        """True iff nothing is left of the vector reduced by the canonical generator."""
        rest = _grid([as_poly_vector(self.spec, vec)])[0]
        if len(rest) != self.n:
            raise DimensionMismatch(f"vector of length {len(rest)} in length-{self.n} code")
        return not any(_reduce(self.spec, self._form, self._pivots, rest))

    def encode(self, message: Iterable) -> tuple[Poly, ...]:
        """The codeword m @ G for a length-k message vector."""
        msg = as_poly_vector(self.spec, message)
        if len(msg) != self.k:
            raise DimensionMismatch(f"message of length {len(msg)} for rank-{self.k} code")
        if not self.k:
            return (Poly.zero(self.spec),) * self.n
        return tuple(dot(msg, col) for col in zip(*self.generator.entries))

    def free_distance(self, bound: int) -> DistanceReport:
        """Minimum codeword weight over nonzero messages of degree <= bound.

        A forward dynamic program over the encoder trellis.  Step t feeds
        the input block u_t in F_q^k; a state is what the inputs so far
        still owe the next m output blocks (m the largest entry degree),
        its cost the least weight already emitted.  A state and a branch
        output sum(u_i * row_i) are words of ``fields._Words``: one int
        holds the width = n(m + 1) entries of the output blocks, so a sum
        of two is one int sum and a fix-up.  The emitted block is the lowest
        n entries, its weight one ``bit_count``, and the next state is the
        word shifted right by one block.  The branches are the span of the
        rows, built once from the words of p^j * row_i.
        Weight is invariant under shift and scaling, so step 0 takes only
        nonzero inputs whose first nonzero entry is 1.

        After each step but the last, a state goes on only if it still owes
        output and costs less than the lightest ended message and than it
        did at any earlier step.  When none goes on, the value is d_free,
        the least weight of any nonzero message: a lighter message with the
        fewest steps passes only states that go on, since a state owing
        nothing, or reached earlier at no higher cost, leaves a shorter
        message that is no heavier.

        The message cap does not bound the states: while a generator's
        output is delayed, every state still owes output at cost 0 and goes
        on.  So the steps may compute MAX_CANDIDATES output entries in all,
        and ``SearchSpaceTooLarge`` is raised before a step past that, and
        before the branches of the first step are built.
        """
        bound = _as_int("bound", bound)
        if bound < 0:
            raise OutOfRange("bound must be nonnegative")
        if self.k == 0:
            raise OutOfRange("the empty code has no nonzero codewords")
        spec, k, n = self.spec, self.k, self.n
        check_search_size(spec.q, k * (bound + 1))
        width = n * max(len(e.codes) for row in self.generator.entries for e in row)
        log, exp, p = spec._log, spec._exp, spec.p
        words = _Words(p, spec.l, width, spec._spread)
        add, shift = words.add, words.bits * n
        emitted, weight = words.counter(n), words.counter(width)
        states = {0: 0}  # each state, the word of what is owed, maps to its cost
        ended = float("inf")  # the least weight of a message whose output ended
        seen: dict = {}  # the least cost of each state that went on
        work = 0  # output entries, counted as states x q^k x width per step

        def charge():
            nonlocal work
            work += len(states) * spec.q**k * width
            if work > MAX_CANDIDATES:
                raise SearchSpaceTooLarge(f"the trellis search exceeds the cap of {MAX_CANDIDATES}")

        charge()  # before the branches: step 0 alone may have q^(k-1) of them
        # the span of rows i.. in itertools.product order, from the last row
        # up, and the step-0 branches, whose first nonzero input is 1
        span, branches = [0], []
        for i in reversed(range(k)):
            flat = [0] * width  # entry d*n + j: z^d in column j
            for j, entry in enumerate(self.generator.entries[i]):
                flat[j : j + n * len(entry.codes) : n] = entry.codes
            row = words.pack(flat)
            branches = [add(row, w) for w in span] + branches
            if i or bound:  # the multiples c * row: the span of the p^j * row
                units = [[exp[log[p**j] + log[r]] if r else 0 for r in flat] for j in range(spec.l)]
                span = words.span([words.pack(u) for u in units], span)
        for _ in range(bound):
            layer: dict = {}
            for owed, cost in states.items():
                for branch in branches:
                    out = add(owed, branch)
                    total = cost + emitted(out)
                    nxt = out >> shift
                    if total < layer.get(nxt, total + 1):
                        layer[nxt] = total
            ended = min(ended, min(c + weight(o) for o, c in layer.items()))
            states = {o: c for o, c in layer.items() if o and c < min(ended, seen.get(o, ended))}
            if not states:
                return DistanceReport(value=ended, search_bound=bound, status=STATUS_EXACT)
            seen.update(states)
            branches = span
            charge()
        best = min(c + weight(add(o, b)) for o, c in states.items() for b in branches)
        return DistanceReport(value=min(ended, best), search_bound=bound, status=STATUS_UPPER)

    def __eq__(self, other):
        if isinstance(other, ConvolutionalCode):
            return self.canonical_generator() == other.canonical_generator()
        return NotImplemented

    def __hash__(self):
        return hash(self.canonical_generator())

    def __repr__(self):
        return f"ConvolutionalCode({self.generator!r})"


def iter_bounded_polys(spec, max_deg: int) -> list[Poly]:
    """All polynomials of degree <= max_deg, lexicographic in coefficients."""
    max_deg = _as_int("max_deg", max_deg)
    if max_deg < 0:
        raise OutOfRange("max_deg must be nonnegative")
    check_search_size(_as_field(spec).q, max_deg + 1)
    return [_poly(spec, list(codes)) for codes in itertools.product(range(spec.q), repeat=max_deg + 1)]
