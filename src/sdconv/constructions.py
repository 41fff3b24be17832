"""Constructions that produce new self-dual codes from known ones.

Four routes are implemented: direct sums, chains of scaled-orthogonal
transforms and column permutations, the generalized building-up extension
(over any field containing a square root of -1), and the column-pairing
extension with its self-dual completion search (binary only).  The first
three re-verify their output with the full self-duality check instead of
trusting the algebra, so precondition violations that slip past the
explicit checks still surface.  ``find_completion`` answers every
structural question from one elimination of G', the block of the extension
gt = [a | a | G'] past its paired columns: rank, left-primeness, a right
inverse R, whether the all-ones vector lies in the row span S of gt, and
the kernel vector v = (1, 0, (R a)^T).  It then decides each candidate by
coordinates: with K the kernel of gt and e = (1,1,0,...,0), the classes of
K/S have the basis (e, v), and [f; gt] is a non-trivial self-dual
completion iff f e^T != 0 and gcd(f v^T, f e^T) = 1.  The proof is in its
docstring.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

from .codes import ConvolutionalCode
from .errors import (
    BadScalars,
    BadVector,
    DimensionMismatch,
    FieldMismatch,
    FieldObstruction,
    MalformedInput,
    NotBinary,
    NotOrthogonalScaled,
    NotPermutation,
    NotSelfDual,
    NotUnit,
    ShapeUnsupported,
)
from .fields import FieldElement, FieldSpec, sqrt_of_minus_one
from .matrices import (
    PolyMatrix,
    _beside_identity,
    _grid,
    _hermite_core,
    _is_identity,
    _matrix,
    as_poly_vector,
    dot,
    is_orthogonal_to,
    is_self_orthogonal,
    right_kernel_basis,
    row_matrix,
    solve_left,
    vstack,
)
from .polys import Poly, gcd, vec_content, xgcd

NON_TRIVIAL = "non-trivial"
TRIVIAL_ONLY = "trivial-only"


@dataclass(frozen=True)
class CompletionResult:
    """Outcome of the self-dual completion search.

    ``kind`` is "non-trivial" when a completion exists whose code does not
    contain (1,1,0,...,0); the generator then stacks the witness row on the
    extended matrix.  For "trivial-only" the generator is the reference
    completion with the (1,1,0,...,0) row.
    """

    kind: str
    generator: PolyMatrix
    witness: tuple[Poly, ...]

    @property
    def is_nontrivial(self) -> bool:
        return self.kind == NON_TRIVIAL


def _require_self_dual(code: ConvolutionalCode, who: str) -> None:
    if not code.is_self_dual():
        raise NotSelfDual(f"{who} requires a self-dual input code")


def direct_sum(c1: ConvolutionalCode, c2: ConvolutionalCode) -> ConvolutionalCode:
    """Block-diagonal sum of two self-dual codes; self-dual of size (n+n', k+k')."""
    if c1.spec != c2.spec:
        raise FieldMismatch("direct sum of codes over different fields")
    _require_self_dual(c1, "direct_sum")
    _require_self_dual(c2, "direct_sum")
    if c1.k == 0:
        return c2
    if c2.k == 0:
        return c1
    spec = c1.spec
    zero = Poly.zero(spec)
    rows = [list(r) + [zero] * c2.n for r in c1.generator.entries]
    rows += [[zero] * c1.n + list(r) for r in c2.generator.entries]
    out = ConvolutionalCode(PolyMatrix(spec, rows, cols=c1.n + c2.n))
    assert out.is_self_dual()
    return out


def orthogonal_chain(
    code: ConvolutionalCode,
    steps: Sequence[tuple[PolyMatrix, object, PolyMatrix]],
) -> ConvolutionalCode:
    """Apply steps (M, lambda, P) with M M^T = lambda I and P a permutation.

    The generator becomes G M_1 P_1 ... M_r P_r; the result is self-dual
    whenever every lambda is a nonzero constant.
    """
    _require_self_dual(code, "orthogonal_chain")
    spec = code.spec
    gen = code.generator
    for m, lam, perm in steps:
        lam_poly = lam if isinstance(lam, Poly) else Poly(spec, (lam,))
        if not lam_poly or lam_poly.degree() != 0:
            raise NotUnit(f"scale factor {lam_poly} is not a nonzero constant")
        if m.rows != code.n or m.cols != code.n:
            raise DimensionMismatch(f"transform must be {code.n}x{code.n}")
        expected = PolyMatrix(
            spec,
            [
                [lam_poly if i == j else Poly.zero(spec) for j in range(code.n)]
                for i in range(code.n)
            ],
        )
        if m @ m.transpose() != expected:
            raise NotOrthogonalScaled("M M^T differs from lambda I")
        if not _is_permutation(perm):
            raise NotPermutation("P is not a permutation matrix")
        gen = gen @ m @ perm
    out = ConvolutionalCode(gen)
    assert out.is_self_dual()
    return out


def _is_permutation(m: PolyMatrix) -> bool:
    if m.rows != m.cols:
        return False
    one, zero = Poly.one(m.spec), Poly.zero(m.spec)
    col_hits = [0] * m.cols
    for row in m.entries:
        row_hits = 0
        for j, e in enumerate(row):
            if e == one:
                row_hits += 1
                col_hits[j] += 1
            elif e != zero:
                return False
        if row_hits != 1:
            return False
    return all(h == 1 for h in col_hits)


def building_up(
    code: ConvolutionalCode,
    f: Sequence,
    a: Optional[FieldElement] = None,
    b: Optional[FieldElement] = None,
) -> ConvolutionalCode:
    """Extend a self-dual (2k, k) code to (2k+2, k+1).

    Requires nonzero scalars with a^2 + b^2 = 0 and a row vector f with
    f f^T = -(a^{-1})^2.  When the scalars are omitted they default to
    a = 1 and b = a square root of -1, which exists unless p = 3 mod 4
    with odd extension degree (then FieldObstruction is raised).  The new
    generator has first row (-a^{-1}, 0, f) and rows (a y_i, b y_i, g_i)
    with y_i = f g_i^T.
    """
    _require_self_dual(code, "building_up")
    spec = code.spec
    if (a is None) != (b is None):
        raise BadScalars("provide both scalars or neither")
    if a is None:
        root = sqrt_of_minus_one(spec)
        if root is None:
            raise FieldObstruction(f"-1 is not a square in {spec}")
        a, b = spec.one, root
    else:
        if isinstance(a, int):
            a = spec.from_int(a)
        if isinstance(b, int):
            b = spec.from_int(b)
        if not a or not b:
            raise BadScalars("scalars must be nonzero")
        if a * a + b * b != spec.zero:
            raise BadScalars("a^2 + b^2 must vanish")
    fv = as_poly_vector(spec, f)
    if len(fv) != code.n:
        raise BadVector(f"extension row must have length {code.n}")
    a_inv = a.inverse()
    target = Poly(spec, (-(a_inv * a_inv),))
    if dot(fv, fv) != target:
        raise BadVector("f f^T must equal -(a^{-1})^2")
    rows = [[Poly(spec, (-a_inv,)), Poly.zero(spec), *fv]]
    for g_row in code.generator.entries:
        y = dot(fv, g_row)
        rows.append([y * a, y * b, *g_row])
    out = ConvolutionalCode(PolyMatrix(spec, rows, cols=code.n + 2))
    assert out.is_self_dual()
    return out


def hm_extend(code: ConvolutionalCode, a_vec: Sequence) -> PolyMatrix:
    """Prepend paired columns (a_i, a_i) to a binary self-dual generator.

    The result is a k x (2k+2) matrix generating a self-orthogonal code
    regardless of the a_i; whether it completes non-trivially depends on
    them (see find_completion).
    """
    if code.spec.q != 2:
        raise NotBinary("paired-column extension is defined over GF(2) only")
    _require_self_dual(code, "hm_extend")
    av = as_poly_vector(code.spec, a_vec)
    if len(av) != code.k:
        raise DimensionMismatch(f"need {code.k} pairing polynomials, got {len(av)}")
    rows = [[ai, ai, *g_row] for ai, g_row in zip(av, code.generator.entries)]
    out = PolyMatrix(code.spec, rows, cols=code.n + 2)
    assert is_self_orthogonal(out)
    return out


def _validate_extended(gt: PolyMatrix) -> None:
    if gt.spec.q != 2:
        raise MalformedInput("extended matrix must be over GF(2)")
    if gt.rows < 1 or gt.cols != 2 * gt.rows + 2:
        raise MalformedInput(f"expected k x (2k+2) matrix, got {gt.rows}x{gt.cols}")
    if any(row[0] != row[1] for row in gt.entries):
        raise MalformedInput("first two columns are not paired")
    if not is_self_orthogonal(gt):
        raise MalformedInput("extended matrix is not self-orthogonal")


def _unit_content_vector(vec: Sequence[Poly]) -> tuple[Poly, ...]:
    """The vector divided by its monic content, the zero vector as it is.
    For w = c f, w lies in a saturated module (a kernel) iff f does."""
    content = vec_content(vec)
    if content.degree() < 1:
        return tuple(vec)
    return tuple(e // content for e in vec)


def find_completion(gt: PolyMatrix, witness: Optional[Sequence] = None) -> CompletionResult:
    """Search for a self-dual completion of an extended k x (2k+2) matrix.

    Notation: gt = [a | a | G'], a its column 0 and G' the k x 2k block past
    the pairing; e = (1,1,0,...,0); S is the row span of gt; T = span
    [e; gt] is the trivial completion; K = {v : gt v^T = 0} has rank k+2,
    and its basis B is the rows of ``right_kernel_basis(gt)``.

    One elimination of G'.  gt is paired, so gt gt^T = G' G'^T over GF(2)
    and G' is self-orthogonal (``_validate_extended``).  The rows of
    [G'^T | I_2k] reduce to [H | U] with U G'^T = H.  Fewer than k pivots
    means G' has dependent rows, and H other than [I; 0] means G' is
    catastrophic; either raises MalformedInput before any search, with or
    without a witness.  Otherwise G' is self-dual, and the tails of the
    first k rows are the rows of R^T with G' R = I (Kailath, *Linear
    Systems*, 1980, Sec. 6.3).  After the row steps row_i -= a_i e, [e; gt]
    is block-diag([1 1], G'), so T is self-dual and T = K intersected with
    e^perp.

    All-ones membership.  Over F_2[z], w 1^T = sum w_i and (sum w_i)^2 =
    w w^T = 0 for w in span G', so the all-ones vector 1 lies in the
    self-dual span G', and b = 1 R is the one b with b G' = 1.  So 1 lies
    in S iff also b a^T = 1, where b_i is the sum of row i of R^T.

    The test vector v = (1, 0, (R a)^T): gt v^T = a + G' R a = 0 and
    v e^T = 1, so v lies in K.  A non-trivial completion exists iff 1 lies
    in S.  Then every f in K has f f^T = (f 1^T)^2 = 0, so [f; gt] is
    self-orthogonal and is self-dual iff its row span is saturated.  K and
    S are saturated (gt is left prime as G' is), so K/S is free of rank 2;
    f -> f e^T maps K onto F_2[z] with kernel T = <e> + S, so (e, v) is a
    basis of K/S.  As e e^T = v v^T = 0 and v e^T = 1, the class of f has
    coordinates (f v^T, f e^T).  The span of [f; gt] is saturated iff that
    class is unimodular, and then it contains e, so equals T, iff
    f e^T = 0.  Hence [f; gt] is a non-trivial self-dual completion iff
    f e^T != 0 and gcd(f v^T, f e^T) = 1 (``attempt``).  Any y in K with
    y e^T = 1 differs from v by alpha e + s, s in S, so f y^T = f v^T +
    alpha f e^T and the gcd is the same for y as for v.

    Candidates are the kernel rows, then sums of two of them in index
    order, then ``_exact_completion_witness``, which always passes and is
    computed only when the others fail.  A caller-supplied witness must be
    orthogonal to gt, so it lies in K after division by its content, and it
    is judged by the same test instead of searching.
    """
    _validate_extended(gt)
    spec = gt.spec
    k, cols = gt.rows, gt.cols
    grid = _beside_identity(spec, _grid(gt.transpose().entries[2:]))
    if len(_hermite_core(spec, grid, k)) < k:
        raise MalformedInput("the columns past the paired ones have linearly dependent rows")
    if not _is_identity(grid, k, spec.one.code):
        raise MalformedInput("the columns past the paired ones generate a catastrophic code")
    rt = _matrix(spec, [row[k:] for row in grid[:k]], cols - 2).entries  # R^T, with G' R = I
    a = gt.column(0)
    one, zero = Poly.one(spec), Poly.zero(spec)
    e_row = (one, one) + (zero,) * (cols - 2)
    b = [dot(t, (one,) * (cols - 2)) for t in rt]  # b = 1 R
    if dot(b, a) != one:
        if witness is not None:
            raise BadVector("only trivial completions exist for this extension")
        return CompletionResult(kind=TRIVIAL_ONLY, generator=vstack(row_matrix(spec, e_row), gt), witness=e_row)
    v = (one, zero) + tuple(dot(a, col) for col in zip(*rt))

    def attempt(f: Sequence[Poly]) -> Optional[CompletionResult]:
        beta = dot(f, e_row)
        if not beta or gcd(dot(f, v), beta) != one:
            return None
        return CompletionResult(kind=NON_TRIVIAL, generator=vstack(row_matrix(spec, f), gt), witness=f)

    if witness is not None:
        wv = as_poly_vector(spec, witness)
        if len(wv) != cols:
            raise BadVector(f"witness must have length {cols}")
        if not is_orthogonal_to(spec, wv, gt.entries):
            raise BadVector("witness is not orthogonal to the extended matrix")
        result = attempt(_unit_content_vector(wv))
        if result is None:
            raise BadVector("witness does not produce a non-trivial self-dual completion")
        return result

    kernel = right_kernel_basis(gt)
    rows = kernel.entries
    pairs = (tuple(x + y for x, y in zip(f, g)) for f, g in itertools.combinations(rows, 2))
    found = next((r for r in map(attempt, itertools.chain(rows, pairs)) if r is not None), None)
    return found or attempt(_exact_completion_witness(gt, e_row, kernel))


def _exact_completion_witness(
    gt: PolyMatrix, e_row: tuple[Poly, ...], kernel: PolyMatrix
) -> tuple[Poly, ...]:
    """The kernel vector y = sum c_i B_i with y e^T = 1, B the kernel rows:
    one Bezout step over the values B_i e^T, whose gcd divides v e^T = 1
    for the test vector v of ``find_completion``.  Its class completes
    (e, S) to a basis of the kernel modulo the span S of gt, so [y; gt] is
    a non-trivial self-dual completion whenever one exists."""
    c = _bezout(gt.spec, [dot(b, e_row) for b in kernel.entries])
    return tuple(dot(c, kernel.column(j)) for j in range(kernel.cols))


def _bezout(spec: FieldSpec, values: Sequence[Poly]) -> tuple[Poly, ...]:
    """Coefficients c with sum c_i values_i = 1, by an extended-gcd chain
    over values whose gcd is 1."""
    g = Poly.zero(spec)
    coeffs: list[Poly] = []
    for v in values:
        g, s, t = xgcd(g, v)
        coeffs = [c * s for c in coeffs] + [t]
    assert g == Poly.one(spec)
    return tuple(coeffs)


def is_trivial_completion(g1: PolyMatrix) -> bool:
    """True iff a completed generator produces the trivial completion code.

    Membership of (1,1,0,...,0) decides this: containment between self-dual
    codes forces equality, so the completion equals the trivial one exactly
    when that row lies in its span.
    """
    if g1.rows < 2 or g1.cols != 2 * g1.rows:
        raise MalformedInput(f"expected (k+1) x (2k+2) matrix, got {g1.rows}x{g1.cols}")
    if g1.spec.q != 2:
        raise MalformedInput("completions are defined over GF(2) only")
    if any(row[0] != row[1] for row in g1.entries[1:]):
        raise MalformedInput("first two columns of the extension rows are not paired")
    code = ConvolutionalCode(g1)
    if not code.is_self_dual():
        raise MalformedInput("matrix does not generate a self-dual code")
    return code.contains((1, 1) + (0,) * (g1.cols - 2))


def default_a_vec(code: ConvolutionalCode) -> tuple[Poly, ...]:
    """Pairing polynomials that guarantee a non-trivial completion.

    Solves b G = (1,...,1), which a binary self-dual code always admits,
    then runs an extended-gcd chain over the b_i (their gcd is 1) to find
    a with sum a_i b_i = 1; that makes the all-ones vector reachable in
    the extended matrix.
    """
    if code.spec.q != 2:
        raise NotBinary("default pairing is defined over GF(2) only")
    _require_self_dual(code, "default_a_vec")
    if not code.k:
        raise ShapeUnsupported("the zero code has no pairing polynomials")
    all_ones = as_poly_vector(code.spec, (1,) * code.n)
    b = solve_left(code.generator, all_ones)
    assert b is not None  # all-ones lies in every binary self-dual code
    return _bezout(code.spec, b)
