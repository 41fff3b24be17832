"""Matrices over F_q[z]: canonical forms, kernels and linear solving.

Conventions used throughout:

* Row Hermite form: echelon with monic pivots; entries above a pivot have
  strictly smaller degree than the pivot.  The form is the unique canonical
  representative of a row span, so it doubles as a code-equality key.
* Column Hermite form: the transposed notion, shape [L 0] with lower
  triangular L for full-row-rank input.
* Smith form: diagonal [diag(g_1..g_k) 0] with monic invariant factors in
  DESCENDING divisibility order, g_{i+1} | g_i.  Most references order them
  ascending.  Only the output of ``smith`` itself depends on the order: no
  other function here calls it.  Smith forms, kernels, membership,
  left-primeness, rank, inverses and determinants all come from the one
  Hermite elimination, ``polys._hermite_core``.

One grid per elimination: a transform is never kept beside the matrix,
it rides along as identity columns.  The rows of [A | I_m] reduce to
[H | U] with U @ A = H (Kailath, *Linear Systems*, 1980, Sec. 6.3), and
Smith alternates row and column Hermite steps on [[A, I_k], [I_n, 0]]
until it is [[S, U], [V, 0]]; every transform is a slice of the grid.  A
question about the form alone reduces A alone and builds no transform:
membership reduces a vector by the canonical form H alone (``_reduce``),
and a transform is read only where coefficients are needed (``solve_left``).

The eliminations run on code grids: a list of rows, each a list of
trimmed code lists (``Poly.codes`` as a list), every entry its own list
object.  Code grid in, pivots out: ``polys._hermite_core`` reduces one
in place, each step a division by ``polys._divmod_codes`` and the one row
step ``polys._sub_mul_row``.  Poly objects and ``PolyMatrix._of`` are built
only from the slices a caller returns (``_matrix``); rank, membership,
(self-)orthogonality and the non-catastrophic test build none, and the
self-dual completion of ``constructions`` reads its right inverse off the
code grid and builds only its test vector.

One Gram loop, ``_is_self_orthogonal``, runs on rows of code lists.  A
matrix is immutable, so it keeps its verdict: ``is_self_orthogonal``
computes it once per PolyMatrix object, and ``find_completion`` reads the
verdict that ``hm_extend``'s assert computed on the same extension.  A
code runs the loop on its own Hermite code grid and keeps its own verdict,
so it never reads or writes that of its generator.

Elimination pivots are chosen as the lowest-degree nonzero entry with ties
broken by smallest index, so all outputs are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .errors import (
    DimensionMismatch,
    FieldMismatch,
    MalformedInput,
    NotSquare,
    NotUnit,
    OutOfRange,
    RankDeficient,
    ParseError,
    SearchSpaceTooLarge,
    ShapeUnsupported,
)
from .fields import MAX_CANDIDATES, FieldSpec, _as_field, _as_int, _as_text
from .polys import (
    Poly, _divmod_codes, _entries, _field_of, _hermite_core, _mul_into, _poly, _sub_mul_row,
    as_poly_vector, dot, format_poly, parse_poly,
)


class PolyMatrix:
    """Immutable k x n grid of Poly entries over one field."""

    __slots__ = ("spec", "rows", "cols", "entries", "_selforth")

    def __init__(self, spec: FieldSpec, rows: Iterable[Iterable], cols: Optional[int] = None):
        spec = _as_field(spec)
        grid = [as_poly_vector(spec, row) for row in _entries(rows)]
        if cols is not None:
            cols = _as_int("cols", cols)
        if grid:
            width = len(grid[0])
            if any(len(r) != width for r in grid):
                raise DimensionMismatch("ragged rows")
            if cols is not None and cols != width:
                raise DimensionMismatch("cols does not match row width")
        elif cols is not None and cols < 0:
            raise OutOfRange(f"negative column count {cols}")
        else:
            width = cols or 0
            _check_shape(0, width)
        self.spec = spec
        self.rows = len(grid)
        self.cols = width
        self.entries = tuple(grid)
        self._selforth = None  # the verdict of is_self_orthogonal, once asked

    @classmethod
    def _of(cls, spec: FieldSpec, grid: tuple, cols: int) -> "PolyMatrix":
        """The constructor of internal results: ``grid`` is a tuple of
        ``cols``-wide tuples of Poly over ``spec``, so nothing is re-checked."""
        out = object.__new__(cls)
        out.spec = spec
        out.rows = len(grid)
        out.cols = cols
        out.entries = grid
        out._selforth = None
        return out

    @classmethod
    def identity(cls, spec: FieldSpec, n: int) -> "PolyMatrix":
        spec, n = _as_field(spec), _as_int("n", n)
        if n < 0:
            raise OutOfRange(f"negative column count {n}")
        return _matrix(spec, _unit_rows(spec, n), n)

    @classmethod
    def zeros(cls, spec: FieldSpec, rows: int, cols: int) -> "PolyMatrix":
        spec, rows, cols = _as_field(spec), _as_int("rows", rows), _as_int("cols", cols)
        if rows < 0 or cols < 0:
            raise OutOfRange(f"negative shape {rows}x{cols}")
        _check_shape(rows, cols)
        return cls._of(spec, ((Poly.zero(spec),) * cols,) * rows, cols)

    def row(self, i: int) -> tuple[Poly, ...]:
        return self.entries[_index("row index", i, self.rows)]

    def column(self, j: int) -> tuple[Poly, ...]:
        j = _index("column index", j, self.cols)
        return tuple(r[j] for r in self.entries)

    def transpose(self) -> "PolyMatrix":
        columns = tuple(zip(*self.entries)) if self.rows else ((),) * self.cols
        return PolyMatrix._of(self.spec, columns, self.rows)

    def __matmul__(self, other: "PolyMatrix") -> "PolyMatrix":
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        if self.spec is not other.spec:
            raise FieldMismatch("matrices over different fields")
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        if not self.cols:
            return PolyMatrix.zeros(self.spec, self.rows, other.cols)
        bt = other.transpose().entries
        out = tuple(tuple(dot(row, col) for col in bt) for row in self.entries)
        return PolyMatrix._of(self.spec, out, other.cols)

    def is_zero(self) -> bool:
        return all(not e for row in self.entries for e in row)

    def __eq__(self, other):
        if isinstance(other, PolyMatrix):
            return (
                self.spec is other.spec
                and self.rows == other.rows
                and self.cols == other.cols
                and self.entries == other.entries
            )
        return NotImplemented

    def __hash__(self):
        return hash((self.spec, self.rows, self.cols, self.entries))

    def __str__(self):
        return format_matrix(self)

    def __repr__(self):
        return f"PolyMatrix({format_matrix(self)!r}, {self.spec!r})"


def _check_shape(rows: int, cols: int) -> None:
    """Refuses, before it is built, a matrix with more than MAX_CANDIDATES
    rows, columns or entries."""
    if rows > MAX_CANDIDATES or cols > MAX_CANDIDATES or rows * cols > MAX_CANDIDATES:
        raise SearchSpaceTooLarge(f"a {rows}x{cols} matrix exceeds the cap of {MAX_CANDIDATES} entries")


def _index(what: str, i, size: int) -> int:
    """``i`` as an index in [0, size), else OutOfRange."""
    i = _as_int(what, i)
    if not 0 <= i < size:
        raise OutOfRange(f"{what} index {i} is not in [0, {size})")
    return i


def _as_matrix(matrix, wide: bool = False) -> PolyMatrix:
    """``matrix`` if it is a PolyMatrix, else MalformedInput; with ``wide``,
    ShapeUnsupported unless it has rows <= cols."""
    if matrix.__class__ is not PolyMatrix:
        raise MalformedInput(f"{matrix!r} is not a matrix")
    if wide and matrix.rows > matrix.cols:
        raise ShapeUnsupported(f"need rows <= cols, got {matrix.rows}x{matrix.cols}")
    return matrix


def vstack(*blocks: PolyMatrix) -> PolyMatrix:
    if not blocks:
        raise DimensionMismatch("vstack of no blocks has no width")
    blocks = [_as_matrix(b) for b in blocks]
    spec = blocks[0].spec
    cols = blocks[0].cols
    if any(b.cols != cols for b in blocks):
        raise DimensionMismatch("vstack blocks with different widths")
    if any(b.spec is not spec for b in blocks):
        raise FieldMismatch("vstack blocks over different fields")
    return PolyMatrix._of(spec, tuple(row for b in blocks for row in b.entries), cols)


@dataclass(frozen=True)
class HermiteDecomposition:
    """form = transform @ input (row side) or input @ transform (column side)."""

    form: PolyMatrix
    transform: PolyMatrix
    side: str  # "row" | "column"


@dataclass(frozen=True)
class SmithDecomposition:
    """U @ input @ V = S with U, V unimodular and S = [diag 0] descending."""

    U: PolyMatrix
    S: PolyMatrix
    V: PolyMatrix

    def diagonal(self) -> tuple[Poly, ...]:
        return tuple(self.S.entries[i][i] for i in range(self.S.rows))


def _grid(rows: Iterable[Sequence[Poly]]) -> list:
    """The code grid of rows of Poly, a fresh code list per entry."""
    return [[list(e.codes) for e in row] for row in rows]


def _matrix(spec: FieldSpec, grid: Sequence[Sequence[list]], cols: int) -> "PolyMatrix":
    """The PolyMatrix of a code grid ``cols`` wide: the one way out of it."""
    return PolyMatrix._of(spec, tuple([tuple([_poly(spec, e) for e in row]) for row in grid]), cols)


def _unit_rows(spec: FieldSpec, m: int) -> list:
    """The code grid of I_m, refused above MAX_CANDIDATES entries."""
    _check_shape(m, m)
    one = spec.one.code
    return [[[one] if i == j else [] for j in range(m)] for i in range(m)]


def _beside_identity(spec: FieldSpec, grid: list) -> list:
    """The code grid [A | I_m] of the m rows of the code grid A."""
    return [row + unit for row, unit in zip(grid, _unit_rows(spec, len(grid)))]


def _is_identity(grid: Sequence[Sequence[list]], width: int, one: int) -> bool:
    """True iff the first ``width`` columns of the code grid are [I; 0]."""
    return all(row[j] == ([one] if i == j else []) for i, row in enumerate(grid) for j in range(width))


def _split(spec: FieldSpec, grid, width: int, rest: int) -> tuple[PolyMatrix, PolyMatrix]:
    """The first ``width`` columns of the code grid, and the ``rest`` after them."""
    left = _matrix(spec, [row[:width] for row in grid], width)
    return left, _matrix(spec, [row[width:] for row in grid], rest)


def row_reduced(matrix: PolyMatrix) -> PolyMatrix:
    """A row-reduced matrix with the same row span as a full-row-rank one.

    Row reduced means that the leading-coefficient matrix L, whose row i
    holds the coefficients of z^{d_i} in row i (d_i the row's degree), has
    full row rank; the row degrees then sum to the largest degree of a
    maximal minor (Forney, SIAM J. Control 13(3), 1975).  While L is
    singular, a vector c with c L = 0 lowers the degree of the row i of
    largest d_i among those with c_i != 0: row i becomes
    sum_j (c_j / c_i) z^{d_i - d_j} row_j, a unimodular step.
    """
    spec, n = matrix.spec, matrix.cols
    log, exp, neg = spec._log, spec._exp, spec._neg
    rows = _grid(matrix.entries)
    while True:
        degrees = [max(len(e) for e in row) - 1 for row in rows]
        if -1 in degrees:
            raise RankDeficient("matrix rows are linearly dependent")
        lead = [[e[d:] for e in row] for row, d in zip(rows, degrees)]
        grid = _beside_identity(spec, lead)
        pivots = _hermite_core(spec, grid, n)
        if len(pivots) == len(rows):
            return _matrix(spec, rows, n)
        c = [e[0] if e else 0 for e in grid[len(pivots)][n:]]
        i = max((j for j in range(len(rows)) if c[j]), key=lambda j: degrees[j])
        for j, cj in enumerate(c):
            if cj and j != i:
                # the code of -(c_j / c_i), at power d_i - d_j
                ratio = neg[exp[log[cj] - log[c[i]] + spec.q - 1]]
                _sub_mul_row(spec, rows[i], [0] * (degrees[i] - degrees[j]) + [ratio], rows[j])


def row_hermite(matrix: PolyMatrix) -> HermiteDecomposition:
    """Unique row Hermite form with its unimodular row transform.

    Requires rows <= cols.  The form has monic echelon pivots and every
    entry above a pivot has strictly smaller degree than the pivot; zero
    rows come last.  Row-equivalent inputs yield identical forms.
    """
    matrix = _as_matrix(matrix, wide=True)
    spec, k, n = matrix.spec, matrix.rows, matrix.cols
    grid = _beside_identity(spec, _grid(matrix.entries))
    _hermite_core(spec, grid, n)
    form, transform = _split(spec, grid, n, k)
    return HermiteDecomposition(form=form, transform=transform, side="row")


def col_hermite(matrix: PolyMatrix) -> HermiteDecomposition:
    """Unique column Hermite form: input @ transform = form = [L 0]."""
    matrix = _as_matrix(matrix, wide=True)
    spec, k, n = matrix.spec, matrix.rows, matrix.cols
    grid = _beside_identity(spec, _grid(matrix.transpose().entries))
    _hermite_core(spec, grid, k)
    form, transform = _split(spec, grid, k, n)
    return HermiteDecomposition(form=form.transpose(), transform=transform.transpose(), side="column")


def rank(matrix: PolyMatrix) -> int:
    """Row rank, from the echelon pivot count (any shape)."""
    return len(_hermite_core(_as_matrix(matrix).spec, _grid(matrix.entries), matrix.cols))


def smith(matrix: PolyMatrix) -> SmithDecomposition:
    """Smith decomposition U @ A @ V = S for full-row-rank A (k <= n).

    S carries the monic invariant factors on its diagonal in descending
    divisibility order (each divides the previous one); rank deficiency
    raises RankDeficient rather than producing zero factors.

    Row and column Hermite steps alternate on the one grid [[A, I_k],
    [I_n, 0]] until A is diagonal (Kannan and Bachem, SIAM J. Comput. 8(4),
    1979); a row step reduces the rows [A | U], a column step [A^T | V^T].
    Where d_{i-1} does not divide d_i, column i is added to column i-1 and
    a row step puts their gcd at (i-1, i-1) (a column step would undo the
    add).  The ascending diagonal is then flipped.
    """
    matrix = _as_matrix(matrix, wide=True)
    spec, k, n = matrix.spec, matrix.rows, matrix.cols
    rows, vt = _beside_identity(spec, _grid(matrix.entries)), _unit_rows(spec, n)
    while True:
        r = len(_hermite_core(spec, rows, n))
        if r < k:
            raise RankDeficient(f"rank {r} < {k}")
        if any(row[j] for i, row in enumerate(rows) for j in range(n) if j != i):
            cols = [[row[j] for row in rows] + col for j, col in enumerate(vt)]
            _hermite_core(spec, cols, k)
            rows = [[col[i] for col in cols] + row[n:] for i, row in enumerate(rows)]
            vt = [col[k:] for col in cols]
            continue
        i = next((i for i in range(1, k) if _divmod_codes(spec, rows[i][i], rows[i - 1][i - 1])[1]), 0)
        if not i:
            break
        rows[i][i - 1] = rows[i][i][:]
        _sub_mul_row(spec, vt[i - 1], [spec._neg[spec.one.code]], vt[i])
    if any(rows[i][i] != rows[k - 1 - i][k - 1 - i] for i in range(k)):
        rows = [row[:k][::-1] + row[k:] for row in rows[::-1]]
        vt[:k] = vt[:k][::-1]
    S, U = _split(spec, rows, n, k)
    return SmithDecomposition(U=U, S=S, V=_matrix(spec, vt, n).transpose())


def determinant(matrix: PolyMatrix) -> Poly:
    """Exact determinant: 0 below full rank, else the product of the
    diagonal of the row Hermite form H = U @ A times det(U)^-1, the unit
    that the elimination records (``_hermite_core``)."""
    matrix = _as_matrix(matrix)
    n, spec = matrix.rows, matrix.spec
    if n != matrix.cols:
        raise NotSquare(f"determinant of {n}x{matrix.cols} matrix")
    grid, units = _grid(matrix.entries), []
    if len(_hermite_core(spec, grid, n, units)) < n:
        return Poly.zero(spec)
    det = [spec._exp[sum(spec._log[c] for c in units) % (spec.q - 1)]]
    for i, row in enumerate(grid):
        det = _mul_into(spec, [], det, row[i], 0)
    return _poly(spec, det)


def inverse_unimodular(matrix: PolyMatrix) -> PolyMatrix:
    """Inverse of a unimodular matrix: [A | I] reduces to [I | A^-1]."""
    matrix = _as_matrix(matrix)
    spec, n = matrix.spec, matrix.rows
    if n != matrix.cols:
        raise NotSquare(f"inverse of {n}x{matrix.cols} matrix")
    grid = _beside_identity(spec, _grid(matrix.entries))
    _hermite_core(spec, grid, n)
    if not _is_identity(grid, n, spec.one.code):
        raise NotUnit("matrix is not unimodular")
    return _matrix(spec, [row[n:] for row in grid], n)


def right_kernel_basis(matrix: PolyMatrix) -> PolyMatrix:
    """Basis of {v : A v^T = 0} as the rows of an (n-k) x n matrix.

    The column Hermite form A @ U^T = [L 0] (Kailath, *Linear Systems*,
    1980, Sec. 6.3) is the row Hermite form U @ A^T, whose rows past the
    first k are zero for a full-row-rank A; so the rows of the unimodular U
    past the first k span the kernel.  They are left-prime, as the kernel
    module is saturated (c*v in the kernel with c nonzero forces v in it).
    """
    matrix = _as_matrix(matrix, wide=True)
    spec, k, n = matrix.spec, matrix.rows, matrix.cols
    grid = _beside_identity(spec, _grid(matrix.transpose().entries))
    pivots = _hermite_core(spec, grid, k)
    if len(pivots) < k:
        raise RankDeficient(f"rank {len(pivots)} < {k}")
    return _matrix(spec, [row[k:] for row in grid[k:]], n)


def is_self_orthogonal(matrix: PolyMatrix) -> bool:
    """True iff A @ A^T = 0, decided once per matrix: the matrix is
    immutable, so the verdict is kept on it and read on every later call."""
    if matrix._selforth is None:
        matrix._selforth = _is_self_orthogonal(matrix.spec, [[e.codes for e in row] for row in matrix.entries])
    return matrix._selforth


def is_orthogonal_to(spec: FieldSpec, u: Sequence[Poly], rows: Iterable[Sequence[Poly]]) -> bool:
    """True iff u @ v^T = 0 for every row v (``_is_orthogonal`` on their codes)."""
    return _is_orthogonal(spec, [x.codes for x in u], ([y.codes for y in v] for v in rows))


def _is_self_orthogonal(spec: FieldSpec, rows: Sequence[Sequence[Sequence[int]]]) -> bool:
    """True iff the Gram matrix of the code rows is zero: the one Gram
    loop.  The Gram matrix is symmetric, so each row is tested against
    itself and the rows after it."""
    return all(_is_orthogonal(spec, u, rows[i:]) for i, u in enumerate(rows))


def _is_orthogonal(spec: FieldSpec, u: Sequence[Sequence[int]], rows: Iterable[Sequence[Sequence[int]]]) -> bool:
    """True iff u @ v^T = 0 for every code row v: each product is summed
    into one code list, up to the first nonzero one."""
    for v in rows:
        out: list[int] = []
        for x, y in zip(u, v):
            _mul_into(spec, out, x, y, 0)
        if any(out):
            return False
    return True


def _reduce(spec: FieldSpec, grid, pivots: Sequence[int], rest: list) -> list:
    """What is left of the code row ``rest``, reduced in place, after
    reduction by the echelon code rows of ``grid``, whose monic pivots sit
    in the columns ``pivots``.

    In pivot order, row i is the only row left that reaches its pivot
    column j_i, so its multiple c_i is the quotient of what is left of
    ``rest`` there by the pivot; a remainder stays at j_i.  So a vector
    reduced by a Hermite form H lies in its row span iff nothing is left.
    """
    for row, j in zip(grid, pivots):
        q = _divmod_codes(spec, rest[j], row[j])[0]
        if q:
            _sub_mul_row(spec, rest, q, row)
    return rest


def solve_left(matrix: PolyMatrix, vec: Iterable) -> Optional[tuple[Poly, ...]]:
    """Solve m @ A = v for a full-row-rank A; None when v is outside the span.

    Reduces [v | 0] by the rows of [H | U], H = U @ A the row Hermite
    form (``_reduce``).  The multiples c of the rows of H give c @ H = v
    when nothing is left of v, and then the tail is -c @ U = -m.
    """
    matrix = _as_matrix(matrix, wide=True)
    spec, k, n = matrix.spec, matrix.rows, matrix.cols
    rest = _grid([as_poly_vector(spec, vec)])[0]
    if len(rest) != n:
        raise DimensionMismatch(f"vector of length {len(rest)} against {k}x{n} matrix")
    rest += [[] for _ in range(k)]
    grid = _beside_identity(spec, _grid(matrix.entries))
    pivots = _hermite_core(spec, grid, n)
    if len(pivots) < k:
        raise RankDeficient("matrix does not have full row rank")
    _reduce(spec, grid, pivots, rest)
    if any(rest[:n]):
        return None
    neg = spec._neg
    return tuple([_poly(spec, [neg[c] for c in x]) for x in rest[n:]])


# ---------------------------------------------------------------------------
# Text format: rows separated by ';', entries by ','.

def parse_matrix(spec: FieldSpec, text: str) -> PolyMatrix:
    spec = _as_field(spec)
    if not _as_text(text).strip():
        raise ParseError("empty matrix text")
    rows = []
    for rt in text.split(";"):
        cells = rt.split(",")
        if not any(c.strip() for c in cells):
            raise ParseError(f"empty matrix row in {text!r}")
        rows.append(tuple([parse_poly(spec, c) for c in cells]))
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ParseError("rows of different lengths")
    return PolyMatrix._of(spec, tuple(rows), width)


def parse_vector(spec: FieldSpec, text: str) -> tuple[Poly, ...]:
    _as_field(spec)
    if not _as_text(text).strip():
        raise ParseError("empty vector text")
    if ";" in text:
        raise ParseError(f"expected a single row vector, got {text!r}")
    return parse_matrix(spec, text).entries[0]


def format_matrix(matrix: PolyMatrix) -> str:
    return " ; ".join([",".join(map(format_poly, row)) for row in _as_matrix(matrix).entries])


def format_vector(vec: Iterable) -> str:
    """The entries, comma-separated, lifted over the field of the first
    polynomial among them (``polys._field_of``)."""
    vec = _entries(vec)
    return ",".join(map(format_poly, as_poly_vector(_field_of(vec), vec))) if vec else ""
