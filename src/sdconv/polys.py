"""Dense univariate polynomials over a FieldSpec, in the variable z.

A polynomial stores its coefficients as the field's int codes, the indices
in ``spec.elements()``, lowest degree first with no trailing zeros; the
zero polynomial is the empty tuple and its degree is -infinity, which keeps
degree comparisons in the canonical-form algorithms uniform.  A field is
one object (``fields.make_field``), so polynomials over one field share
their spec object.  ``coeffs`` is the API view of the codes as the field's
interned elements.

All arithmetic runs on code lists through one inner loop, :func:`_mul_into`,
which adds g^e times a product of code lists into a third with the field's
log and Zech tables, and one division loop built on it,
:func:`_divmod_codes`; division by a unit, the common step of an
elimination, is one scaling of the dividend's codes by antilog lookups.
``Poly`` operators wrap them.  The one elimination, :func:`_hermite_core`,
reduces grids of code lists with the two loops directly: it answers
``gcd``, ``xgcd`` and ``vec_content`` as the Hermite form of one column,
and every elimination of ``matrices``.  The d_free trellis of ``codes``
does not add through these loops: it packs each vector of codes into one
int and adds whole vectors in a few int operations (``fields._Words``).

A value enters F_q[z] by one lift, :func:`_lift`, built on the one lift
into F_q, ``FieldElement._coerce``; :func:`as_poly_vector` maps it over a
vector.  ``dot``, ``gcd``, ``xgcd`` and ``vec_content`` lift over the field
of their first polynomial entry.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Union

from .errors import DimensionMismatch, DivisionByZero, FieldMismatch, OutOfRange, SearchSpaceTooLarge
from .fields import (
    MAX_EXPONENT, FieldElement, FieldSpec, _as_field, _as_int, _as_text, _element_code, _format_terms,
    _parse_terms,
)

NEG_INF = float("-inf")


class Poly:
    """Element of F_q[z]."""

    __slots__ = ("spec", "codes")

    def __init__(self, spec: FieldSpec, coeffs: Iterable = ()):
        spec = _as_field(spec)
        lift, codes = spec.one._coerce, []
        for c in coeffs:
            e = lift(c)
            if e is None:
                raise FieldMismatch(f"coefficient {c!r} is not an element of {spec!r}")
            codes.append(e.code)
        while codes and not codes[-1]:
            codes.pop()
        self.spec = spec
        self.codes = tuple(codes)

    @property
    def coeffs(self) -> tuple[FieldElement, ...]:
        """The coefficients as elements of ``spec``, lowest degree first."""
        els = self.spec._els
        return tuple([els[c] for c in self.codes])

    @classmethod
    def zero(cls, spec: FieldSpec) -> "Poly":
        return _poly(_as_field(spec), [])

    @classmethod
    def one(cls, spec: FieldSpec) -> "Poly":
        return _poly(spec, [_as_field(spec).one.code])

    @classmethod
    def z(cls, spec: FieldSpec) -> "Poly":
        return _poly(spec, [0, _as_field(spec).one.code])

    def degree(self) -> Union[int, float]:
        """Degree, with degree(0) = -inf so it sorts below every integer."""
        return len(self.codes) - 1 if self.codes else NEG_INF

    def lc(self) -> FieldElement:
        """Leading coefficient; undefined for the zero polynomial."""
        if not self.codes:
            raise DivisionByZero("the zero polynomial has no leading coefficient")
        return self.spec._els[self.codes[-1]]

    def monic(self) -> "Poly":
        if not self.codes:
            return self
        return self * self.lc().inverse()

    def weight(self) -> int:
        """Number of nonzero coefficients."""
        return len(self.codes) - self.codes.count(0)

    def __add__(self, other):
        o = _lift(self.spec, other)
        spec = self.spec
        return _poly(spec, _mul_into(spec, list(self.codes), (spec.one.code,), o.codes, 0))

    __radd__ = __add__

    def __sub__(self, other):
        return self + -_lift(self.spec, other)

    def __rsub__(self, other):
        return _lift(self.spec, other) - self

    def __neg__(self):
        neg = self.spec._neg
        return _poly(self.spec, [neg[c] for c in self.codes])

    def __mul__(self, other):
        o = _lift(self.spec, other)
        return _poly(self.spec, _mul_into(self.spec, [], self.codes, o.codes, 0))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        n = _as_int("exponent", n)
        if n < 0:
            raise OutOfRange("negative polynomial power")
        # the cap of the text parsers' z^e, on the result's degree n * deg
        if len(self.codes) > 1 and n > MAX_EXPONENT // (len(self.codes) - 1):
            raise SearchSpaceTooLarge(f"the power's degree exceeds the cap of {MAX_EXPONENT}")
        out = Poly.one(self.spec)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __divmod__(self, other):
        o = _lift(self.spec, other)
        if not o.codes:
            raise DivisionByZero("polynomial division by zero")
        quo, rem = _divmod_codes(self.spec, self.codes, o.codes)
        return _poly(self.spec, quo), _poly(self.spec, rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __bool__(self):
        return bool(self.codes)

    def __eq__(self, other):
        # Only polynomials compare equal to polynomials: no hash of a
        # constant could also agree with the hash of an int or an element.
        if isinstance(other, Poly):
            return self.spec is other.spec and self.codes == other.codes
        return NotImplemented

    def __hash__(self):
        return hash((self.spec, self.codes))

    def __str__(self):
        return format_poly(self)

    def __repr__(self):
        return f"Poly({format_poly(self)!r}, {self.spec!r})"


def _poly(spec: FieldSpec, codes: list[int]) -> Poly:
    """The constructor of arithmetic results: ``codes`` are already codes
    of ``spec``, so only trailing zeros are trimmed."""
    while codes and not codes[-1]:
        codes.pop()
    out = object.__new__(Poly)
    out.spec = spec
    out.codes = tuple(codes)
    return out


def _lift(spec: FieldSpec, value) -> Poly:
    """The lift into F_q[z]: ``value`` as a polynomial over ``spec``.  A
    polynomial over this field is kept, and a field value becomes a
    constant (``FieldElement._coerce``); anything else is FieldMismatch."""
    if isinstance(value, Poly):
        if value.spec is not spec:
            raise FieldMismatch(f"polynomials over {value.spec!r} and {spec!r} cannot be combined")
        return value
    c = spec.one._coerce(value)
    if c is None:
        raise FieldMismatch(f"{value!r} is not a value of {spec!r}")
    return _poly(spec, [c.code])


def as_poly_vector(spec: FieldSpec, vec: Iterable) -> tuple[Poly, ...]:
    """The lift (``_lift``) of each entry of the iterable ``vec``, read once.
    The common case, polynomials over this very field, lifts to itself."""
    vec = _entries(vec)
    for e in vec:
        if e.__class__ is not Poly or e.spec is not spec:
            return tuple([_lift(spec, e) for e in vec])
    return vec


def _entries(vec) -> tuple:
    """The entries of the iterable ``vec`` as a tuple, else DimensionMismatch."""
    try:
        return tuple(vec)
    except TypeError:
        raise DimensionMismatch(f"{vec!r} is not a vector") from None


def _field_of(vec: Sequence) -> FieldSpec:
    """The field of the first polynomial in ``vec``: the functions on
    polynomials that take no field lift the other entries over it."""
    for e in vec:
        if isinstance(e, Poly):
            return e.spec
    raise FieldMismatch("no polynomial argument fixes the field")


def _mul_into(
    spec: FieldSpec, out: list[int], a: Sequence[int], b: Sequence[int], e: int, shift: int = 0
) -> list[int]:
    """out[shift + i + j] += g^e * a[i] * b[j] for all i, j, in place on
    code lists, out padded as needed; returns out.  This is the one inner
    loop of the arithmetic: a sum g^s + g^t is g^(s + Z(t - s)) by the
    Zech table, and 0 <= t, s + Z(t - s) < 2(q - 1) index the antilogs."""
    if not (a and b):
        return out
    if len(a) > len(b):
        a, b = b, a  # fewer passes of the inner loop
    size = shift + len(a) + len(b) - 1
    if len(out) < size:
        out += [0] * (size - len(out))
    log, exp, zech, n = spec._log, spec._exp, spec._zech, spec.q - 1
    for i, c in enumerate(a, shift):
        if c:
            f = (log[c] + e) % n
            for j, d in enumerate(b, i):
                if d:
                    t = f + log[d]
                    o = out[j]
                    if o:
                        s = log[o]
                        z = zech[t - s]
                        out[j] = 0 if z is None else exp[s + z]
                    else:
                        out[j] = exp[t]
    return out


def _divmod_codes(spec: FieldSpec, a: Sequence[int], b: Sequence[int]) -> tuple[list[int], list[int]]:
    """Quotient and remainder of the trimmed code list a by the nonzero
    trimmed code list b, both trimmed: the one division loop.  A unit b
    divides each coefficient by one scaling, with no remainder.  Otherwise
    each step cancels the leading term of the remainder by _mul_into with
    the log of -1/lc(b)."""
    log, exp, n = spec._log, spec._exp, spec.q - 1
    lead = log[b[-1]]
    if len(b) == 1:
        s = n - lead
        return [exp[log[c] + s] if c else 0 for c in a], []
    minus_inv_lead = (spec._log_minus_one - lead) % n
    rem = list(a)
    dv = len(b) - 1
    quo = [0] * max(len(rem) - dv, 0)
    while len(rem) > dv:
        shift = len(rem) - 1 - dv
        quo[shift] = exp[log[rem[-1]] - lead + n]
        _mul_into(spec, rem, (rem[-1],), b, minus_inv_lead, shift)
        while rem and not rem[-1]:
            rem.pop()
    return quo, rem


# ---------------------------------------------------------------------------
# Row echelon Hermite core: code grid in, pivots out.  It reduces the grid
# in place and pivots only on its first ``width`` columns; the columns past
# them ride along, so [A | I_m] reduces to [H | U] and A alone to H (see
# ``matrices``).  The pivot of a column is its shortest code list, ties to
# the smallest row index.  Zero rows sink to the bottom.  A row step keeps
# the remainder by the pivot and steps only the columns after it, as the
# pivot row is zero before it.  A list ``units`` gets the code of -1 per row
# swap and the leading code of each pivot scaled to monic: their product is
# det A / det H for square A of full rank.

def _hermite_core(spec: FieldSpec, grid: list, width: int, units: Optional[list] = None) -> list[int]:
    m = len(grid)
    one = spec.one.code
    pivots: list[int] = []
    r = 0
    for j in range(width):
        if r == m:
            break
        while True:
            nz = [(len(grid[i][j]), i) for i in range(r, m) if grid[i][j]]
            if not nz:
                break
            piv = min(nz)[1]
            if piv != r:
                grid[r], grid[piv] = grid[piv], grid[r]
                if units is not None:
                    units.append(spec._neg[one])
            top = grid[r]
            done = True
            for i in range(r + 1, m):
                if grid[i][j]:
                    q, grid[i][j][:] = _divmod_codes(spec, grid[i][j], top[j])
                    if q:
                        _sub_mul_row(spec, grid[i][j + 1 :], q, top[j + 1 :])
                    if grid[i][j]:
                        done = False
            if done:
                break
        top = grid[r]
        if top[j]:
            if top[j][-1] != one:
                if units is not None:
                    units.append(top[j][-1])
                _scale_row(spec, top, top[j][-1])
            for i in range(r):
                q, grid[i][j][:] = _divmod_codes(spec, grid[i][j], top[j])
                if q:
                    _sub_mul_row(spec, grid[i][j + 1 :], q, top[j + 1 :])
            pivots.append(j)
            r += 1
    return pivots


def _sub_mul_row(spec: FieldSpec, row: list, q: Sequence[int], top: Sequence) -> None:
    """The one row step: row -= q * top, in place on the code lists of
    ``row``, skipping the zero entries of ``top``.  ``row`` and ``top`` may
    also list the entries of two columns, which then step in their grid."""
    e = spec._log_minus_one
    for x, y in zip(row, top):
        if y:
            _mul_into(spec, x, q, y, e)
            while x and not x[-1]:
                x.pop()


def _scale_row(spec: FieldSpec, row: list, c: int) -> None:
    """Divides the code lists of ``row`` in place by the nonzero code c."""
    for x in row:
        x[:] = _divmod_codes(spec, x, (c,))[0]


def dot(u: Iterable, v: Iterable) -> Poly:
    """The sum of u[i] * v[i], accumulated in one code list, over the field
    of the first polynomial entry, which the other entries are lifted over."""
    u, v = _entries(u), _entries(v)
    if len(u) != len(v):
        raise DimensionMismatch("dot product of vectors with different lengths")
    if not u:
        raise DimensionMismatch("empty dot product: no field to sum over")
    uv = u + v
    spec = _field_of(uv)
    uv = as_poly_vector(spec, uv)
    out: list[int] = []
    for x, y in zip(uv, uv[len(u) :]):
        _mul_into(spec, out, x.codes, y.codes, 0)
    return _poly(spec, out)


def xgcd(u: Poly, v: Poly) -> tuple[Poly, Poly, Poly]:
    """Returns (g, s, t) with g = s*u + t*v: the rows [v | 1 0] and
    [u | 0 1] reduce to [g | t s] and a zero row.

    g is monic when nonzero; gcd(0, 0) = 0 with s = t = 0.
    """
    spec = _field_of((v, u))
    v, u = as_poly_vector(spec, (v, u))
    grid = [[list(v.codes), [spec.one.code], []], [list(u.codes), [], [spec.one.code]]]
    if not _hermite_core(spec, grid, 1):
        return (Poly.zero(spec),) * 3
    g, t, s = [_poly(spec, e) for e in grid[0]]
    return g, s, t


def gcd(u: Poly, v: Poly) -> Poly:
    """Monic gcd, without cofactors; gcd(0, 0) = 0."""
    return vec_content((u, v))


def vec_content(vec: Iterable[Poly]) -> Poly:
    """Monic gcd of all entries of a polynomial vector (0 if all zero): the
    first entry of the Hermite form of the vector as one column."""
    vec = _entries(vec)
    if not vec:
        raise DimensionMismatch("content of an empty vector")
    spec = _field_of(vec)
    grid = [[list(e.codes)] for e in as_poly_vector(spec, vec)]
    _hermite_core(spec, grid, 1)
    return _poly(spec, grid[0][0])


# ---------------------------------------------------------------------------
# Text format: polynomials in z whose coefficients are field-element text,
# in the one grammar documented on fields._parse_terms.  Both directions run
# on codes: the parser reads each coefficient straight to a code, in the
# order the terms are written, so the first fault in the text is the one
# reported; canonical coefficient text is a lookup in the field's inverse
# text table.  The formatter takes each coefficient's text from the field's
# text table and writes the nonzero terms in fields._format_terms's one loop,
# highest power first.


def parse_poly(spec: FieldSpec, text: str) -> Poly:
    """Parse polynomial text over z; whitespace-insensitive."""
    spec = _as_field(spec)
    one = spec.one.code
    codes: dict[int, int] = {}
    for ct, e in _parse_terms(_as_text(text), "z"):  # whitespace is gone from ct
        c = one if ct is None else _element_code(spec, ct, ct)
        if e in codes:  # a repeated power: its coefficients add on codes
            c = _mul_into(spec, [codes[e]], (one,), (c,), 0)[0]
        codes[e] = c
    return _poly(spec, [codes.get(e, 0) for e in range(max(codes) + 1)])


def format_poly(p: Poly) -> str:
    """Canonical emission: descending powers, no zero terms, units omitted."""
    return _format_terms(p.codes, p.spec._text, "z")
