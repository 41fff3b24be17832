"""Dense univariate polynomials over a FieldSpec, in the variable z.

Coefficients are stored lowest degree first with no trailing zeros; the
zero polynomial is the empty tuple and its degree is -infinity, which keeps
degree comparisons in the canonical-form algorithms uniform.  Every
coefficient is an element of the polynomial's own spec object, so the
arithmetic builds its results without lifting or checking them again.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Union

from .errors import DimensionMismatch, DivisionByZero, FieldMismatch, OutOfRange
from .fields import FieldElement, FieldSpec, _format_terms, _parse_terms, parse_element

NEG_INF = float("-inf")

Coeffish = Union[FieldElement, int]


class Poly:
    """Element of F_q[z]."""

    __slots__ = ("spec", "coeffs")

    def __init__(self, spec: FieldSpec, coeffs: Iterable[Coeffish] = ()):
        lifted = []
        for c in coeffs:
            if isinstance(c, int):
                c = spec.from_int(c)
            elif c.spec is not spec:
                if c.spec != spec:
                    raise FieldMismatch("coefficient from a different field")
                c = spec.element(c.coeffs)
            lifted.append(c)
        while lifted and not lifted[-1].code:
            lifted.pop()
        self.spec = spec
        self.coeffs = tuple(lifted)

    @classmethod
    def zero(cls, spec: FieldSpec) -> "Poly":
        return _poly(spec, [])

    @classmethod
    def one(cls, spec: FieldSpec) -> "Poly":
        return _poly(spec, [spec.one])

    @classmethod
    def z(cls, spec: FieldSpec) -> "Poly":
        return _poly(spec, [spec.zero, spec.one])

    def degree(self) -> Union[int, float]:
        """Degree, with degree(0) = -inf so it sorts below every integer."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def lc(self) -> FieldElement:
        """Leading coefficient; undefined for the zero polynomial."""
        if not self.coeffs:
            raise DivisionByZero("the zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def monic(self) -> "Poly":
        if not self.coeffs:
            return self
        return self * self.lc().inverse()

    def weight(self) -> int:
        """Number of nonzero coefficients."""
        return sum(1 for c in self.coeffs if c.code)

    def _coerce(self, other):
        if isinstance(other, Poly):
            if other.spec is self.spec:
                return other
            if other.spec != self.spec:
                raise FieldMismatch("polynomials over different fields")
            return Poly(self.spec, other.coeffs)
        if isinstance(other, (FieldElement, int)):
            return Poly(self.spec, (other,))
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        if not b:
            return self
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return _poly(self.spec, out)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        out = list(a) + [self.spec.zero] * (len(b) - len(a))
        for i, c in enumerate(b):
            out[i] = out[i] - c
        return _poly(self.spec, out)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return _poly(self.spec, [-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, (FieldElement, int)):
            return _poly(self.spec, [c * other for c in self.coeffs])
        if isinstance(other, Poly):
            other = self._coerce(other)
            a, b = self.coeffs, other.coeffs
            if not a:
                return self
            if not b:
                return other
            zero = self.spec.zero
            out = [zero] * (len(a) + len(b) - 1)
            for i, ca in enumerate(a):
                if ca:
                    for j, cb in enumerate(b):
                        out[i + j] = out[i + j] + ca * cb
            return _poly(self.spec, out)
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise OutOfRange("negative polynomial power")
        out = Poly.one(self.spec)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __divmod__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o:
            raise DivisionByZero("polynomial division by zero")
        spec = self.spec
        rem = list(self.coeffs)
        dv = len(o.coeffs) - 1
        inv_lead = o.lc().inverse()
        quo = [spec.zero] * max(len(rem) - dv, 0)
        while rem and len(rem) - 1 >= dv:
            shift = len(rem) - 1 - dv
            factor = rem[-1] * inv_lead
            quo[shift] = factor
            for i, c in enumerate(o.coeffs):
                rem[shift + i] = rem[shift + i] - factor * c
            while rem and not rem[-1].code:
                rem.pop()
        return _poly(spec, quo), _poly(spec, rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        # Only polynomials compare equal to polynomials: no hash of a
        # constant could also agree with the hash of an int or an element.
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs and (
                self.spec is other.spec or self.spec == other.spec
            )
        return NotImplemented

    def __hash__(self):
        return hash((self.spec, self.coeffs))

    def __str__(self):
        return format_poly(self)

    def __repr__(self):
        return f"Poly({format_poly(self)!r}, {self.spec!r})"


def _poly(spec: FieldSpec, coeffs: list[FieldElement]) -> Poly:
    """The constructor of arithmetic results: ``coeffs`` are already
    elements of ``spec``, so only trailing zeros are trimmed."""
    while coeffs and not coeffs[-1].code:
        coeffs.pop()
    out = object.__new__(Poly)
    out.spec = spec
    out.coeffs = tuple(coeffs)
    return out


def xgcd(u: Poly, v: Poly) -> tuple[Poly, Poly, Poly]:
    """Extended Euclid: returns (g, s, t) with g = s*u + t*v.

    g is monic when nonzero; gcd(0, 0) = 0 with s = t = 0.
    """
    if u.spec is not v.spec and u.spec != v.spec:
        raise FieldMismatch("polynomials over different fields")
    spec = u.spec
    r0, r1 = u, v
    s0, s1 = Poly.one(spec), Poly.zero(spec)
    t0, t1 = Poly.zero(spec), Poly.one(spec)
    while r1:
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if not r0:
        return r0, Poly.zero(spec), Poly.zero(spec)
    c = r0.lc().inverse()
    return r0 * c, s0 * c, t0 * c


def gcd(u: Poly, v: Poly) -> Poly:
    return xgcd(u, v)[0]


def vec_content(vec: Sequence[Poly]) -> Poly:
    """Monic gcd of all entries of a polynomial vector (0 if all zero)."""
    if not vec:
        raise DimensionMismatch("content of an empty vector")
    g = Poly.zero(vec[0].spec)
    for entry in vec:
        g = gcd(g, entry)
        if g == Poly.one(g.spec):
            break
    return g


# ---------------------------------------------------------------------------
# Text format: polynomials in z whose coefficients are field-element text,
# in the one grammar documented on fields._parse_terms.


def parse_poly(spec: FieldSpec, text: str) -> Poly:
    """Parse polynomial text over z; whitespace-insensitive."""
    coeffs: dict[int, FieldElement] = {}
    for ct, e in _parse_terms(text, "z"):
        c = spec.one if ct is None else parse_element(spec, ct)
        coeffs[e] = coeffs.get(e, spec.zero) + c
    return _poly(spec, [coeffs.get(e, spec.zero) for e in range(max(coeffs) + 1)])


def format_poly(p: Poly) -> str:
    """Canonical emission: descending powers, no zero terms, units omitted."""
    return _format_terms(map(str, p.coeffs), "z")
