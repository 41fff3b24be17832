"""Exact arithmetic in small finite fields F_q with q = p^l.

An element is a coefficient vector of length l over F_p in the power basis
of a fixed monic irreducible modulus of degree l.  For l = 1 the modulus is
x itself and arithmetic is plain arithmetic mod p.  Field values are
immutable and interned per field, so equality checks are cheap and elements
can be shared freely between threads.

Element text syntax: prime fields use plain decimals ("3"); extension
fields use the letter ``a`` for the residue class of x ("a+1", "a^2+2*a").
"""

from __future__ import annotations

import itertools
import re
from typing import Iterable, Optional

from .errors import (
    DegreeMismatch,
    DivisionByZero,
    FieldMismatch,
    NotPrime,
    OutOfRange,
    ParseError,
    ReducibleModulus,
    SearchSpaceTooLarge,
)

# Enumeration scans and lookup interning keep fields deliberately small.
MAX_FIELD_SIZE = 1 << 16


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    i = 2
    while i * i <= n:
        if n % i == 0:
            return False
        i += 1
    return True


# ---------------------------------------------------------------------------
# Integer-coefficient polynomial helpers (dense, lowest degree first).
# Used for the modulus arithmetic underneath FieldElement.

def _trim(v: list[int]) -> list[int]:
    while v and v[-1] == 0:
        v.pop()
    return v


def _int_poly_mul(u: Iterable[int], v: Iterable[int], p: int) -> list[int]:
    u, v = list(u), list(v)
    if not u or not v:
        return []
    out = [0] * (len(u) + len(v) - 1)
    for i, a in enumerate(u):
        if a:
            for j, b in enumerate(v):
                out[i + j] = (out[i + j] + a * b) % p
    return _trim(out)


def _int_poly_mod(u: Iterable[int], v: list[int], p: int) -> list[int]:
    """Remainder of u mod v over F_p; v must be monic."""
    r = _trim(list(u))
    dv = len(v) - 1
    while r and len(r) - 1 >= dv:
        shift = len(r) - 1 - dv
        lead = r[-1]
        for i, c in enumerate(v):
            r[shift + i] = (r[shift + i] - lead * c) % p
        _trim(r)
    return r


def _modulus_is_irreducible(modulus: tuple[int, ...], p: int) -> bool:
    """Trial division by every monic polynomial of degree 1 .. l//2."""
    l = len(modulus) - 1
    for d in range(1, l // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            divisor = list(tail) + [1]
            if not _int_poly_mod(modulus, divisor, p):
                return False
    return True


class FieldElement:
    """An element of a fixed FieldSpec, stored as its coefficient vector."""

    __slots__ = ("spec", "coeffs")

    def __init__(self, spec: "FieldSpec", coeffs: tuple[int, ...]):
        self.spec = spec
        self.coeffs = coeffs

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.spec is self.spec or other.spec == self.spec:
                return other
            raise FieldMismatch(
                f"elements of {self.spec} and {other.spec} cannot be combined"
            )
        if isinstance(other, int):
            return self.spec.from_int(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        p = self.spec.p
        return self.spec.element(
            tuple((a + b) % p for a, b in zip(self.coeffs, o.coeffs))
        )

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        p = self.spec.p
        return self.spec.element(
            tuple((a - b) % p for a, b in zip(self.coeffs, o.coeffs))
        )

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        p = self.spec.p
        return self.spec.element(tuple((-a) % p for a in self.coeffs))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        spec = self.spec
        if spec.l == 1:
            return spec.element(((self.coeffs[0] * o.coeffs[0]) % spec.p,))
        prod = _int_poly_mul(self.coeffs, o.coeffs, spec.p)
        red = _int_poly_mod(prod, list(spec.modulus), spec.p)
        return spec.element(tuple(red) + (0,) * (spec.l - len(red)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def inverse(self) -> "FieldElement":
        """Multiplicative inverse; raises DivisionByZero on 0."""
        spec = self.spec
        if not self:
            raise DivisionByZero("zero has no multiplicative inverse")
        if spec.l == 1:
            return spec.element((pow(self.coeffs[0], spec.p - 2, spec.p),))
        # Extended Euclid over F_p[x] against the modulus.
        p = spec.p
        r0, r1 = list(spec.modulus), _trim(list(self.coeffs))
        t0, t1 = [], [1]
        while r1:
            q, r = _int_poly_divmod(r0, r1, p)
            r0, r1 = r1, r
            t0, t1 = t1, _int_poly_sub(t0, _int_poly_mul(q, t1, p), p)
        # r0 is a nonzero constant gcd; scale t0 by its inverse.
        c = pow(r0[0], p - 2, p)
        inv = [(c * x) % p for x in t0]
        return spec.element(tuple(inv) + (0,) * (spec.l - len(inv)))

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        out = self.spec.one
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __bool__(self):
        return any(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return self.spec == other.spec and self.coeffs == other.coeffs
        if isinstance(other, int):
            return self.coeffs == self.spec.from_int(other).coeffs
        return NotImplemented

    def __lt__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.coeffs < o.coeffs

    def __hash__(self):
        return hash((self.spec.p, self.spec.modulus, self.coeffs))

    def __str__(self):
        return format_element(self)

    def __repr__(self):
        return f"FieldElement({self} in {self.spec})"


def _int_poly_sub(u: list[int], v: list[int], p: int) -> list[int]:
    n = max(len(u), len(v))
    out = [0] * n
    for i in range(n):
        a = u[i] if i < len(u) else 0
        b = v[i] if i < len(v) else 0
        out[i] = (a - b) % p
    return _trim(out)


def _int_poly_divmod(u: list[int], v: list[int], p: int):
    q = [0] * max(len(u) - len(v) + 1, 0)
    r = list(u)
    inv_lead = pow(v[-1], p - 2, p)
    while r and len(r) >= len(v):
        shift = len(r) - len(v)
        factor = (r[-1] * inv_lead) % p
        q[shift] = factor
        for i, c in enumerate(v):
            r[shift + i] = (r[shift + i] - factor * c) % p
        _trim(r)
    return _trim(q), r


class FieldSpec:
    """The finite field F_q, q = p^l, with a fixed modulus polynomial.

    Instances are immutable; two specs compare equal iff they have the same
    characteristic, degree and modulus.  Elements are produced through
    :meth:`element` / :meth:`from_int` and are interned.
    """

    __slots__ = ("p", "l", "q", "modulus", "_interned", "_all", "zero", "one")

    def __init__(self, p: int, l: int, modulus: tuple[int, ...]):
        self.p = p
        self.l = l
        self.q = p**l
        self.modulus = modulus
        self._interned: dict[tuple[int, ...], FieldElement] = {}
        self._all: Optional[tuple[FieldElement, ...]] = None
        self.zero = self.element((0,) * l)
        self.one = self.element((1,) + (0,) * (l - 1))

    def element(self, coeffs: tuple[int, ...]) -> FieldElement:
        cached = self._interned.get(coeffs)
        if cached is None:
            cached = FieldElement(self, coeffs)
            self._interned[coeffs] = cached
        return cached

    def from_int(self, c: int) -> FieldElement:
        """Embed an integer as a constant of the prime subfield."""
        return self.element((c % self.p,) + (0,) * (self.l - 1))

    def elements(self) -> tuple[FieldElement, ...]:
        """All q elements, in lexicographic coefficient-vector order."""
        if self._all is None:
            self._all = tuple(
                self.element(c) for c in itertools.product(range(self.p), repeat=self.l)
            )
        return self._all

    def nonzero_elements(self) -> tuple[FieldElement, ...]:
        return tuple(e for e in self.elements() if e)

    def parse(self, text: str) -> FieldElement:
        return parse_element(self, text)

    def __eq__(self, other):
        if isinstance(other, FieldSpec):
            return (self.p, self.l, self.modulus) == (other.p, other.l, other.modulus)
        return NotImplemented

    def __hash__(self):
        return hash((self.p, self.l, self.modulus))

    def __repr__(self):
        if self.l == 1:
            return f"GF({self.p})"
        return f"GF({self.q})[{_format_int_poly(self.modulus, 'a')}]"


def make_field(p: int, l: int = 1, modulus: Optional[Iterable[int]] = None) -> FieldSpec:
    """Construct F_{p^l}.

    When ``modulus`` is omitted the lexicographically smallest monic
    irreducible of degree l over F_p is selected by exhaustive scan
    (coefficient vectors compared lowest degree first), so repeated calls
    are deterministic.  A supplied modulus must be monic of degree l with
    coefficients in [0, p), given lowest degree first.
    """
    if p < 2:
        raise NotPrime(f"{p} is not prime")
    if l < 1:
        raise OutOfRange("extension degree must be at least 1")
    # sizes are compared before p**l or the primality test can take long
    if p > MAX_FIELD_SIZE or l > MAX_FIELD_SIZE.bit_length() or p**l > MAX_FIELD_SIZE:
        raise SearchSpaceTooLarge(f"field size {p}^{l} exceeds supported maximum {MAX_FIELD_SIZE}")
    if not _is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if modulus is not None:
        mod = tuple(int(c) for c in modulus)
        if len(mod) != l + 1 or mod[-1] != 1:
            raise DegreeMismatch(
                f"modulus must be monic of degree {l}, got {list(mod)}"
            )
        if any(not 0 <= c < p for c in mod):
            raise OutOfRange("modulus coefficients must lie in [0, p)")
        if not _modulus_is_irreducible(mod, p):
            raise ReducibleModulus(f"{_format_int_poly(mod, 'a')} factors over GF({p})")
        return FieldSpec(p, l, mod)
    if l == 1:
        return FieldSpec(p, 1, (0, 1))
    for tail in itertools.product(range(p), repeat=l):
        mod = tail + (1,)
        if _modulus_is_irreducible(mod, p):
            return FieldSpec(p, l, mod)
    raise AssertionError("no irreducible modulus found")  # cannot happen


def sqrt_of_minus_one(spec: FieldSpec) -> Optional[FieldElement]:
    """First element b (in enumeration order) with b^2 = -1, else None.

    A solution exists exactly when p = 2, p = 1 mod 4, or l is even.
    """
    minus_one = spec.from_int(-1)
    for b in spec.elements():
        if b * b == minus_one:
            return b
    return None


# ---------------------------------------------------------------------------
# Text syntax.

_APOW_TERM = re.compile(r"^(?:(\d+)\*)?a(?:\^(\d+))?$")


def _format_int_poly(coeffs: Iterable[int], var: str) -> str:
    terms = []
    cs = list(coeffs)
    for exp in range(len(cs) - 1, -1, -1):
        c = cs[exp]
        if c == 0:
            continue
        if exp == 0:
            terms.append(str(c))
        else:
            v = var if exp == 1 else f"{var}^{exp}"
            terms.append(v if c == 1 else f"{c}*{v}")
    return "+".join(terms) if terms else "0"


def parse_int_poly(text: str, var: str, p: int) -> tuple[int, ...]:
    """Parse an integer-coefficient polynomial in ``var`` over F_p.

    Returns the dense coefficient tuple, lowest degree first, reduced mod p
    but not trimmed of leading zeros the caller did not write.
    """
    s = "".join(text.split())
    if not s:
        raise ParseError("empty polynomial text")
    pattern = re.compile(rf"^(?:(\d+)\*)?{re.escape(var)}(?:\^(\d+))?$")
    coeffs: dict[int, int] = {}
    for term in s.split("+"):
        if not term:
            raise ParseError(f"empty term in {text!r}")
        m = pattern.match(term)
        if m:
            c = int(m.group(1)) if m.group(1) else 1
            e = int(m.group(2)) if m.group(2) else 1
        elif term.isdigit():
            c, e = int(term), 0
        else:
            raise ParseError(f"cannot parse term {term!r} in {text!r}")
        coeffs[e] = (coeffs.get(e, 0) + c) % p
    deg = max(coeffs)
    return tuple(coeffs.get(i, 0) for i in range(deg + 1))


def parse_element(spec: FieldSpec, text: str) -> FieldElement:
    """Parse field-element text ("3" over GF(5), "a^2+2*a" over GF(9))."""
    s = "".join(text.split())
    if s.startswith("(") and s.endswith(")"):
        s = s[1:-1]
    if not s:
        raise ParseError("empty field element text")
    if spec.l == 1:
        if not s.isdigit():
            raise ParseError(f"{text!r} is not a valid GF({spec.p}) element")
        return spec.from_int(int(s))
    if "a" not in s and not s.isdigit():
        raise ParseError(f"{text!r} is not a valid {spec} element")
    raw = parse_int_poly(s, "a", spec.p)
    red = _int_poly_mod(raw, list(spec.modulus), spec.p)
    return spec.element(tuple(red) + (0,) * (spec.l - len(red)))


def format_element(e: FieldElement) -> str:
    if e.spec.l == 1:
        return str(e.coeffs[0])
    return _format_int_poly(e.coeffs, "a")


def parse_field_selector(text: str, modulus_text: Optional[str] = None) -> FieldSpec:
    """Build a field from selector text: "2", "4" or "3^2".

    A bare integer is factored as a prime power; "p^l" is explicit.  An
    optional modulus is parsed as a polynomial in ``a`` over F_p.
    """
    s = text.strip()
    if "^" in s:
        base, _, exp = s.partition("^")
        try:
            p, l = int(base), int(exp)
        except ValueError as exc:
            raise ParseError(f"bad field selector {text!r}") from exc
    else:
        try:
            q = int(s)
        except ValueError as exc:
            raise ParseError(f"bad field selector {text!r}") from exc
        if q < 2:
            raise ParseError(f"bad field selector {text!r}")
        if q > MAX_FIELD_SIZE:
            raise SearchSpaceTooLarge(f"field size {q} exceeds supported maximum {MAX_FIELD_SIZE}")
        p = 2
        while p * p <= q and q % p:
            p += 1
        if q % p:
            p = q  # q itself is prime
        l = 0
        rest = q
        while rest % p == 0 and rest > 1:
            rest //= p
            l += 1
        if rest != 1:
            raise ParseError(f"{q} is not a prime power")
    modulus = None
    if modulus_text is not None:
        mod = parse_int_poly(modulus_text, "a", p)
        # parse reduces mod p; keep as written for degree validation
        modulus = mod
    return make_field(p, l, modulus)
