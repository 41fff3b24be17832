"""Exact arithmetic in small finite fields F_q with q = p^l.

An element is a polynomial of degree < l over F_p, taken modulo a fixed
monic irreducible modulus of degree l.  For l = 1 the modulus is x and
arithmetic is plain arithmetic mod p.

Representation.  A field builds all q elements when it is constructed, as
interned :class:`FieldElement` objects that are immutable and can be shared
freely between threads.  Each element keeps its coefficient vector
(``coeffs``, lowest degree first) and an int ``code``: its index in
:meth:`FieldSpec.elements`, which lists the vectors in lexicographic order,
so the base-p digits of the code, most significant first, are the
coefficients.  Fields are interned too (:func:`make_field`), so two fields,
or two elements, are equal exactly when they are the same object.  An
element's canonical text lives in its field's text table, indexed by code
like the elements, and its inverse, a dict from the text to the code, makes
reading canonical text one lookup; the parser reads any other text straight
to a code.  The inverse costs one dict entry per element: on 64-bit CPython
3.11 a built GF(2^16) holds 34.6 MiB with it and 30.8 MiB without.

Packed words.  A vector of codes packs into one int, a word of
:class:`_Words`, so that whole vectors add in a few int operations: the
field tables and the d_free trellis of ``codes`` run on them.  Entry e of
a word takes the bits [e*b, (e+1)*b), b = l*s: l slots of
s = bit_length(p - 1) + 1 bits, and slot i holds base-p digit i of the
entry's code, lowest first.  Every digit is below p <= H = 2^(s-1), so
the top bit of every slot is 0.  Two words add entrywise, digits mod p,
with one int sum and a fix-up: a slot sum v is at most 2p - 2 < H + p, so
adding H - p to it sets the top bit of its slot iff v >= p and carries
into no other slot, and p is taken from the slots whose top bit that sets.
The field keeps the word of every code, its digit table, which is 2.5 MiB
of a built GF(2^16).

Arithmetic is list indexing into tables the field builds once, in O(q*l)
steps, from the powers of a primitive element g.  The tables hold codes, so
the polynomial arithmetic runs on them directly, and an element operator
looks its result code up in :meth:`FieldSpec.elements`:

* log: code -> i with g^i equal to the element (nonzero codes only);
* antilog: i -> code of g^i for i < 2(q-1), so a sum of two logs needs no
  reduction;
* Zech log: k -> log(1 + g^k), or None when 1 + g^k = 0, which turns a sum
  into g^i + g^j = g^(i + Z(j - i));
* negation: code -> the code of the element's negative;
* text: code -> canonical text, and its inverse, text -> code (q entries
  each; see Representation).

:func:`make_field` interns each field while it is referenced and keeps the
fields it used most recently (an LRU cache), so each field is built once.
An LRU miss looks the request up among the interned fields before it
factors p or scans for the default modulus.

Element text syntax: prime fields use plain decimals ("3"); extension
fields use the letter ``a`` for the residue class of x ("a+1", "a^2+2*a").
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import threading
import weakref
from typing import Iterable, Iterator, Optional, Sequence

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

# Enumeration scans and the arithmetic tables keep fields deliberately small.
MAX_FIELD_SIZE = 1 << 16
# Largest exponent the text parsers accept, compared before anything is
# sized by it; canonical forms of entries of this degree already take seconds.
MAX_EXPONENT = 1 << 10
# Longest decimal coefficient the text parsers accept: the int() default.
MAX_COEFFICIENT_DIGITS = 4300
# check_search_size refuses a search over more candidates than this: the
# messages of free_distance, the polynomials and pairs classify enumerates,
# and, before any is built, the d_free messages of the double-diagonal codes.
# A matrix with more rows, columns or entries than this is refused too.
MAX_CANDIDATES = 1 << 22
# make_field keeps this many of the fields it used most recently, and every
# field still referenced, by (p, l, modulus) and by each request that found
# it, such as (p, l, None).  _FIELDS_LOCK guards the two dicts only: a field
# is built under a lock of its own key (_BUILDING), so that one build holds
# up only the threads that ask for the same field.
_KEPT_FIELDS = 8
_FIELDS: "weakref.WeakValueDictionary[tuple, FieldSpec]" = weakref.WeakValueDictionary()
_BUILDING: "dict[tuple, threading.Lock]" = {}
_FIELDS_LOCK = threading.Lock()


def _prime_factors(n: int) -> list[int]:
    out, r = [], 2
    while r * r <= n:
        if n % r == 0:
            out.append(r)
            while n % r == 0:
                n //= r
        r += 1
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# Integer-coefficient polynomial helpers (dense, lowest degree first), used
# to choose and check a modulus, to parse element text and to build the
# arithmetic tables.

def _trim(v: list[int]) -> list[int]:
    while v and v[-1] == 0:
        v.pop()
    return v


def _int_poly_mod(u: Iterable[int], v: Sequence[int], p: int) -> list[int]:
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


def _times_x(v: list[int], modulus: tuple[int, ...], p: int) -> list[int]:
    """x * v modulo the monic modulus, for a length-l vector v."""
    top = v[-1]
    shifted = [0] + v[:-1]
    if not top:
        return shifted
    return [(a - top * m) % p for a, m in zip(shifted, modulus)]


def _times(v: list[int], g: list[int], modulus: tuple[int, ...], p: int) -> list[int]:
    """v * g modulo the modulus, in O(l * len(g)) steps."""
    out = [0] * len(v)
    for c in g:
        if c:
            out = [(o + c * a) % p for o, a in zip(out, v)]
        v = _times_x(v, modulus, p)
    return out


def _primitive_element(p: int, l: int, modulus: tuple[int, ...]) -> list[int]:
    """The first generator of F_q^* in order of degree: g is primitive iff
    g^((q-1)/r) != 1 for every prime r dividing q - 1."""
    n = p**l - 1
    one = [1] + [0] * (l - 1)
    for digits in itertools.product(range(p), repeat=l):
        g = _trim(list(reversed(digits)))
        if not g:
            continue
        for r in _prime_factors(n):
            power, base, e = one, g + [0] * (l - len(g)), n // r
            while e:
                if e & 1:
                    power = _times(power, base, modulus, p)
                base = _times(base, base, modulus, p)
                e >>= 1
            if power == one:
                break
        else:
            return g
    raise AssertionError("F_q^* is cyclic")  # cannot happen for an irreducible modulus


def _fold(digits: Iterable[int], p: int) -> int:
    """The number with these base-p digits, most significant first: the
    code of a coefficient vector, lowest degree first."""
    code = 0
    for c in digits:
        code = code * p + c
    return code


def _slot_bits(p: int) -> int:
    """The width s of one slot of a packed word (see Packed words)."""
    return (p - 1).bit_length() + 1


def _digit_table(p: int, l: int) -> tuple[int, ...]:
    """The packed word of every code of F_{p^l}, by code, one digit per slot."""
    s, table = _slot_bits(p), [0]
    for j in range(l):  # table holds the words of the codes < p^j
        table = [d << s * j | w for d in range(p) for w in table]
    return tuple(table)


class _Words:
    """Vectors of ``width`` codes of F_{p^l} packed in one int each (see
    Packed words), with the field's digit table ``spread``."""

    __slots__ = ("p", "top", "bits", "low", "bias", "spread")

    def __init__(self, p: int, l: int, width: int, spread: Sequence[int]):
        s = _slot_bits(p)
        self.p, self.top, self.bits, self.spread = p, s - 1, l * s, spread
        self.low = ((1 << width * self.bits) - 1) // ((1 << s) - 1)  # bit 0 of every slot
        self.bias = ((1 << s - 1) - p) * self.low  # H - p in every slot

    def pack(self, codes: Sequence[int]) -> int:
        """The word of a code list of at most ``width`` entries."""
        word, b, spread = 0, self.bits, self.spread
        for c in reversed(codes):
            word = word << b | spread[c]
        return word

    def span(self, units: Sequence[int], out: Sequence[int] = (0,)) -> list[int]:
        """The F_p span of the unit words added to each word of ``out``, in
        code order: the word at index i + len(out) * sum(d_t * p^t) is
        out[i] + sum(d_t * units[t]), in one addition per word."""
        add, out = self.add, list(out)
        for u in units:
            block = out
            for _ in range(self.p - 1):
                block = [add(w, u) for w in block]
                out += block
        return out

    def add(self, x: int, y: int) -> int:
        """The entrywise sum, digits mod p (see Packed words)."""
        v = x + y
        return v - ((v + self.bias) >> self.top & self.low) * self.p

    def counter(self, entries: int):
        """The function counting the nonzero entries among the first
        ``entries`` of a word.  An entry is below 2^(b-1), as its top digit
        is below H, so adding 2^(b-1) - 1 sets its top bit iff it is
        nonzero, with no carry out."""
        b = self.bits
        ones = ((1 << entries * b) - 1) // ((1 << b) - 1)  # bit 0 of every entry
        fill, tops = ((1 << b - 1) - 1) * ones, (1 << b - 1) * ones
        return lambda x: ((x + fill) & tops).bit_count()


def _power_codes(p: int, l: int, modulus: tuple[int, ...], spread: Sequence[int]) -> list[int]:
    """Codes of g^0 .. g^(q-2) for the primitive element g, in O(q) word
    additions and dict lookups once g is found.

    Multiplying by g is F_p-linear, so the words of g times every code are
    the span of the words of g times the codes p^j, which are the elements
    a^(l-1-j); the walk reads each next code back from its word.
    """
    g = _primitive_element(p, l, modulus)
    units, v = [], g + [0] * (l - len(g))
    for _ in range(l):  # g * a^i, the image of the code p^(l-1-i)
        units.append(spread[_fold(v, p)])
        v = _times_x(v, modulus, p)
    times_g = _Words(p, l, 1, spread).span(units[::-1])
    code_of = {w: c for c, w in enumerate(spread)}
    codes = []
    code = p ** (l - 1)  # the code of 1
    for _ in range(p**l - 1):
        codes.append(code)
        code = code_of[times_g[code]]
    return codes


class FieldElement:
    """An element of a fixed FieldSpec: its coefficient vector and its code,
    the index of the element in ``spec.elements()``."""

    __slots__ = ("spec", "coeffs", "code")

    def __init__(self, spec: "FieldSpec", coeffs: tuple[int, ...], code: int):
        self.spec = spec
        self.coeffs = coeffs
        self.code = code

    def _coerce(self, other):
        """The lift into F_q: ``other`` as an element of this field.  An
        element of this field is kept and an int maps to ``from_int``; an
        element of another field raises FieldMismatch, and any other value
        gives None.  The lift into F_q[z], ``polys._lift``, is built on it."""
        if isinstance(other, FieldElement):
            if other.spec is self.spec:
                return other
            raise FieldMismatch(
                f"elements of {self.spec} and {other.spec} cannot be combined"
            )
        if isinstance(other, int):
            return self.spec.from_int(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        spec = self.spec
        a, b = self.code, other.code
        if not b:
            return self
        if not a:
            return other
        log = spec._log
        i = log[a]
        # the Zech table is periodic with period q - 1, so a negative
        # difference of logs indexes it directly
        z = spec._zech[log[b] - i]
        return spec.zero if z is None else spec._els[spec._exp[i + z]]

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + -o

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return self.spec._els[self.spec._neg[self.code]]

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        spec = self.spec
        a, b = self.code, other.code
        if not (a and b):
            return spec.zero
        log = spec._log
        return spec._els[spec._exp[log[a] + log[b]]]

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def inverse(self) -> "FieldElement":
        """Multiplicative inverse; raises DivisionByZero on 0."""
        spec = self.spec
        if not self.code:
            raise DivisionByZero("zero has no multiplicative inverse")
        return spec._els[spec._exp[spec.q - 1 - spec._log[self.code]]]

    def __pow__(self, n: int):
        spec, n = self.spec, _as_int("exponent", n)
        if not self.code:
            if n < 0:
                raise DivisionByZero("zero has no multiplicative inverse")
            return spec.one if n == 0 else self
        return spec._els[spec._exp[spec._log[self.code] * n % (spec.q - 1)]]

    def __bool__(self):
        return self.code != 0

    def __eq__(self, other):
        # Elements are interned, so equality is identity.  No hash agrees
        # with equality mod p, so F.one and 1 are different values.
        return self is other if other.__class__ is FieldElement else NotImplemented

    __hash__ = object.__hash__

    def __reduce__(self):
        return self.spec.element, (self.coeffs,)

    def __str__(self):
        return format_element(self)

    def __repr__(self):
        return f"FieldElement({self} in {self.spec})"


class FieldSpec:
    """The finite field F_q, q = p^l, with a fixed modulus polynomial.

    ``FieldSpec(p, l, modulus)`` is ``make_field(p, l, modulus)``, and copy,
    deepcopy and pickle return the field itself: fields compare by identity.
    Instances are immutable; ``_build`` builds the elements and the tables
    once per field, and :meth:`element` and :meth:`from_int` look them up.
    """

    __slots__ = (
        "p", "l", "q", "modulus", "zero", "one", "__weakref__",
        "_els", "_text", "_code", "_spread", "_log", "_exp", "_zech", "_neg", "_log_minus_one",
    )

    def __new__(cls, p: int, l: int = 1, modulus: Optional[Iterable[int]] = None):
        return make_field(p, l, modulus)

    def __reduce__(self):
        return make_field, (self.p, self.l, self.modulus)

    def _build(self, p: int, l: int, modulus: tuple[int, ...]) -> "FieldSpec":
        self.p = p
        self.l = l
        self.q = q = p**l
        self.modulus = modulus
        els = tuple(
            FieldElement(self, coeffs, code)
            for code, coeffs in enumerate(itertools.product(range(p), repeat=l))
        )
        self._els = els
        self._text = _element_texts(p, l)
        self._code = dict(zip(self._text, range(q)))
        self.zero = els[0]
        unit = p ** (l - 1)  # the code of 1
        self.one = els[unit]
        self._spread = _digit_table(p, l)
        power_codes = _power_codes(p, l, modulus, self._spread)
        log: list[Optional[int]] = [None] * q
        for i, c in enumerate(power_codes):
            log[c] = i
        self._log = log
        self._exp = power_codes * 2
        # adding 1 raises the leading base-p digit of a code by 1 mod p
        top = unit * (p - 1)
        self._zech = [log[c + unit if c < top else c - top] for c in power_codes] * 2
        h = self._log_minus_one = log[top]
        self._neg = (0,) + tuple(self._exp[log[c] + h] for c in range(1, q))
        return self

    def element(self, coeffs: tuple[int, ...]) -> FieldElement:
        """The element with this coefficient vector, lowest degree first."""
        try:
            coeffs = tuple(_as_int("coefficient", c) for c in coeffs)
        except TypeError:
            raise OutOfRange(f"coefficients must be an iterable of ints, got {coeffs!r}") from None
        if len(coeffs) != self.l or not all(0 <= c < self.p for c in coeffs):
            raise OutOfRange(f"{coeffs} is not a coefficient vector of {self}")
        return self._els[_fold(coeffs, self.p)]

    def from_int(self, c: int) -> FieldElement:
        """Embed an integer as a constant of the prime subfield."""
        return self._els[(_as_int("c", c) % self.p) * self.one.code]

    def elements(self) -> tuple[FieldElement, ...]:
        """All q elements, in lexicographic coefficient-vector order."""
        return self._els

    def __repr__(self):
        if self.l == 1:
            return f"GF({self.p})"
        return f"GF({self.q})[{_format_terms(self.modulus, [*map(str, range(self.p))], 'a')}]"


def make_field(p: int, l: int = 1, modulus: Optional[Iterable[int]] = None) -> FieldSpec:
    """Construct F_{p^l}.

    When ``modulus`` is omitted the lexicographically smallest monic
    irreducible of degree l over F_p is selected by exhaustive scan
    (coefficient vectors compared lowest degree first), so repeated calls
    are deterministic.  A supplied modulus must be monic of degree l with
    coefficients in [0, p), given lowest degree first; every x + c gives
    the one GF(p).  A field is one object: a repeated call, with or without
    the default modulus, returns it.  A p, l or modulus coefficient that is
    not an int, or a modulus that is not iterable, is refused with
    OutOfRange before anything is built.
    """
    p, l = _as_int("p", p), _as_int("l", l)
    if modulus is not None:
        try:
            coeffs = tuple(modulus)
        except TypeError:
            raise OutOfRange(f"modulus must be an iterable of ints, got {modulus!r}") from None
        modulus = tuple(_as_int("modulus coefficient", c) for c in coeffs)
    if p < 2:
        raise NotPrime(f"{p} is not prime")
    if l < 1:
        raise OutOfRange("extension degree must be at least 1")
    # sizes are compared before p**l or the primality test can take long
    if p > MAX_FIELD_SIZE or l > MAX_FIELD_SIZE.bit_length() or p**l > MAX_FIELD_SIZE:
        raise SearchSpaceTooLarge(f"field size {p}^{l} exceeds supported maximum {MAX_FIELD_SIZE}")
    return _build_field(p, l, modulus)


def check_search_size(base: int, exp: int) -> None:
    """Refuses a search over base^exp candidates above MAX_CANDIDATES,
    without computing a power far above the cap."""
    if base > 1 and (exp >= MAX_CANDIDATES.bit_length() or base**exp > MAX_CANDIDATES):
        raise SearchSpaceTooLarge(f"{base}^{exp} candidates exceed the cap of {MAX_CANDIDATES}")


def _as_int(what: str, v) -> int:
    """``v`` as an int (anything with ``__index__``), else OutOfRange."""
    try:
        return operator.index(v)
    except TypeError:
        raise OutOfRange(f"{what} must be an int, got {v!r}") from None


def _as_field(spec) -> FieldSpec:
    """``spec`` if it is a field, else FieldMismatch."""
    if spec.__class__ is not FieldSpec:
        raise FieldMismatch(f"{spec!r} is not a field")
    return spec


def _as_text(text) -> str:
    """``text`` if it is a str, else ParseError."""
    if not isinstance(text, str):
        raise ParseError(f"{text!r} is not text")
    return text


@functools.lru_cache(maxsize=_KEPT_FIELDS)
def _build_field(p: int, l: int, modulus: Optional[tuple[int, ...]]) -> FieldSpec:
    request = (p, l, modulus)
    with _FIELDS_LOCK:
        spec = _FIELDS.get(request)  # still interned: p and the modulus were checked
    if spec is not None:
        return spec
    if _prime_factors(p) != [p]:
        raise NotPrime(f"{p} is not prime")
    key = (p, l, _choose_modulus(p, l, modulus))
    with _FIELDS_LOCK:
        building = _BUILDING.setdefault(key, threading.Lock())
    with building:  # one build of this field at a time, beside those of others
        with _FIELDS_LOCK:
            spec = _FIELDS.get(key)
        if spec is None:
            spec = object.__new__(FieldSpec)._build(*key)
        with _FIELDS_LOCK:
            spec = _FIELDS.setdefault(key, spec)  # the first object inserted wins
            _FIELDS.setdefault(request, spec)
            _BUILDING.pop(key, None)
    return spec


def _choose_modulus(p: int, l: int, mod: Optional[tuple[int, ...]]) -> tuple[int, ...]:
    """The supplied modulus once it is checked, else the default one."""
    if mod is not None:
        if len(mod) != l + 1 or mod[-1] != 1:
            raise DegreeMismatch(
                f"modulus must be monic of degree {l}, got {list(mod)}"
            )
        if any(not 0 <= c < p for c in mod):
            raise OutOfRange("modulus coefficients must lie in [0, p)")
        if not _modulus_is_irreducible(mod, p):
            raise ReducibleModulus(f"{_format_terms(mod, [*map(str, range(p))], 'a')} factors over GF({p})")
        return mod if l > 1 else (0, 1)  # every x + c gives the one GF(p)
    if l == 1:
        return (0, 1)
    # a zero constant term makes x a factor, so the scan starts at 1
    for tail in itertools.product(range(1, p), *[range(p)] * (l - 1)):
        mod = tail + (1,)
        if _modulus_is_irreducible(mod, p):
            return mod
    raise AssertionError("no irreducible modulus found")  # cannot happen


def sqrt_of_minus_one(spec: FieldSpec) -> Optional[FieldElement]:
    """First element b (in enumeration order) with b^2 = -1, else None.

    A solution exists exactly when p = 2, p = 1 mod 4, or l is even.
    """
    minus_one = _as_field(spec).from_int(-1)
    for b in spec.elements():
        if b * b == minus_one:
            return b
    return None


# ---------------------------------------------------------------------------
# Text syntax.

def _split_terms(s: str) -> list[str]:
    """``s`` split at the '+' signs outside parentheses."""
    terms, depth, start = [], 0, 0
    for i, ch in enumerate(s):
        depth += (ch == "(") - (ch == ")")
        if depth < 0:
            break
        if ch == "+" and not depth:
            terms.append(s[start:i])
            start = i + 1
    if depth:
        raise ParseError(f"unbalanced parentheses in {s!r}")
    terms.append(s[start:])
    return terms


def _is_wrapped(s: str) -> bool:
    """True when s is "(...)" and its first '(' closes at its last character."""
    if s[:1] != "(":
        return False
    depth = 0
    for i, ch in enumerate(s):
        depth += (ch == "(") - (ch == ")")
        if not depth:
            return i == len(s) - 1
    return False


def _parse_terms(text: str, var: str) -> Iterator[tuple[Optional[str], int]]:
    """The terms of text in the package's one polynomial grammar, which
    writes field elements and moduli in ``a`` and entries of F_q[z] in
    ``z``.  Whitespace is ignored, and a '+' inside parentheses does not
    split terms, so "(a+1)*z" is one term:

        poly  := term ('+' term)*
        term  := coeff | coeff '*' power | power | '(' term ')'
        power := var | var '^' digits

    Yields each term's coefficient text (None for a bare power) and its
    exponent (0 without the one-letter ``var``), up to MAX_EXPONENT.
    The caller reads the coefficients and adds those of a repeated power.
    """
    s = "".join(text.split())
    if not s:
        raise ParseError("empty polynomial text")
    caret = var + "^"
    for term in _split_terms(s) if "(" in s or ")" in s else s.split("+"):
        if term[:1] == "(" and _is_wrapped(term):  # one pair only: the parse stays linear
            term = term[1:-1]
        if not term:
            raise ParseError(f"empty term in {text!r}")
        coeff, star, power = term.rpartition("*")
        if star and not coeff:
            yield term, 0
        elif power == var:
            yield coeff or None, 1
        elif power[:2] == caret and power[2:].isdecimal():
            yield coeff or None, _parse_exponent(power[2:])
        else:
            yield term, 0


def _format_terms(codes: Sequence[int], text: Sequence[str], var: str) -> str:
    """Text of the polynomial whose coefficients, lowest degree first, have
    these codes, written ``text[code]``, in one loop from the highest power:
    the code 0 writes no term, a coefficient written "1" writes the bare
    power, and one that contains '+' is parenthesized; "0" when no term is
    written."""
    terms = []
    for exp in range(len(codes) - 1, -1, -1):
        c = codes[exp]
        if not c:
            continue
        t = text[c]
        if exp:
            power = var if exp == 1 else f"{var}^{exp}"
            t = power if t == "1" else f"({t})*{power}" if "+" in t else f"{t}*{power}"
        terms.append(t)
    return "+".join(terms) or "0"


def _element_texts(p: int, l: int) -> tuple[str, ...]:
    """The text of every element of F_{p^l} in ``a``, indexed by its code,
    in O(q) concatenations.  The table is grown one code digit at a time,
    from the least significant, which is the coefficient of a^(l-1) and so
    the term written first."""
    texts, digits = [""], [*map(str, range(p))]
    for exp in reversed(range(l)):
        terms = [""] + [_format_terms([0] * exp + [d], digits, "a") for d in range(1, p)]
        texts = [s + "+" + t if s and t else s or t for t in terms for s in texts]
    texts[0] = "0"
    return tuple(texts)


def _parse_exponent(digits: str) -> int:
    """A decimal exponent, read as a coefficient (leading zeros in any
    decimal script do not count) and refused above MAX_EXPONENT."""
    value = _parse_coefficient(digits)
    if value > MAX_EXPONENT:
        raise SearchSpaceTooLarge(f"exponent exceeds the cap of {MAX_EXPONENT}")
    return value


def _parse_coefficient(digits: str) -> int:
    """A decimal coefficient, refused above MAX_COEFFICIENT_DIGITS digits."""
    if len(digits) > MAX_COEFFICIENT_DIGITS:
        raise SearchSpaceTooLarge(f"coefficient exceeds {MAX_COEFFICIENT_DIGITS} digits")
    return int(digits)


def parse_int_poly(text: str, p: int) -> list[int]:
    """Parse an integer-coefficient polynomial in ``a`` over F_p.

    Returns the dense coefficient list, lowest degree first, reduced mod p
    but not trimmed of leading zeros the caller did not write.
    """
    coeffs: list[int] = []
    for c, e in _parse_terms(text, "a"):
        if c is None:
            n = 1
        else:
            digits = c.strip("()")  # balanced: strips pairs only
            if not digits.isdecimal():
                raise ParseError(f"cannot parse coefficient {c!r} in {text!r}")
            n = _parse_coefficient(digits)
        if e >= len(coeffs):
            coeffs += [0] * (e + 1 - len(coeffs))
        coeffs[e] = (coeffs[e] + n) % p
    return coeffs


def _element_code(spec: FieldSpec, s: str, text: str) -> int:
    """The code of the element written ``s``, which has no whitespace; the
    errors quote ``text``.  Canonical text, bare or in one pair of
    parentheses, is a lookup in the field's inverse text table; the grammar
    reads the rest.  There a decimal is a constant of the prime subfield,
    and a polynomial in ``a`` is read to a digit vector mod p, which is
    reduced by the modulus only when it has a power a^l or higher."""
    if s[:1] == "(" and _is_wrapped(s):  # canonical text never starts with '('
        s = s[1:-1]
    code = spec._code.get(s)
    if code is not None:
        return code
    if not s:
        raise ParseError("empty field element text")
    p, l = spec.p, spec.l
    if s.isdecimal():
        return spec.from_int(_parse_coefficient(s)).code
    if l == 1 or "a" not in s:
        raise ParseError(f"{text!r} is not a valid {spec} element")
    digits = parse_int_poly(s, p)
    if len(digits) > l:
        digits = _int_poly_mod(digits, spec.modulus, p)
    return _fold(digits, p) * p ** (l - len(digits))


def parse_element(spec: FieldSpec, text: str) -> FieldElement:
    """Parse field-element text ("3" over GF(5), "a^2+2*a" over GF(9))."""
    spec = _as_field(spec)
    return spec._els[_element_code(spec, "".join(_as_text(text).split()), text)]


def format_element(e: FieldElement) -> str:
    return e.spec._text[e.code]


def parse_field_selector(text: str, modulus_text: Optional[str] = None) -> FieldSpec:
    """Build a field from selector text: "2", "4" or "3^2".

    A bare integer is factored as a prime power; "p^l" is explicit.  An
    optional modulus is parsed as a polynomial in ``a`` over F_p.
    """
    base, caret, exp = _as_text(text).strip().partition("^")
    try:
        p, l = int(base), int(exp) if caret else 0
    except ValueError as exc:
        raise ParseError(f"bad field selector {text!r}") from exc
    if not caret:
        q = p
        if q < 2:
            raise ParseError(f"bad field selector {text!r}")
        if q > MAX_FIELD_SIZE:
            raise SearchSpaceTooLarge(f"field size {q} exceeds supported maximum {MAX_FIELD_SIZE}")
        p, *others = _prime_factors(q)
        if others:
            raise ParseError(f"{q} is not a prime power")
        l = round(math.log(q, p))
    if p < 2:  # refused before a modulus is read mod p
        raise NotPrime(f"{p} is not prime")
    # the parsed modulus keeps the length as written for the degree check
    modulus = None if modulus_text is None else parse_int_poly(_as_text(modulus_text), p)
    return make_field(p, l, modulus)
