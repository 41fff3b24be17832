"""The benchmark's workloads: inputs made from a seed, one op, output checks.

Each workload is built from a freshly imported ``sdconv`` package (see
:func:`import_sdconv`) and a seed, and offers three calls:

* ``ops()`` returns the inputs of one pass.  It runs outside the timed
  region, once before every pass.
* ``run(op)`` performs one op and returns its output.  This is the only
  code inside the timed region; it never raises.
* ``check(op, output)`` classifies an output as ``OK``, ``FAILED`` (the op
  did not deliver a result: an unexpected exit code or an exception) or
  ``WRONG`` (it delivered a result that is not correct).  Checks run
  outside the timed region.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import itertools
import json
import random
import sys
from pathlib import Path

OK, FAILED, WRONG = "ok", "failed", "wrong"

# The paper's binary (4,2) catalog up to parameter degree 1, requested once
# per cli-mixed stream; its output must match the recorded one byte for byte.
FOUR_TWO_ARGV = ["classify", "four-two", "--max-deg", "1", "--format", "json"]
FOUR_TWO_EXPECTED = Path(__file__).resolve().parent / "expected" / "catalog_four_two_max_deg_1.json"


def import_sdconv():
    """Import ``sdconv`` afresh, so each set-up pays what a new process pays."""
    for name in [m for m in sys.modules if m == "sdconv" or m.startswith("sdconv.")]:
        del sys.modules[name]
    importlib.import_module("sdconv.cli")
    return sys.modules["sdconv"]


def call_cli(cli, argv: list[str]):
    """Run ``cli.main(argv)`` in-process, capturing what it prints.

    Returns ``(exit_code, stdout, escaped)``, where ``escaped`` names the
    type of an exception that left ``cli.main`` (``None`` if none did).
    Standard error is captured and dropped.
    """
    out = io.StringIO()
    rc, escaped = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = cli.main(argv)
        except Exception as exc:  # an escape is a failed op, not a bench crash
            escaped = type(exc).__name__
    return rc, out.getvalue(), escaped


class Completion:
    """``hm_extend(code, a)`` then ``find_completion`` over the 33 binary
    self-dual (4,2) codes with parameter degree <= 2 and all 16 pairings
    a in (F2[z]_{<=1})^2: 528 ops per pass.

    The codes are built from the coprime-pair family and deduplicated by
    canonical generator, and each generator is mixed by a seeded unimodular
    left factor, so the inputs are not canonical.
    """

    MAX_DEG = 2
    PAIRING_DEG = 1

    def __init__(self, sd, seed: int):
        self.sd = sd
        rng = random.Random(seed)
        spec = sd.make_field(2)
        self.spec = spec
        one, zero = sd.Poly.one(spec), sd.Poly.zero(spec)
        polys = _bounded_polys(sd, spec, self.MAX_DEG)
        seen, gens = set(), []
        for g23, g24 in itertools.product(polys, polys):
            if sd.gcd(g23, g24) != one:
                continue
            gen = sd.PolyMatrix(spec, [[one, one, one, one], [zero, g23 + g24, g23, g24]])
            key = sd.ConvolutionalCode(gen).canonical_generator()
            if key not in seen:
                seen.add(key)
                gens.append(gen)
        self.generators = [_unimodular(sd, spec, rng, 2) @ g for g in gens]
        pairings = list(itertools.product(_bounded_polys(sd, spec, self.PAIRING_DEG), repeat=2))
        order = [(i, a) for i in range(len(self.generators)) for a in pairings]
        rng.shuffle(order)
        self.order = order

    def ops(self):
        # Fresh code objects each pass: a code caches its Smith-based
        # verdicts, and every pass must do the same work.
        codes = [self.sd.ConvolutionalCode(g) for g in self.generators]
        return [(codes[i], a) for i, a in self.order]

    def run(self, op):
        code, a_vec = op
        try:
            gt = self.sd.hm_extend(code, a_vec)
            return gt, self.sd.find_completion(gt)
        except Exception as exc:  # an escape is a failed op, not a bench crash
            return exc

    def check(self, op, output) -> str:
        """Checks the op with GF(2)[z] arithmetic of its own, so a wrong
        ``solve_left`` or ``smith`` in the library cannot pass itself."""
        if isinstance(output, Exception):
            return FAILED
        code, a_vec = op
        gt, result = output
        ext = _gf2_rows(gt)
        expected = [[a, a, *row] for a, row in zip(map(_gf2, a_vec), _gf2_rows(code.generator))]
        gen = _gf2_rows(result.generator)
        if ext != expected or gen[1:] != ext or not _is_self_dual(gen):
            return WRONG
        non_trivial = result.kind == self.sd.NON_TRIVIAL
        if non_trivial != (_solve_left(ext, [1] * len(ext[0])) is not None):
            return WRONG
        # a non-trivial completion must leave (1,1,0,...,0) outside its span
        e_row = [1, 1] + [0] * (len(ext[0]) - 2)
        if non_trivial == (_solve_left(gen, e_row) is not None):
            return WRONG
        return OK

    def describe(self) -> str:
        fmt = self.sd.format_matrix
        lines = [fmt(g) for g in self.generators]
        lines += [f"{i} {self.sd.format_vector(a)}" for i, a in self.order]
        return "\n".join(lines)


# GF(2)[z] arithmetic for the completion check, independent of sdconv: a
# polynomial is an int whose bit i is the coefficient of z^i.


def _gf2(poly) -> int:
    return sum(c.coeffs[0] << i for i, c in enumerate(poly.coeffs))


def _gf2_rows(matrix) -> list[list[int]]:
    return [[_gf2(p) for p in row] for row in matrix.entries]


def _mul(a: int, b: int) -> int:
    out = 0
    while b:
        if b & 1:
            out ^= a
        a, b = a << 1, b >> 1
    return out


def _divmod(a: int, b: int) -> tuple[int, int]:
    q, db = 0, b.bit_length()
    while a.bit_length() >= db:
        shift = a.bit_length() - db
        q ^= 1 << shift
        a ^= b << shift
    return q, a


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, _divmod(a, b)[1]
    return a


def _det(m: list[list[int]]) -> int:
    """Determinant by cofactor expansion (signs vanish in characteristic 2)."""
    if len(m) == 1:
        return m[0][0]
    out = 0
    for j, x in enumerate(m[0]):
        if x:
            out ^= _mul(x, _det([row[:j] + row[j + 1:] for row in m[1:]]))
    return out


def _minors(rows: list[list[int]]):
    """(columns, determinant) of every full-size minor."""
    for cols in itertools.combinations(range(len(rows[0])), len(rows)):
        yield cols, _det([[row[c] for c in cols] for row in rows])


def _solve_left(rows: list[list[int]], v: list[int]):
    """m with m . rows = v over GF(2)[z], by Cramer's rule on a nonzero
    full-size minor; None if there is none or v is outside the row module."""
    cols, d = next(((c, d) for c, d in _minors(rows) if d), (None, 0))
    if not d:
        return None
    sub = [[row[c] for c in cols] for row in rows]
    m = []
    for j in range(len(rows)):
        q, r = _divmod(_det(sub[:j] + [[v[c] for c in cols]] + sub[j + 1:]), d)
        if r:
            return None
        m.append(q)
    for c in range(len(v)):
        total = 0
        for mi, row in zip(m, rows):
            total ^= _mul(mi, row[c])
        if total != v[c]:
            return None
    return m


def _is_self_dual(rows: list[list[int]]) -> bool:
    """n = 2k, G G^T = 0, and the full-size minors have gcd 1 (basic)."""
    if 2 * len(rows) != len(rows[0]):
        return False
    for r in rows:
        for s in rows:
            total = 0
            for x, y in zip(r, s):
                total ^= _mul(x, y)
            if total:
                return False
    g = 0
    for _, d in _minors(rows):
        g = _gcd(g, d)
    return g == 1


def _bounded_polys(sd, spec, max_deg: int):
    """All polynomials of degree <= max_deg, lexicographic in coefficients."""
    return [
        sd.Poly(spec, coeffs)
        for coeffs in itertools.product(spec.elements(), repeat=max_deg + 1)
    ]


def _unimodular(sd, spec, rng: random.Random, n: int, ops: int = 4):
    """A seeded product of row swaps and polynomial shears over GF(2)."""
    rows = [list(r) for r in sd.PolyMatrix.identity(spec, n).entries]
    polys = _bounded_polys(sd, spec, 1)
    for _ in range(ops):
        i, j = rng.sample(range(n), 2)
        if rng.random() < 0.25:
            rows[i], rows[j] = rows[j], rows[i]
        else:
            q = rng.choice(polys)
            rows[i] = [x + q * y for x, y in zip(rows[i], rows[j])]
    return sd.PolyMatrix(spec, rows, cols=n)


# ---------------------------------------------------------------------------
# cli-mixed

# (selector forms, p, l): each field can be named in more than one way.
FIELDS = [
    (("5",), 5, 1),
    (("13",), 13, 1),
    (("3^2", "9"), 3, 2),
    (("2^4", "16"), 2, 4),
    (("2^8", "256"), 2, 8),
]
# A distance or classify request searches q^(k(b+1)) messages at most this
# many (the four-two catalog too, per record), so no single request sets the
# pass time.
MAX_MESSAGES = 4096
# Every malformed kind appears the same number of times in each stream, so
# the share of failing requests does not depend on the seed.
MALFORMED_KINDS = [
    "field-too-large",
    "bad-selector",
    "bad-matrix",
    "bad-argument",
    "rank-deficient",
    "reducible-modulus",
    "search-too-large",
]
STREAM_LENGTH = 600
PER_MALFORMED_KIND = 10


def _terms_text(coeffs: list[str], var: str) -> str:
    """Text of the sum of coeffs[e] * var^e, highest power first."""
    terms = []
    for exp in range(len(coeffs) - 1, -1, -1):
        c = coeffs[exp]
        if c == "0":
            continue
        if exp == 0:
            terms.append(c)
            continue
        power = var if exp == 1 else f"{var}^{exp}"
        if c == "1":
            terms.append(power)
        else:
            terms.append(f"({c})*{power}" if "+" in c else f"{c}*{power}")
    return "+".join(terms) if terms else "0"


def _element_text(rng: random.Random, p: int, l: int, nonzero: bool = False) -> str:
    while True:
        coeffs = [rng.randrange(p) for _ in range(l)]
        if any(coeffs) or not nonzero:
            break
    if l == 1:
        return str(coeffs[0])
    return _terms_text([str(c) for c in coeffs], "a")


def _poly_text(rng: random.Random, p: int, l: int, max_deg: int, constant: str | None = None) -> str:
    """A random polynomial in z of degree <= max_deg.

    ``constant`` fixes the constant coefficient to the given element text.
    """
    deg = rng.randrange(-1, max_deg + 1)
    coeffs = [_element_text(rng, p, l) for _ in range(max(deg, 0))]
    if deg >= 0:
        coeffs.append(_element_text(rng, p, l, nonzero=True))
    if constant is not None:
        coeffs = coeffs or ["0"]
        coeffs[0] = constant
    return _terms_text(coeffs, "z")


def _full_rank_rows(rng: random.Random, p: int, l: int, k: int, max_deg: int = 2) -> list[list[str]]:
    """A random k x 2k matrix whose constant term has full rank k.

    k random pivot columns get a nonzero diagonal constant and zero
    off-diagonal constants, which makes G(0), hence G, of rank k without
    asking the library.
    """
    n = 2 * k
    pivots = rng.sample(range(n), k)
    rows = []
    for i in range(k):
        row = []
        for j in range(n):
            constant = None
            if j in pivots:
                constant = _element_text(rng, p, l, nonzero=True) if pivots.index(j) == i else "0"
            row.append(_poly_text(rng, p, l, max_deg, constant))
        rows.append(row)
    return rows


def _matrix_text(rows: list[list[str]]) -> str:
    return ";".join(",".join(r) for r in rows)


# The words of each well-formed matrix request: command, then its options.
MATRIX_COMMANDS = [
    ("check", "--canonical"),
    ("dual", "--canonical"),
    ("hermite", "--side", "row"),
    ("hermite", "--side", "col"),
    ("smith",),
]


def _valid_shapes() -> list[tuple]:
    """One cycle of well-formed request shapes: (words, field, k).

    The stream repeats this cycle in a fixed order and only the matrices,
    selector spellings, output formats and positions come from the seed, so
    every seed asks for the same mix of work.  ``k`` is None for a request
    without a matrix.
    """
    shapes = []
    for words in MATRIX_COMMANDS:
        shapes += [(words, field, k) for field in FIELDS for k in (1, 2, 3)]
    for field in FIELDS:
        q = field[1] ** field[2]
        shapes += [
            (("distance", "--bound", str(b)), field, k)
            for k in (1, 2, 3)
            for b in (0, 1)
            if q ** (k * (b + 1)) <= MAX_MESSAGES
        ]
    shapes += [
        (("classify", "two-one"), field, None)
        for field in FIELDS
        if (field[1] ** field[2]) ** 2 <= MAX_MESSAGES
    ]
    return shapes


def _valid_request(rng: random.Random, shape: tuple) -> list[str]:
    words, (selectors, p, l), k = shape
    common = ["--field", rng.choice(selectors), "--format", rng.choice(("text", "json"))]
    if k is None:
        return [*words, *common]
    matrix = _matrix_text(_full_rank_rows(rng, p, l, k))
    return [words[0], *common, *words[1:], matrix]


def _malformed_request(rng: random.Random, kind: str) -> list[str]:
    selectors, p, l = rng.choice(FIELDS)
    k = rng.choice((1, 2, 3))
    rows = _full_rank_rows(rng, p, l, k)
    command = rng.choice(("check", "dual", "smith"))
    if kind == "field-too-large":
        return [command, "--field", "2^40", _matrix_text(_full_rank_rows(rng, 2, 1, k))]
    if kind == "bad-selector":
        return [command, "--field", rng.choice(("6", "12", "0", "2^x")), _matrix_text(rows)]
    if kind == "bad-matrix":
        i, j = rng.randrange(k), rng.randrange(2 * k)
        rows[i][j] = rng.choice(("w", "z^", "(z+1", ""))
        return [command, "--field", selectors[0], _matrix_text(rows)]
    if kind == "bad-argument":
        return rng.choice((
            ["hermite", "--field", selectors[0], "--side", "diag", _matrix_text(rows)],
            ["distance", "--field", selectors[0], _matrix_text(rows)],
            [command, "--field", selectors[0], "--format", "yaml", _matrix_text(rows)],
        ))
    if kind == "rank-deficient":
        if k == 1:
            rows = [["0", "0"]]
        else:
            rows[-1] = list(rows[0])
        return [command, "--field", selectors[0], _matrix_text(rows)]
    if kind == "reducible-modulus":
        selector, modulus = rng.choice((("3^2", "a^2+2"), ("2^4", "a^4+1"), ("2^8", "a^8+a^4")))
        return [command, "--field", selector, "--modulus", modulus, "1,1"]
    assert kind == "search-too-large"
    return ["distance", "--field", selectors[0], "--bound", "40", _matrix_text(rows)]


def cli_requests(seed: int) -> list[tuple[list[str], bool]]:
    """The seeded request stream: ``(argv, malformed)`` pairs."""
    rng = random.Random(seed)
    malformed = [kind for kind in MALFORMED_KINDS for _ in range(PER_MALFORMED_KIND)]
    count = STREAM_LENGTH - len(malformed) - 1
    valid = list(itertools.islice(itertools.cycle(_valid_shapes()), count))
    slots = [(False, shape) for shape in valid] + [(True, kind) for kind in malformed]
    slots.append((False, None))
    rng.shuffle(slots)
    requests = []
    for bad, what in slots:
        if bad:
            requests.append((_malformed_request(rng, what), True))
        elif what is None:
            requests.append((list(FOUR_TWO_ARGV), False))
        else:
            requests.append((_valid_request(rng, what), False))
    return requests


class CliMixed:
    """A seeded stream of 600 ``cli.main`` requests over GF(5), GF(13),
    GF(3^2), GF(2^4) and GF(2^8), about a tenth of them malformed, plus one
    ``classify four-two --max-deg 1`` over GF(2).

    A well-formed request must exit 0; a malformed one must exit 2 (parse)
    or 3 (precondition).  Every success prints something, and with
    ``--format json`` it prints JSON; the four-two catalog must equal the
    recorded one byte for byte.
    """

    def __init__(self, sd, seed: int):
        self.cli = sd.cli
        self.requests = cli_requests(seed)
        self.four_two = FOUR_TWO_EXPECTED.read_text(encoding="utf-8")

    def ops(self):
        return self.requests

    def run(self, op):
        return call_cli(self.cli, op[0])

    def check(self, op, output) -> str:
        argv, malformed = op
        rc, stdout, escaped = output
        if escaped is not None or rc not in ((2, 3) if malformed else (0,)):
            return FAILED
        if rc != 0:
            return OK
        if argv == FOUR_TWO_ARGV:
            return OK if stdout == self.four_two else WRONG
        if not stdout.strip():
            return WRONG
        if "json" in argv:
            try:
                json.loads(stdout)
            except ValueError:
                return WRONG
        return OK

    def describe(self) -> str:
        return "\n".join(json.dumps(op) for op in self.requests)


WORKLOADS = {"completion": Completion, "cli-mixed": CliMixed}
