"""Shared randomized generators and oracles for the test suites."""

import importlib.util
import itertools
import random
from functools import lru_cache, reduce
from pathlib import Path

from sdconv import (
    ConvolutionalCode,
    Poly,
    PolyMatrix,
    classify_21,
    classify_42_binary,
    col_hermite,
    determinant,
    direct_sum,
    dot,
    gcd,
    iter_bounded_polys,
    make_field,
    rank,
    smith,
)
from sdconv.constructions import (
    NON_TRIVIAL,
    TRIVIAL_ONLY,
    CompletionResult,
    _exact_completion_witness,
    _unit_content_vector,
    _validate_extended,
)
from sdconv.errors import (
    BadVector,
    DimensionMismatch,
    MalformedInput,
    NotSquare,
    NotUnit,
    ParseError,
    RankDeficient,
    ShapeUnsupported,
)
from sdconv.fields import _int_poly_mod, _is_wrapped, _parse_coefficient, _parse_terms, parse_int_poly
from sdconv.matrices import (
    HermiteDecomposition,
    SmithDecomposition,
    as_poly_vector,
    is_orthogonal_to,
    right_kernel_basis,
    row_matrix,
    vstack,
)
from sdconv.polys import sub_mul


@lru_cache(maxsize=None)
def load_bench(name: str):
    """The module ``bench/<name>.py`` of this checkout, loaded from its file."""
    path = Path(__file__).resolve().parents[1] / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@lru_cache(maxsize=None)
def classify42(max_deg: int):
    """classify_42_binary memoized across tests (records are immutable)."""
    return tuple(classify_42_binary(max_deg))

F2 = make_field(2)
F4 = make_field(2, 2)
F5 = make_field(5)


def maximal_minors(matrix: PolyMatrix) -> list[Poly]:
    """The C(n, k) Bareiss determinants of the k x k column selections
    (k = rows), in ``itertools.combinations`` order."""
    k, n = matrix.rows, matrix.cols
    if k > n:
        raise ShapeUnsupported(f"need rows <= cols, got {k}x{n}")
    return [
        determinant(PolyMatrix(matrix.spec, [[row[j] for j in cols] for row in matrix.entries], cols=k))
        for cols in itertools.combinations(range(n), k)
    ]


def is_unimodular(matrix: PolyMatrix) -> bool:
    """Oracle for the Hermite elimination's unimodularity verdict
    (``inverse_unimodular``): the Bareiss determinant is a nonzero constant."""
    if matrix.rows != matrix.cols:
        raise NotSquare(f"unimodularity of {matrix.rows}x{matrix.cols} matrix")
    return determinant(matrix).degree() == 0


def is_left_prime(matrix: PolyMatrix) -> bool:
    """Oracle for the column-Hermite route of ``is_noncatastrophic``: a
    full-row-rank matrix is left-prime iff the gcd of its maximal minors is
    a nonzero constant."""
    return reduce(gcd, maximal_minors(matrix), Poly.zero(matrix.spec)).degree() == 0


def is_identity_padded(matrix: PolyMatrix) -> bool:
    """True iff the matrix equals [I 0] (or [I; 0] when it is tall)."""
    one, zero = Poly.one(matrix.spec), Poly.zero(matrix.spec)
    return all(e == (one if i == j else zero) for i, row in enumerate(matrix.entries) for j, e in enumerate(row))


def det_laplace(entries, spec) -> Poly:
    """Oracle for the Bareiss ``determinant``: cofactor expansion along the
    first row."""
    n = len(entries)
    if n == 0:
        return Poly.one(spec)
    if n == 1:
        return entries[0][0]
    if n == 2:
        return entries[0][0] * entries[1][1] - entries[0][1] * entries[1][0]
    total = Poly.zero(spec)
    for j, top in enumerate(entries[0]):
        if not top:
            continue
        minor = [row[:j] + row[j + 1 :] for row in entries[1:]]
        term = top * det_laplace(minor, spec)
        total = total + term if j % 2 == 0 else total - term
    return total


def col_hermite_solve_left(matrix: PolyMatrix, vec):
    """Oracle for ``solve_left`` on a full-row-rank matrix: through the
    column Hermite form A @ V = [L 0], v @ V must vanish past the pivots,
    and back-substitution against L with exact division gives m."""
    k, n = matrix.rows, matrix.cols
    lifted = as_poly_vector(matrix.spec, vec)
    dec = col_hermite(matrix)
    lform, v = dec.form, dec.transform
    assert all(lform.entries[i][i] for i in range(k))
    w = [dot(lifted, v.column(j)) for j in range(n)]
    if any(w[j] for j in range(k, n)):
        return None
    m = [Poly.zero(matrix.spec)] * k
    for i in range(k - 1, -1, -1):
        rhs = w[i]
        for j in range(i + 1, k):
            rhs = sub_mul(rhs, m[j], lform.entries[j][i])
        q, r = divmod(rhs, lform.entries[i][i])
        if r:
            return None
        m[i] = q
    return tuple(m)


def smith_kernel_basis(matrix: PolyMatrix) -> PolyMatrix:
    """Oracle for ``right_kernel_basis``: the transposed columns of the
    Smith column transform V past the first k, where U @ A @ V = [S 0]."""
    v = smith(matrix).V
    n = matrix.cols
    return PolyMatrix(matrix.spec, [v.column(j) for j in range(matrix.rows, n)], cols=n)


# The eliminations on Poly entries, through the Poly operators: the oracle
# for the code-grid kernel of ``sdconv.matrices``.  Each returns the same
# objects and raises the same typed errors as the library function of its
# name without the ``oracle_`` prefix.


def oracle_hermite_core(spec, rows, width: int):
    """The reduced rows of [A | rest] as lists of Poly, and the pivots."""
    a = [list(row) for row in rows]
    m = len(a)
    pivots: list[int] = []
    r = 0
    for j in range(width):
        if r == m:
            break
        while True:
            nz = [i for i in range(r, m) if a[i][j]]
            if not nz:
                break
            piv = min(nz, key=lambda i: (a[i][j].degree(), i))
            if piv != r:
                a[r], a[piv] = a[piv], a[r]
            done = True
            for i in range(r + 1, m):
                if a[i][j]:
                    q = a[i][j] // a[r][j]
                    if q:
                        a[i] = [sub_mul(x, q, y) for x, y in zip(a[i], a[r])]
                    if a[i][j]:
                        done = False
            if done:
                break
        if r < m and a[r][j]:
            c = a[r][j].lc().inverse()
            if a[r][j].lc() != spec.one:
                a[r] = [x * c for x in a[r]]
            for i in range(r):
                q = a[i][j] // a[r][j]
                if q:
                    a[i] = [sub_mul(x, q, y) for x, y in zip(a[i], a[r])]
            pivots.append(j)
            r += 1
    return a, pivots


def _oracle_unit_rows(spec, m: int):
    one, zero = Poly.one(spec), Poly.zero(spec)
    return [[one if i == j else zero for j in range(m)] for i in range(m)]


def _oracle_beside_identity(spec, rows):
    return [list(row) + unit for row, unit in zip(rows, _oracle_unit_rows(spec, len(rows)))]


def _oracle_split(spec, grid, width: int, rest: int):
    left = PolyMatrix(spec, [row[:width] for row in grid], cols=width)
    return left, PolyMatrix(spec, [row[width:] for row in grid], cols=rest)


def oracle_smith(matrix: PolyMatrix) -> SmithDecomposition:
    spec, k, n = matrix.spec, matrix.rows, matrix.cols
    if k > n:
        raise ShapeUnsupported(f"need rows <= cols, got {k}x{n}")
    rows, vt = _oracle_beside_identity(spec, matrix.entries), _oracle_unit_rows(spec, n)
    while True:
        rows, pivots = oracle_hermite_core(spec, rows, n)
        if len(pivots) < k:
            raise RankDeficient(f"rank {len(pivots)} < {k}")
        if any(rows[i][j] for i in range(k) for j in range(n) if j != i):
            # the column step: a row step on [A^T | V^T]
            cols, _ = oracle_hermite_core(spec, [[row[j] for row in rows] + col for j, col in enumerate(vt)], k)
            rows = [[col[i] for col in cols] + row[n:] for i, row in enumerate(rows)]
            vt = [col[k:] for col in cols]
            continue
        bad = [i for i in range(1, k) if rows[i][i] % rows[i - 1][i - 1]]
        if not bad:
            break
        # column i - 1 += column i, in A (only row i reaches column i) and in V
        i = bad[0]
        rows[i][i - 1] = rows[i][i]
        vt[i - 1] = [x + y for x, y in zip(vt[i - 1], vt[i])]

    # The loop produces ascending divisibility; flip to the descending
    # convention unless the diagonal is reversal-invariant.
    diag = [rows[i][i] for i in range(k)]
    if diag != diag[::-1]:
        rows = [row[:k][::-1] + row[k:] for row in rows[::-1]]
        vt[:k] = vt[:k][::-1]
    S, U = _oracle_split(spec, rows, n, k)
    return SmithDecomposition(U=U, S=S, V=PolyMatrix(spec, vt, cols=n).transpose())


def invariant_factors(matrix: PolyMatrix) -> tuple:
    """Oracle for the diagonal of ``smith`` by another route, the
    determinantal divisors: d_i = D_i / D_{i-1}, where D_i is the monic gcd
    of the i x i minors (Laplace determinants) of a full-row-rank matrix.
    Listed descending, as ``smith`` lists them."""
    spec, k, n = matrix.spec, matrix.rows, matrix.cols
    factors, previous = [], Poly.one(spec)
    for i in range(1, k + 1):
        minors = (
            det_laplace([[row[j] for j in cols] for row in rows], spec)
            for rows in itertools.combinations(matrix.entries, i)
            for cols in itertools.combinations(range(n), i)
        )
        divisor = reduce(gcd, minors, Poly.zero(spec))
        factors.append(divisor // previous)
        previous = divisor
    return tuple(factors[::-1])


def oracle_row_hermite(matrix: PolyMatrix) -> HermiteDecomposition:
    spec, k, n = matrix.spec, matrix.rows, matrix.cols
    if k > n:
        raise ShapeUnsupported(f"need rows <= cols, got {k}x{n}")
    grid, _ = oracle_hermite_core(spec, _oracle_beside_identity(spec, matrix.entries), n)
    form, transform = _oracle_split(spec, grid, n, k)
    return HermiteDecomposition(form=form, transform=transform, side="row")


def oracle_col_hermite(matrix: PolyMatrix) -> HermiteDecomposition:
    spec, k, n = matrix.spec, matrix.rows, matrix.cols
    if k > n:
        raise ShapeUnsupported(f"need rows <= cols, got {k}x{n}")
    grid, _ = oracle_hermite_core(spec, _oracle_beside_identity(spec, matrix.transpose().entries), k)
    form, transform = _oracle_split(spec, grid, k, n)
    return HermiteDecomposition(form=form.transpose(), transform=transform.transpose(), side="column")


def oracle_rank(matrix: PolyMatrix) -> int:
    return len(oracle_hermite_core(matrix.spec, matrix.entries, matrix.cols)[1])


def oracle_inverse_unimodular(matrix: PolyMatrix) -> PolyMatrix:
    spec, n = matrix.spec, matrix.rows
    if n != matrix.cols:
        raise NotSquare(f"inverse of {n}x{matrix.cols} matrix")
    grid, _ = oracle_hermite_core(spec, _oracle_beside_identity(spec, matrix.entries), n)
    form, inverse = _oracle_split(spec, grid, n, n)
    if form != PolyMatrix.identity(spec, n):
        raise NotUnit("matrix is not unimodular")
    return inverse


def oracle_right_kernel_basis(matrix: PolyMatrix) -> PolyMatrix:
    spec, k, n = matrix.spec, matrix.rows, matrix.cols
    if k > n:
        raise ShapeUnsupported(f"need rows <= cols, got {k}x{n}")
    grid, pivots = oracle_hermite_core(spec, _oracle_beside_identity(spec, matrix.transpose().entries), k)
    if len(pivots) < k:
        raise RankDeficient(f"rank {len(pivots)} < {k}")
    return PolyMatrix(spec, [row[k:] for row in grid[k:]], cols=n)


def oracle_solve_left(matrix: PolyMatrix, vec):
    spec, k, n = matrix.spec, matrix.rows, matrix.cols
    if len(vec) != n:
        raise DimensionMismatch(f"vector of length {len(vec)} against {k}x{n} matrix")
    if k > n:
        raise ShapeUnsupported(f"need rows <= cols, got {k}x{n}")
    rest = as_poly_vector(spec, vec) + (Poly.zero(spec),) * k
    grid, pivots = oracle_hermite_core(spec, _oracle_beside_identity(spec, matrix.entries), n)
    if len(pivots) < k:
        raise RankDeficient("matrix does not have full row rank")
    for row, j in zip(grid, pivots):
        q = rest[j] // row[j]
        if q:
            rest = [sub_mul(x, q, y) for x, y in zip(rest, row)]
    if any(rest[:n]):
        return None
    return tuple(-x for x in rest[n:])


def oracle_row_reduced(matrix: PolyMatrix) -> PolyMatrix:
    spec, n = matrix.spec, matrix.cols
    rows = [list(row) for row in matrix.entries]
    while True:
        degrees = [max(len(e.codes) for e in row) - 1 for row in rows]
        if -1 in degrees:
            raise RankDeficient("matrix rows are linearly dependent")
        lead = [[Poly(spec, e.coeffs[d:]) for e in row] for row, d in zip(rows, degrees)]
        grid, pivots = oracle_hermite_core(spec, _oracle_beside_identity(spec, lead), n)
        if len(pivots) == len(rows):
            return PolyMatrix(spec, rows, cols=n)
        c = [e.coeffs[0] if e else spec.zero for e in grid[len(pivots)][n:]]
        i = max((j for j in range(len(rows)) if c[j]), key=lambda j: degrees[j])
        for j, cj in enumerate(c):
            if cj and j != i:
                shift = Poly(spec, [spec.zero] * (degrees[i] - degrees[j]) + [-(cj / c[i])])
                rows[i] = [sub_mul(x, shift, y) for x, y in zip(rows[i], rows[j])]


def oracle_is_noncatastrophic(matrix: PolyMatrix) -> bool:
    """For a full-row-rank generator: the row Hermite form of G^T is [I; 0]."""
    grid, _ = oracle_hermite_core(matrix.spec, matrix.transpose().entries, matrix.rows)
    return is_identity_padded(PolyMatrix(matrix.spec, grid, cols=matrix.rows))


def oracle_is_self_orthogonal(matrix: PolyMatrix) -> bool:
    rows = matrix.entries
    if not matrix.cols:
        return True
    return not any(dot(rows[i], rows[j]) for i in range(len(rows)) for j in range(i, len(rows)))


def oracle_find_completion(gt: PolyMatrix, witness=None) -> CompletionResult:
    """Oracle for ``find_completion`` by three eliminations: the rank and
    left-primeness of the trivial completion [e; gt] as a code, membership
    of the all-ones vector in the code of gt, and the coordinate test
    against the Bezout witness y of ``_exact_completion_witness``."""
    _validate_extended(gt)
    spec, cols = gt.spec, gt.cols
    e_row = as_poly_vector(spec, (1, 1) + (0,) * (cols - 2))
    try:
        trivial = ConvolutionalCode(vstack(row_matrix(spec, e_row), gt))
    except RankDeficient:
        raise MalformedInput("the columns past the paired ones have linearly dependent rows") from None
    if not trivial.is_noncatastrophic():
        raise MalformedInput("the columns past the paired ones generate a catastrophic code")
    if not ConvolutionalCode(gt).contains((1,) * cols):
        if witness is not None:
            raise BadVector("only trivial completions exist for this extension")
        return CompletionResult(kind=TRIVIAL_ONLY, generator=trivial.generator, witness=e_row)
    kernel = right_kernel_basis(gt)
    y = _exact_completion_witness(gt, e_row, kernel)
    one = Poly.one(spec)

    def attempt(f):
        beta = dot(f, e_row)
        if not beta or gcd(dot(f, y), beta) != one:
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
    rows = kernel.entries
    pairs = (tuple(a + b for a, b in zip(u, v)) for u, v in itertools.combinations(rows, 2))
    return next(r for r in map(attempt, itertools.chain(rows, pairs, (y,))) if r is not None)


def generalized_singleton_bound(n: int, k: int, delta: int) -> int:
    """(n - k)(floor(delta / k) + 1) + delta + 1, the largest free distance
    of an (n, k) code of degree delta (Rosenthal and Smarandache, AAECC 10,
    1999)."""
    return (n - k) * (delta // k + 1) + delta + 1


def scan_21_generators(spec, max_deg: int) -> list[PolyMatrix]:
    """Oracle for ``classify_21``: every 1x2 generator with entries of degree
    <= max_deg that generates a self-dual code.  Orthogonality is filtered
    first, so the sweep stays cheap even over larger fields."""
    found = []
    polys = iter_bounded_polys(spec, max_deg)
    one = Poly.one(spec)
    for g1, g2 in itertools.product(polys, polys):
        if not g1 and not g2:
            continue
        if g1 * g1 + g2 * g2:
            continue
        if gcd(g1, g2) != one:
            continue
        gen = PolyMatrix(spec, [[g1, g2]])
        assert ConvolutionalCode(gen).is_self_dual()
        found.append(gen)
    return found


def bounded_free_distance(code: ConvolutionalCode, bound: int) -> int:
    """Oracle for ``free_distance``: scans every nonzero message whose
    components have degree <= bound and returns the least codeword weight."""
    return min(
        sum(p.weight() for p in code.encode(msg))
        for msg in itertools.product(iter_bounded_polys(code.spec, bound), repeat=code.k)
        if any(msg)
    )


# Coefficient-vector arithmetic in F_p[x] / (modulus): the oracle for the
# field's log/Zech tables.  Vectors are tuples of length l, lowest degree
# first; the modulus is monic of degree l.


def vec_add(u, v, p):
    return tuple((a + b) % p for a, b in zip(u, v))


def vec_neg(u, p):
    return tuple((-a) % p for a in u)


def _int_poly_divmod(u, v, p):
    """Quotient and remainder of u by v over F_p (v nonzero, trimmed)."""
    q = [0] * max(len(u) - len(v) + 1, 0)
    r = list(u)
    inv_lead = pow(v[-1], p - 2, p)
    while r and len(r) >= len(v):
        shift = len(r) - len(v)
        factor = (r[-1] * inv_lead) % p
        q[shift] = factor
        for i, c in enumerate(v):
            r[shift + i] = (r[shift + i] - factor * c) % p
        while r and r[-1] == 0:
            r.pop()
    while q and q[-1] == 0:
        q.pop()
    return q, r


def _int_poly_mul(u, v, p):
    out = [0] * (len(u) + len(v) - 1) if u and v else []
    for i, a in enumerate(u):
        for j, b in enumerate(v):
            out[i + j] = (out[i + j] + a * b) % p
    while out and out[-1] == 0:
        out.pop()
    return out


def _int_poly_sub(u, v, p):
    n = max(len(u), len(v))
    out = [((u[i] if i < len(u) else 0) - (v[i] if i < len(v) else 0)) % p for i in range(n)]
    while out and out[-1] == 0:
        out.pop()
    return out


def _padded(v, l):
    return tuple(v) + (0,) * (l - len(v))


def vec_mul(u, v, modulus, p):
    """Schoolbook product, then the remainder by the modulus."""
    _, r = _int_poly_divmod(_int_poly_mul(list(u), list(v), p), list(modulus), p)
    return _padded(r, len(modulus) - 1)


def vec_inverse(u, modulus, p):
    """Extended Euclid against the modulus; u must be nonzero."""
    r0, r1 = list(modulus), list(u)
    while r1 and r1[-1] == 0:
        r1.pop()
    t0, t1 = [], [1]
    while r1:
        q, r = _int_poly_divmod(r0, r1, p)
        r0, r1 = r1, r
        t0, t1 = t1, _int_poly_sub(t0, _int_poly_mul(q, t1, p), p)
    # r0 is a nonzero constant gcd; scale t0 by its inverse
    c = pow(r0[0], p - 2, p)
    return _padded([(c * x) % p for x in t0], len(modulus) - 1)


# Schoolbook polynomial arithmetic through the FieldElement operators, on
# coefficient tuples (lowest degree first, no trailing zeros): the oracle
# for the int-coded kernel of ``sdconv.polys``.


def _trimmed(cs) -> tuple:
    cs = list(cs)
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def school_add(spec, u, v, sign=1):
    n = max(len(u), len(v))
    u, v = (tuple(w) + (spec.zero,) * (n - len(w)) for w in (u, v))
    return _trimmed(a + b if sign > 0 else a - b for a, b in zip(u, v))


def school_mul(spec, u, v):
    out = [spec.zero] * (len(u) + len(v) - 1) if u and v else []
    for i, a in enumerate(u):
        for j, b in enumerate(v):
            out[i + j] = out[i + j] + a * b
    return _trimmed(out)


def school_divmod(spec, u, v):
    quo = [spec.zero] * max(len(u) - len(v) + 1, 0)
    rem = list(u)
    while len(rem) >= len(v):
        shift = len(rem) - len(v)
        factor = rem[-1] / v[-1]
        quo[shift] = factor
        for j, b in enumerate(v):
            rem[shift + j] = rem[shift + j] - factor * b
        rem = list(_trimmed(rem))
    return _trimmed(quo), tuple(rem)


def school_sub_mul(spec, x, q, y):
    return school_add(spec, x, school_mul(spec, q, y), sign=-1)


def school_dot(spec, us, vs):
    out = ()
    for u, v in zip(us, vs):
        out = school_add(spec, out, school_mul(spec, u, v))
    return out


# The text codec through FieldElement objects and per-coefficient
# formatting: the oracle for the int-coded parser and the element-text
# tables of ``sdconv.fields`` and ``sdconv.polys``.  Terms come from the one
# grammar, ``fields._parse_terms``, and are read in text order, so the
# first fault written is the one reported.


def oracle_format_terms(coefficient_texts, var: str) -> str:
    terms = []
    for exp, c in reversed(list(enumerate(coefficient_texts))):
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


def oracle_format_element(e) -> str:
    return oracle_format_terms(map(str, e.coeffs), "a")


def oracle_format_poly(p: Poly) -> str:
    return oracle_format_terms(map(oracle_format_element, p.coeffs), "z")


def oracle_parse_element(spec, text: str):
    s = "".join(text.split())
    if _is_wrapped(s):
        s = s[1:-1]
    if not s:
        raise ParseError("empty field element text")
    if s.isdecimal():
        return spec.from_int(_parse_coefficient(s))
    if spec.l == 1 or "a" not in s:
        raise ParseError(f"{text!r} is not a valid {spec} element")
    red = _int_poly_mod(parse_int_poly(s, "a", spec.p), list(spec.modulus), spec.p)
    return spec.element(tuple(red) + (0,) * (spec.l - len(red)))


def oracle_parse_poly(spec, text: str) -> Poly:
    coeffs = {}
    for ct, e in _parse_terms(text, "z"):
        c = spec.one if ct is None else oracle_parse_element(spec, ct)
        coeffs[e] = coeffs.get(e, spec.zero) + c
    return Poly(spec, [coeffs.get(e, spec.zero) for e in range(max(coeffs) + 1)])


def rand_poly(rng: random.Random, spec, max_deg: int) -> Poly:
    deg = rng.randrange(-1, max_deg + 1)
    if deg < 0:
        return Poly.zero(spec)
    els = spec.elements()
    coeffs = [rng.choice(els) for _ in range(deg)]
    coeffs.append(rng.choice(spec.nonzero_elements()))
    return Poly(spec, coeffs)


def rand_matrix(rng: random.Random, spec, k: int, n: int, max_deg: int = 2) -> PolyMatrix:
    return PolyMatrix(
        spec, [[rand_poly(rng, spec, max_deg) for _ in range(n)] for _ in range(k)], cols=n
    )


def rand_full_rank(rng: random.Random, spec, k: int, n: int, max_deg: int = 2) -> PolyMatrix:
    while True:
        m = rand_matrix(rng, spec, k, n, max_deg)
        if rank(m) == k:
            return m


def rand_unimodular(rng: random.Random, spec, n: int, ops: int = 6) -> PolyMatrix:
    """Product of elementary operations: swaps, unit scalings, poly shears."""
    rows = [list(r) for r in PolyMatrix.identity(spec, n).entries]
    for _ in range(ops):
        kind = rng.randrange(3)
        i, j = rng.randrange(n), rng.randrange(n)
        if kind == 0 and n > 1:
            rows[i], rows[j] = rows[j], rows[i]
        elif kind == 1:
            c = rng.choice(spec.nonzero_elements())
            rows[i] = [x * c for x in rows[i]]
        elif n > 1:
            if i == j:
                j = (j + 1) % n
            q = rand_poly(rng, spec, 2)
            rows[i] = [x + q * y for x, y in zip(rows[i], rows[j])]
    return PolyMatrix(spec, rows, cols=n)


_BASE_SELF_DUAL: list[ConvolutionalCode] = []


def base_self_dual_codes() -> list[ConvolutionalCode]:
    if not _BASE_SELF_DUAL:
        for rec in classify_21(F2) + classify_21(F5) + classify_21(F4):
            _BASE_SELF_DUAL.append(ConvolutionalCode(rec.canonical_generator))
        for rec in classify_42_binary(1):
            _BASE_SELF_DUAL.append(ConvolutionalCode(rec.canonical_generator))
        first = _BASE_SELF_DUAL[0]
        _BASE_SELF_DUAL.append(direct_sum(first, first))
    return _BASE_SELF_DUAL


def self_dual_corpus(rng: random.Random, size: int = 30) -> list[ConvolutionalCode]:
    """Self-dual codes of several sizes and fields, generator matrices mixed
    by random unimodular left factors so they are not all canonical."""
    base = base_self_dual_codes()
    out = []
    while len(out) < size:
        code = rng.choice(base)
        u = rand_unimodular(rng, code.spec, code.k)
        out.append(ConvolutionalCode(u @ code.generator))
    return out
