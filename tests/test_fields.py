import copy
import gc
import itertools
import pickle
import random
import sys
import threading
from time import perf_counter, sleep

import pytest
from hypothesis import given, strategies as st

from helpers import oracle_format_element, run_capped, vec_add, vec_inverse, vec_mul, vec_neg
from sdconv import (
    FieldSpec,
    Poly,
    PolyMatrix,
    fields,
    make_field,
    parse_element,
    parse_field_selector,
    sqrt_of_minus_one,
)
from sdconv.errors import (
    DegreeMismatch,
    DivisionByZero,
    FieldMismatch,
    NotPrime,
    OutOfRange,
    ParseError,
    ReducibleModulus,
)
from sdconv.polys import _mul_into

FIELDS = {
    2: (2, 1),
    3: (3, 1),
    4: (2, 2),
    5: (5, 1),
    7: (7, 1),
    8: (2, 3),
    9: (3, 2),
    11: (11, 1),
    13: (13, 1),
    16: (2, 4),
    25: (5, 2),
}


def field(q):
    p, l = FIELDS[q]
    return make_field(p, l)


def test_prime_field_modulus_is_x():
    assert make_field(2).modulus == (0, 1)
    assert make_field(7).modulus == (0, 1)


def test_a_degree_one_modulus_builds_the_one_gf_p():
    # every x + c gives GF(p) with the tables of x, so it is the one field
    # and its elements combine; the modulus is still checked
    F5 = make_field(5)
    for c in range(5):
        G = make_field(5, 1, (c, 1))
        assert G is F5 and G == F5 and hash(G) == hash(F5) and G.modulus == (0, 1)
        assert G.one + F5.one == F5.from_int(2) == F5.one + G.one
        assert Poly.z(G) * Poly.one(F5) == Poly.z(F5)
        assert parse_field_selector("5", f"a+{c}") == F5
    for modulus, error in (((3, 2), DegreeMismatch), ((3, 1, 0), DegreeMismatch), ((5, 1), OutOfRange)):
        with pytest.raises(error):
            make_field(5, 1, modulus)


def test_f4_modulus_is_the_unique_irreducible_quadratic():
    # oracle: a binary quadratic is reducible iff it has a root in GF(2)
    reducible = []
    for c0, c1 in itertools.product((0, 1), repeat=2):
        has_root = c0 == 0 or (c0 + c1 + 1) % 2 == 0
        if has_root:
            reducible.append((c0, c1, 1))
    assert len(reducible) == 3
    assert make_field(2, 2).modulus == (1, 1, 1)


def test_make_field_errors():
    with pytest.raises(NotPrime):
        make_field(6)
    with pytest.raises(DegreeMismatch):
        make_field(3, 1, (1, 0, 1))  # degree 2 modulus for l = 1
    with pytest.raises(ReducibleModulus):
        make_field(2, 2, (0, 0, 1))  # x^2 = x * x
    with pytest.raises(ValueError):
        make_field(2, 0)
    # a p, l or modulus coefficient that is not an int, or a modulus that is
    # not iterable, is refused before anything is built (1.5 would otherwise
    # truncate to a reducible a^2+1)
    misses = fields._build_field.cache_info().misses
    probes = ((5, 2, ("x", 1, 1)), (5, 2.5), (5, 2, (1.5, 0, 1)), (5.0,), ("5",), (5, 2, 7), ("5", 2, 7))
    for args in probes:
        with pytest.raises(OutOfRange, match="must be an (int|iterable of ints), got"):
            make_field(*args)
    assert fields._build_field.cache_info().misses == misses


def test_make_field_refuses_exactly_the_non_primes_below_2000():
    # oracle: the sieve of Eratosthenes
    prime = [False, False] + [True] * 1998
    for i in range(2, 45):
        if prime[i]:
            prime[i * i :: i] = [False] * len(prime[i * i :: i])
    refused = set()
    for n in range(2000):
        try:
            make_field(n)
        except NotPrime:
            refused.add(n)
    assert refused == {n for n in range(2000) if not prime[n]}


def test_make_field_deterministic():
    for q in FIELDS:
        p, l = FIELDS[q]
        assert make_field(p, l).modulus == make_field(p, l).modulus


def test_arithmetic_examples():
    F5 = field(5)
    assert F5.from_int(3) * F5.from_int(4) == F5.from_int(2)
    assert F5.from_int(2).inverse() == F5.from_int(3)
    F4 = field(4)
    a = F4.element((0, 1))
    assert a + (a + F4.one) == F4.one


def test_inverse_of_zero_raises():
    with pytest.raises(DivisionByZero):
        field(4).zero.inverse()


def test_field_mismatch():
    with pytest.raises(FieldMismatch):
        field(2).one + field(3).one


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9, 25, 49])
def test_field_axioms_exhaustive(q):
    spec = make_field(7, 2) if q == 49 else field(q)
    els = spec.elements()
    assert len(els) == q
    for a in els:
        assert a + spec.zero == a
        assert a * spec.one == a
        assert a + (-a) == spec.zero
        if a:
            assert a * a.inverse() == spec.one
    for a, b in itertools.product(els, repeat=2):
        assert a + b == b + a
        assert a * b == b * a
    for a, b, c in itertools.product(els, repeat=3):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


@pytest.mark.parametrize("q", sorted(FIELDS))
def test_sqrt_of_minus_one_existence_table(q):
    spec = field(q)
    p, l = FIELDS[q]
    predicted = p == 2 or p % 4 == 1 or l % 2 == 0
    root = sqrt_of_minus_one(spec)
    assert (root is not None) == predicted
    if root is not None:
        assert root * root == spec.from_int(-1)


def test_sqrt_of_minus_one_values():
    assert sqrt_of_minus_one(field(2)) == field(2).one
    assert sqrt_of_minus_one(field(3)) is None
    # scan of {0..4}: squares are 0,1,4,4,1 so 2 is the first solution
    assert sqrt_of_minus_one(field(5)) == field(5).from_int(2)


def test_enumeration_is_lexicographic():
    F9 = field(9)
    seq = [e.coeffs for e in F9.elements()]
    assert seq == sorted(seq)
    assert seq[0] == (0, 0)


def test_element_text_roundtrip():
    # every element of the fields up to 256 elements has the oracle's text,
    # which parses back to the element itself
    for p, l in ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (2, 4), (5, 2),
                 (3, 3), (7, 2), (2, 6), (3, 4), (5, 3), (3, 5), (2, 8)):
        spec = make_field(p, l)
        for e in spec.elements():
            text = str(e)
            assert text == oracle_format_element(e)
            assert parse_element(spec, text) is e
    F9 = field(9)
    a = F9.element((0, 1))
    assert parse_element(F9, "a^2+2*a") == a * a + F9.from_int(2) * a
    assert parse_element(F9, "(2)*a+1") == F9.from_int(2) * a + 1
    # parentheses that open and close apart are not one enclosing pair
    assert parse_element(F9, "(2)*a+(1)") == F9.from_int(2) * a + 1
    assert parse_element(F9, "(a)+(1)") == a + 1
    F5 = field(5)
    assert parse_element(F5, " 3 ") == F5.from_int(3)
    # "²" is a digit to str.isdigit but not to int()
    for bad in ("x", "", "²"):
        with pytest.raises(ParseError):
            parse_element(F5, bad)
    with pytest.raises(ParseError):
        parse_element(F9, "²*a")


def test_parse_field_selector():
    assert parse_field_selector("2").q == 2
    assert parse_field_selector("4").q == 4
    assert parse_field_selector("3^2").q == 9
    assert parse_field_selector("25").q == 25
    with pytest.raises(ParseError):
        parse_field_selector("6")
    with pytest.raises(ParseError):
        parse_field_selector("zzz")
    # p < 2 is refused before the modulus is read mod p
    for text in ("0^2", "1^2", "-3^2"):
        with pytest.raises(NotPrime):
            parse_field_selector(text, "a")


@given(st.integers(), st.integers())
def test_from_int_is_a_ring_morphism(x, y):
    F7 = field(7)
    assert F7.from_int(x) + F7.from_int(y) == F7.from_int(x + y)
    assert F7.from_int(x) * F7.from_int(y) == F7.from_int(x * y)


# The table arithmetic against the coefficient-vector oracle: every field of
# FIELDS plus GF(7^2) and GF(2^8), and the largest fields; all pairs up to
# q = 16, a seeded sample of pairs above, and every element up to q = 256,
# the first of each sampled pair above.
ORACLE_FIELDS = [FIELDS[q] for q in sorted(FIELDS)] + [(7, 2), (2, 8)]
LARGEST_FIELDS = [(2, 16), (3, 10), (65521, 1)]


@pytest.mark.parametrize("p, l", ORACLE_FIELDS + LARGEST_FIELDS, ids=lambda v: str(v))
def test_table_arithmetic_matches_coefficient_vector_oracle(p, l):
    spec = make_field(p, l)
    mod = spec.modulus
    els = spec.elements()
    if spec.q <= 16:
        pairs = list(itertools.product(els, repeat=2))
    else:
        rng = random.Random(spec.q)
        pairs = [(rng.choice(els), rng.choice(els)) for _ in range(2000)]
    for a in els if spec.q <= 256 else [a for a, _ in pairs]:
        assert -a is spec.element(vec_neg(a.coeffs, p))
        if a:
            inv = vec_inverse(a.coeffs, mod, p)
            assert a.inverse() is spec.element(inv)
            assert a ** -1 is a.inverse()
        assert a ** 0 is spec.one
        assert a ** 3 is a * a * a
    for a, b in pairs:
        assert a + b is spec.element(vec_add(a.coeffs, b.coeffs, p))
        assert a - b is spec.element(vec_add(a.coeffs, vec_neg(b.coeffs, p), p))
        assert a * b is spec.element(vec_mul(a.coeffs, b.coeffs, mod, p))
        if b:
            quotient = vec_mul(a.coeffs, vec_inverse(b.coeffs, mod, p), mod, p)
            assert a / b is spec.element(quotient)
        else:
            with pytest.raises(DivisionByZero):
                a / b


@pytest.mark.parametrize("p, l", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (3, 2), (13, 1), (2, 4), (2, 8)])
def test_packed_words_add_and_count_as_code_lists(p, l):
    # every pair of codes sits in one entry of a pair of words: the words
    # of all codes and of all codes rotated by r
    spec = make_field(p, l)
    q, one = spec.q, spec.one.code
    words = fields._Words(p, l, q, spec._spread)
    count = words.counter(q)
    every = list(range(q))
    for r in range(q):
        rotated = every[r:] + every[:r]
        sums = [_mul_into(spec, [a], (one,), (b,), 0)[0] for a, b in zip(every, rotated)]
        assert words.add(words.pack(every), words.pack(rotated)) == words.pack(sums)
        assert count(words.pack(sums)) == q - sums.count(0)
        assert words.counter(r)(words.pack(sums)) == r - sums[:r].count(0)
    # every multiple c * every is in the span of the multiples by the codes p^j
    units = [words.pack([_mul_into(spec, [0], (p**j,), (a,), 0)[0] for a in every]) for j in range(l)]
    for c, multiple in enumerate(words.span(units)):
        assert multiple == words.pack([_mul_into(spec, [0], (c,), (a,), 0)[0] for a in every])
    # the span of g's units, g the primitive element, is the word of g * x
    # for every code x, the step of the power walk, against the oracle
    g, els, mod = spec.elements()[spec._exp[1]], spec.elements(), spec.modulus
    one_entry = fields._Words(p, l, 1, spec._spread)
    units = [one_entry.pack([spec.element(vec_mul(g.coeffs, els[p**j].coeffs, mod, p)).code]) for j in range(l)]
    times_g = [one_entry.pack([spec.element(vec_mul(g.coeffs, x.coeffs, mod, p)).code]) for x in els]
    assert one_entry.span(units) == times_g


def test_codes_index_the_lexicographic_enumeration():
    for p, l in ORACLE_FIELDS:
        spec = make_field(p, l)
        assert [e.code for e in spec.elements()] == list(range(spec.q))
        assert spec.from_int(1) is spec.one and spec.from_int(p) is spec.zero


@pytest.mark.parametrize("p, l", LARGEST_FIELDS, ids=lambda v: str(v))
def test_largest_fields_build_within_budget(p, l):
    fields._build_field.cache_clear()
    gc.collect()  # drops the unreferenced fields too: time a build, not a lookup
    assert not [key for key in fields._FIELDS if key[:2] == (p, l)]
    start = perf_counter()
    spec = make_field(p, l)
    a, b = spec.elements()[-1], spec.elements()[-2]
    assert a * b == b * a
    assert parse_element(spec, str(a)) is a  # the text table is part of the build
    assert perf_counter() - start < 1.0


def test_make_field_keeps_a_few_fields():
    assert make_field(5) is make_field(5)
    assert make_field(3, 2, (1, 0, 1)) is make_field(3, 2, (1, 0, 1))
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        make_field(p)
    assert fields._build_field.cache_info().currsize <= fields._KEPT_FIELDS
    assert make_field(37) is make_field(37)


def test_make_field_evicts_the_least_recently_used_field():
    # 8 distinct fields are all kept, and a hit makes GF(2) the most recent
    two, three, *kept = [make_field(p) for p in (2, 3, 5, 7, 11, 13, 17, 19)]
    assert make_field(2) is two
    misses = fields._build_field.cache_info().misses
    make_field(23)  # the 9th distinct field evicts the least recent, GF(3)
    assert make_field(2) is two
    assert all(make_field(p) is f for p, f in zip((5, 7, 11, 13, 17, 19), kept))
    assert fields._build_field.cache_info().misses == misses + 1
    # GF(3) left the cache but is still referenced: the miss finds it again
    assert make_field(3) is three
    assert fields._build_field.cache_info().misses == misses + 2



def test_make_field_tests_primality_on_a_miss_only(monkeypatch):
    calls = []
    factors = fields._prime_factors
    monkeypatch.setattr(fields, "_prime_factors", lambda n: calls.append(n) or factors(n))
    make_field(65521)
    calls.clear()
    assert make_field(65521) is make_field(65521)  # two hits, no factoring
    assert calls == []
    for _ in range(2):  # a refusal is not cached
        with pytest.raises(NotPrime):
            make_field(65517)
    assert calls == [65517, 65517]

def test_equality_agrees_with_hash():
    F5 = field(5)
    assert F5.one != 1 and F5.one != 6 and F5.zero != 0
    assert len({F5.one, 1}) == 2
    assert Poly.one(F5) != 1 and Poly.one(F5) != F5.one
    assert len({Poly.one(F5), 1}) == 2
    for spec in (F5, field(9)):
        twin = FieldSpec(spec.p, spec.l, spec.modulus)  # the field itself
        assert twin is spec
        for a, b in zip(spec.elements(), twin.elements()):
            assert a is b and a == b and hash(a) == hash(b)
        u = Poly(spec, spec.elements()[1:4])
        v = Poly(twin, twin.elements()[1:4])
        assert u == v and hash(u) == hash(v)
        assert len({u, v}) == 1
        x, y = spec.elements()[-1], twin.elements()[-1]
        assert (x + y).spec is spec and x + y == y + x
        assert (u * v).spec is spec and u * v == v * u
    # another modulus is another field: its values with the same codes differ
    other = make_field(3, 2, (2, 2, 1))
    assert other is not field(9) and other.one != field(9).one
    assert Poly.one(other) != Poly.one(field(9)) and len({Poly.one(other), Poly.one(field(9))}) == 2


@pytest.mark.parametrize("p, l", [(5, 1), (3, 2), (2, 4)])
def test_field_spec_is_make_field(p, l):
    spec = make_field(p, l)
    assert FieldSpec(p, l) is spec and FieldSpec(p, l, spec.modulus) is spec
    assert make_field(p, l, spec.modulus) is spec  # the default modulus written out
    assert FieldSpec(p, l, list(spec.modulus)) is make_field(p, l, iter(spec.modulus))
    if l == 1:
        assert FieldSpec(p) is spec
    # identity is equality: the class defines neither
    assert "__eq__" not in vars(FieldSpec) and "__hash__" not in vars(FieldSpec)


def test_threads_that_build_one_new_field_at_once_get_one_object(monkeypatch):
    p, l = 7, 3
    fields._build_field.cache_clear()
    gc.collect()
    assert not [key for key in fields._FIELDS if key[:2] == (p, l)]
    builds, build = [], FieldSpec._build

    def slow_build(spec, *args):  # a slow build lets every thread reach it
        builds.append(args)
        sleep(0.05)
        return build(spec, *args)

    monkeypatch.setattr(FieldSpec, "_build", slow_build)
    start, got = threading.Barrier(4), []

    def ask():
        start.wait()
        got.append(make_field(p, l))

    threads = [threading.Thread(target=ask) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(got) == 4 and all(f is got[0] for f in got) and len(builds) == 1


def test_an_lru_miss_finds_the_interned_field_without_checking_it_again(monkeypatch):
    # on a miss a still-referenced field is looked up by the request, so p
    # is not factored and no modulus is tested again, with or without one
    requests = [(2, 8, None), (3, 10, None), (3, 2, (1, 0, 1)), (65521, 1, None), (5, 1, (0, 1))]
    kept = [make_field(*r) for r in requests]
    kept.append(make_field(2, 8, kept[0].modulus))
    requests.append((2, 8, kept[0].modulus))
    fields._build_field.cache_clear()

    def refuse(*args):
        raise AssertionError("a checked field was checked again")

    monkeypatch.setattr(fields, "_prime_factors", refuse)
    monkeypatch.setattr(fields, "_modulus_is_irreducible", refuse)
    assert all(make_field(*r) is f for r, f in zip(requests, kept))
    monkeypatch.undo()
    # a request that no interned field answers is still checked in full
    fields._build_field.cache_clear()
    with pytest.raises(ReducibleModulus):
        make_field(2, 8, (0,) + kept[0].modulus[1:])
    with pytest.raises(ReducibleModulus):
        parse_field_selector("2^2", "a^2")
    with pytest.raises(NotPrime):
        make_field(6)
    with pytest.raises(NotPrime):
        parse_field_selector("6^1")


def _held_builds(monkeypatch, p, started, release):
    """Makes FieldSpec._build of GF(p^l) set ``started`` and wait for
    ``release``; returns the list of the keys it builds."""
    builds, build = [], FieldSpec._build

    def held_build(spec, *key):
        builds.append(key)
        if key[0] == p:
            started.set()
            release.wait(60)  # set by the test; the timeout only ends a broken run
        return build(spec, *key)

    monkeypatch.setattr(FieldSpec, "_build", held_build)
    return builds


def _not_interned(*pls):
    fields._build_field.cache_clear()
    gc.collect()
    return not [key for key in fields._FIELDS if key[:2] in pls]


def test_a_held_up_build_does_not_block_make_field_of_another(monkeypatch):
    # while one thread builds GF(11^2), held by an event, another thread
    # builds GF(13^2); only the other thread's end releases the first build
    assert _not_interned((11, 2), (13, 2))
    started, release, other_done = threading.Event(), threading.Event(), threading.Event()
    builds = _held_builds(monkeypatch, 11, started, release)
    got = {}

    def ask(p):
        got[p] = make_field(p, 2)
        if p == 13:
            other_done.set()

    threads = [threading.Thread(target=ask, args=(p,)) for p in (11, 13)]
    threads[0].start()
    try:
        assert started.wait(10)
        threads[1].start()
        other_built_first = other_done.wait(10)
    finally:
        release.set()
        for t in threads:
            t.join(10)
    assert not any(t.is_alive() for t in threads)
    assert other_built_first
    assert [key[:2] for key in builds] == [(11, 2), (13, 2)]
    assert got[11] is make_field(11, 2) and got[13] is make_field(13, 2)


def test_two_asks_for_one_held_up_build_get_one_object(monkeypatch):
    # a second thread asks for GF(11^2) while its first build is held: it
    # waits for that build, and both threads get the one object
    assert _not_interned((11, 2))
    started, release = threading.Event(), threading.Event()
    builds = _held_builds(monkeypatch, 11, started, release)
    got = []
    threads = [threading.Thread(target=lambda: got.append(make_field(11, 2))) for _ in range(2)]
    threads[0].start()
    try:
        assert started.wait(10)
        threads[1].start()
    finally:
        release.set()
        for t in threads:
            t.join(10)
    assert not any(t.is_alive() for t in threads)
    assert len(got) == 2 and got[0] is got[1] is make_field(11, 2)
    assert len(builds) == 1


def test_many_threads_asking_for_new_fields_get_one_build_of_each(monkeypatch):
    # 8 threads, more than the cores, each ask for three new fields in their
    # own order under a short switch interval: each field is built once,
    # every thread gets its one object, and no build lock is left behind
    pls = [(17, 2), (19, 2), (23, 2)]
    assert _not_interned(*pls)
    builds, build = [], FieldSpec._build

    def counted(spec, *key):
        builds.append(key[:2])
        return build(spec, *key)

    monkeypatch.setattr(FieldSpec, "_build", counted)
    start, got = threading.Barrier(8), []

    def ask(order):
        start.wait(10)
        got.append({pl: make_field(*pl) for pl in order})

    threads = [threading.Thread(target=ask, args=(pls[i % 3 :] + pls[: i % 3],)) for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(got) == 8 and all(g[pl] is got[0][pl] for g in got for pl in pls)
    assert sorted(builds) == pls and not fields._BUILDING


def test_copies_and_pickles_keep_the_one_field():
    F9 = field(9)
    a, z = F9.element((0, 1)), Poly.z(F9)
    values = [F9, a, F9.zero, a * z + 1, PolyMatrix(F9, [[1, z], [a, 0]])]
    for value in values:
        for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert twin == value
            assert (twin if twin.__class__ is FieldSpec else twin.spec) is F9
            if value.__class__ in (FieldSpec, fields.FieldElement):
                assert twin is value
    # a deep copy no longer copies the field: GF(2^16) took seconds
    z16 = Poly.z(make_field(2, 16))
    start = perf_counter()
    twin = copy.deepcopy(z16)
    assert twin.spec is z16.spec and twin == z16 and perf_counter() - start < 0.5


FIELD_SPEC_PROBES = [
    ((3, 10**50, None), "SearchSpaceTooLarge"),
    ((4, 1, (0, 1)), "NotPrime"),
    ((-1, 1, (0, 1)), "NotPrime"),
    ((10**50, 1, (0, 1)), "SearchSpaceTooLarge"),
    ((3, 3, (3, 3, 3)), "DegreeMismatch"),
]


@pytest.mark.parametrize("args, error", FIELD_SPEC_PROBES, ids=["huge-l", "p-4", "p-minus-1", "huge-p", "bad-modulus"])
def test_field_spec_refuses_bad_arguments_promptly(args, error):
    # in a capped child process, so a hang fails this test, not the suite
    code = (
        "import time; from sdconv import FieldSpec; from sdconv.errors import SdconvError\n"
        "start = time.perf_counter()\n"
        f"try: FieldSpec(*{args!r})\n"
        "except SdconvError as e: print(type(e).__name__, time.perf_counter() - start)\n"
    )
    proc, _ = run_capped(["-c", code], seconds=10)
    assert proc.returncode == 0 and proc.stderr == ""
    name, seconds = proc.stdout.split()
    assert name == error and float(seconds) < 1.0
