import hashlib
import random

import pytest

from commvar import gf


def test_prime_field_modulus():
    spec = gf.field(2, 1)
    assert (spec.p, spec.k, spec.modulus) == (2, 1, (0, 1))


def test_gf4_modulus_unique_quadratic():
    assert gf.field(2, 2).modulus == (1, 1, 1)  # t^2 + t + 1


def test_gf9_modulus_matches_enumeration_oracle():
    # oracle: all monic quadratics over F_3 without roots, smallest
    # coefficient tuple (constant term first) wins
    candidates = []
    for c0 in range(3):
        for c1 in range(3):
            if all((x * x + c1 * x + c0) % 3 != 0 for x in range(3)):
                candidates.append((c0, c1, 1))
    assert gf.field(3, 2).modulus == min(candidates)


def test_field_idempotent_and_validated():
    assert gf.field(5) is gf.field(5, 1)
    assert gf.field(3, 2) is gf.field(3, 2)
    with pytest.raises(ValueError):
        gf.field(6)
    with pytest.raises(ValueError):
        gf.field(2, 0)


def test_basic_arithmetic_examples():
    f5 = gf.field(5)
    assert f5.el(2) * f5.el(3) == f5.one
    f4 = gf.field(2, 2)
    t = f4.el([0, 1])
    assert t * t == f4.el([1, 1])  # t^2 = t + 1 mod t^2+t+1
    f7 = gf.field(7)
    assert f7.el(3) / f7.el(5) == f7.el(2)


def test_division_by_zero_and_mismatch():
    f5 = gf.field(5)
    with pytest.raises(ZeroDivisionError):
        f5.el(1) / f5.zero
    with pytest.raises(ValueError):
        f5.el(1) + gf.field(3).el(1)


def test_seed_moduli_pinned():
    # the lexicographically smallest monic irreducible of each degree
    assert gf.field(2, 9).modulus == (1, 0, 0, 0, 0, 0, 0, 0, 1, 1)
    assert gf.field(3, 6).modulus == (1, 0, 0, 0, 1, 1, 1)
    assert gf.field(5, 4).modulus == (1, 0, 1, 1, 1)
    assert gf.field(2, 16).modulus == (1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 0, 1, 1)


MODULUS_GRID = (
    [(2, k) for k in range(1, 33)]
    + [(3, k) for k in range(1, 13)]
    + [(5, k) for k in range(1, 9)]
    + [(7, k) for k in range(1, 7)]
    + [(251, 2), (257, 2), (17, 3)]
)
# sha256 of repr([(p, k, modulus), ...]) over MODULUS_GRID, recorded while
# field() still tested its candidates with Rabin's test; the distinct-degree
# split must pick the same smallest irreducible for every field
MODULUS_GRID_SHA256 = "8d52f47df957d1473a052831a28fe5f3e5c06ea9a731d7a1a293352687e7b742"


def test_moduli_of_the_field_grid_pinned():
    moduli = [(p, k, gf.field(p, k).modulus) for p, k in MODULUS_GRID]
    assert hashlib.sha256(repr(moduli).encode()).hexdigest() == MODULUS_GRID_SHA256


def test_trial_division_matches_divisor_sieve():
    # literal definitions below 5000: n is prime iff it has exactly two
    # divisors; the prime divisors of n are its divisors with exactly two
    limit = 5000
    divisors = [[] for _ in range(limit)]
    for d in range(1, limit):
        for m in range(d, limit, d):
            divisors[m].append(d)
    for n in range(limit):
        assert gf._is_prime(n) == (len(divisors[n]) == 2), n
        if n:
            assert gf._prime_divisors(n) == [d for d in divisors[n] if len(divisors[d]) == 2], n


def test_pow_equals_repeated_multiplication():
    for spec in (gf.field(5), gf.field(2, 3), gf.field(3, 2), gf.field(17, 2)):
        for a in range(1, spec.q, max(1, spec.q // 7)):
            for base, sign in ((a, 1), (spec.inv(a), -1)):
                acc = spec.one_idx
                for e in range(21):
                    assert spec.pow(a, sign * e) == acc, (spec, a, sign * e)
                    acc = spec.mul(acc, base)
        assert spec.pow(0, 0) == spec.one_idx and spec.pow(0, 3) == 0


def test_inverse_exhaustive_small_fields():
    # GF(5^2) inverts through its tables, GF(3^6) = 729 (too big for tables)
    # by a power; the others as they come
    for p, k in [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2), (2, 3), (5, 2), (3, 6)]:
        spec = gf.field(p, k)
        for a in spec.elements():
            if a:
                assert a * (spec.one / a) == spec.one
    assert gf.field(5, 2)._inv_t is not None and gf.field(3, 6)._inv_t is None


TABLE_FIELDS = [(2, 1), (3, 1), (251, 1)] + [
    (p, k) for p in (2, 3, 5, 7, 11, 13) for k in range(2, 9) if p**k <= 256
]


def _slow_pow(spec, a, e):
    out = spec.one_idx
    while e:
        if e & 1:
            out = spec._mul_slow(out, a)
        a = spec._mul_slow(a, a)
        e >>= 1
    return out


@pytest.mark.parametrize("p,k", TABLE_FIELDS)
def test_tables_agree_with_coefficient_arithmetic(p, k):
    spec = gf.field(p, k)
    q = spec.q
    if q <= 64:
        pairs = [(a, b) for a in range(q) for b in range(q)]
    else:
        rng = random.Random(q)
        pairs = [(rng.randrange(q), rng.randrange(q)) for _ in range(2000)]
    coeffs = spec.idx_to_coeffs
    for a, b in pairs:
        assert spec._mul_t[a][b] == spec._mul_slow(a, b), (a, b)
        summed = ((x + y) % p for x, y in zip(coeffs(a), coeffs(b)))
        assert spec._add_t[a][b] == spec.coeffs_to_idx(summed), (a, b)
        diff = ((x - y) % p for x, y in zip(coeffs(a), coeffs(b)))
        assert spec._sub_t[a][b] == spec.coeffs_to_idx(diff), (a, b)
    for a in range(q):
        assert spec._neg_t[a] == spec.coeffs_to_idx(-x % p for x in coeffs(a))
    for a in range(1, q):
        assert spec._inv_t[a] == _slow_pow(spec, a, q - 2), a


def test_construction_builds_tables_up_to_256():
    for p, k in TABLE_FIELDS:
        fresh = gf.FieldSpec(p, k, gf.field(p, k).modulus)
        tables = (fresh._add_t, fresh._sub_t, fresh._neg_t, fresh._mul_t, fresh._inv_t)
        assert None not in tables
        assert (fresh._sub_t is fresh._add_t) == (p == 2)  # -1 = 1 in characteristic 2
        assert fresh._tables() == (fresh._add_t, fresh._sub_t, fresh._mul_t)
    for p, k in [(2, 9), (3, 6), (257, 1)]:
        spec = gf.field(p, k)
        assert (spec._add_t, spec._sub_t, spec._neg_t, spec._mul_t, spec._inv_t) == (None,) * 5
        add, sub, mul = spec._tables()  # row views over the scalar methods
        a, b = spec.q - 2, 3
        scalar = (spec.add, spec.sub, spec.mul)
        assert [t[a][b] for t in (add, sub, mul)] == [fn(a, b) for fn in scalar]


@pytest.mark.parametrize("p,k", [(2, 9), (3, 6)])
def test_untabled_field_axioms_on_samples(p, k):
    # q > 256 builds no tables, so + and - run digit by digit
    spec = gf.field(p, k)
    rng = random.Random(spec.q)
    els = [spec.el(rng.randrange(spec.q)) for _ in range(12)] + [spec.zero, spec.one]
    for a in els:
        assert a + -a == spec.zero and sum([a] * p, spec.zero) == spec.zero
        if a:
            assert a * (spec.one / a) == spec.one
        for b in els:
            assert (a - b) + b == a and a + b == b + a
            for c in els:
                assert a * (b + c) == a * b + a * c


def test_embed_tabled_gf8_into_untabled_gf512():
    src, dst = gf.field(2, 3), gf.field(2, 9)
    assert src._add_t is not None and dst._add_t is None
    images = {a: gf.embed(a, dst) for a in src.elements()}
    assert len(set(images.values())) == src.q  # injective
    for a in src.elements():
        for b in src.elements():
            assert gf.embed(a + b, dst) == images[a] + images[b]
            assert gf.embed(a * b, dst) == images[a] * images[b]


def test_frobenius_fixes_prime_subfield():
    f4 = gf.field(2, 2)
    assert gf.frobenius(f4.one) == f4.one
    assert gf.frobenius(f4.zero) == f4.zero
    t = f4.el([0, 1])
    assert gf.frobenius(t) == t + 1
    fixed = [a for a in f4.elements() if gf.frobenius(a) == a]
    assert len(fixed) == 2


def test_frobenius_iterated_k_is_identity():
    for p, k in [(2, 2), (3, 2), (2, 3), (5, 2), (2, 4)]:
        spec = gf.field(p, k)
        for a in spec.elements():
            b = a
            for _ in range(k):
                b = gf.frobenius(b)
            assert b == a


def test_freshman_dream():
    for spec in [gf.field(3, 2), gf.field(2, 3), gf.field(5)]:
        els = list(spec.elements())
        for a in els:
            for b in els:
                assert (a + b) ** spec.p == a**spec.p + b**spec.p


def test_root_of_unity_examples():
    assert gf.root_of_unity(gf.field(3), 2) == gf.field(3).el(2)
    z = gf.root_of_unity(gf.field(5), 4)
    assert z == gf.field(5).el(2)  # smallest primitive element of F_5
    assert z**4 == gf.field(5).one and z**2 != gf.field(5).one
    f4 = gf.field(2, 2)
    assert gf.root_of_unity(f4, 3) == f4.el([0, 1])


def test_root_of_unity_orders():
    for p, k, d in [(3, 1, 2), (5, 1, 4), (7, 1, 6), (2, 2, 3), (3, 2, 8), (3, 2, 4)]:
        spec = gf.field(p, k)
        z = gf.root_of_unity(spec, d)
        assert z**d == spec.one
        for e in range(1, d):
            if d % e == 0:
                assert z**e != spec.one
    with pytest.raises(ValueError):
        gf.root_of_unity(gf.field(5), 3)


def test_embed_prime_field_constants():
    f2, f4 = gf.field(2), gf.field(2, 2)
    assert gf.embed(f2.one, f4) == f4.one
    assert gf.embed(f2.zero, f4) == f4.zero


def test_embed_gf4_into_gf16_root_oracle():
    f4, f16 = gf.field(2, 2), gf.field(2, 4)
    image = gf.embed(f4.el([0, 1]), f16)
    # oracle: enumerate all roots of t^2 + t + 1 in GF(16)
    roots = [x for x in f16.elements() if x * x + x + f16.one == f16.zero]
    assert len(roots) == 2 and image in roots
    assert image == min(roots, key=lambda a: a.idx)  # deterministic choice


def test_embed_is_ring_homomorphism_exhaustive():
    cases = [(gf.field(2, 2), gf.field(2, 4)), (gf.field(3), gf.field(3, 2))]
    for src, dst in cases:
        images = {}
        for a in src.elements():
            images[a.idx] = gf.embed(a, dst)
        assert len(set(im.idx for im in images.values())) == src.q  # injective
        for a in src.elements():
            for b in src.elements():
                assert gf.embed(a + b, dst) == images[a.idx] + images[b.idx]
                assert gf.embed(a * b, dst) == images[a.idx] * images[b.idx]


def test_embed_errors():
    with pytest.raises(ValueError):
        gf.embed(gf.field(2).one, gf.field(3, 2))
    with pytest.raises(ValueError):
        gf.embed(gf.field(2, 2).one, gf.field(2, 3))


def test_text_round_trip():
    for spec in [gf.field(5), gf.field(2, 2), gf.field(3, 2), gf.field(2, 4)]:
        for a in spec.elements():
            assert spec.parse(str(a)) == a
    assert str(gf.field(7).el(3)) == "3"
    assert str(gf.field(2, 2).el([1, 1])) == "[1,1]"


def test_element_order_is_coefficient_tuple_order():
    f4 = gf.field(2, 2)
    ordering = [a.coeffs for a in f4.elements()]
    assert ordering == sorted(ordering)
