import random

import pytest

import _type_sum as ts
from commvar import gf
from commvar import polyring as pr
from commvar.errors import LimitExceeded

F2 = gf.field(2)
F3 = gf.field(3)
F4 = gf.field(2, 2)
F5 = gf.field(5)


def poly(spec, coeffs):
    return pr.Poly.from_coeffs(spec, coeffs)


def reference_euclid(f, g):
    """Independent monic gcd used as an oracle."""
    while not g.is_zero:
        f, g = g, divmod(f, g)[1]
    return f.monic() if not f.is_zero else f


def test_gcd_examples():
    assert pr.gcd(poly(F2, [1, 0, 1]), poly(F2, [1, 1])) == poly(F2, [1, 1])
    q, r = divmod(poly(F3, [0, 0, 0, 1]), poly(F3, [0, 0, 1]))
    assert q == poly(F3, [0, 1]) and r.is_zero
    f, g = poly(F3, [1, 0, 1]), poly(F3, [2, 1, 1])
    assert pr.gcd(f, g) == reference_euclid(f, g)
    assert pr.gcd(pr.Poly.zero(F3), pr.Poly.zero(F3)).is_zero


def test_gcd_is_monic_and_divides():
    rng = random.Random(2)
    for _ in range(50):
        spec = [F2, F3, F4, F5][rng.randrange(4)]
        f = pr.Poly(spec, tuple(rng.randrange(spec.q) for _ in range(rng.randrange(1, 7))))
        g = pr.Poly(spec, tuple(rng.randrange(spec.q) for _ in range(rng.randrange(1, 7))))
        d = pr.gcd(f, g)
        assert d == reference_euclid(f, g)
        if not d.is_zero:
            assert d.is_monic
            if not f.is_zero:
                assert divmod(f, d)[1].is_zero
            if not g.is_zero:
                assert divmod(g, d)[1].is_zero


def test_division_by_zero_polynomial():
    with pytest.raises(ZeroDivisionError):
        divmod(poly(F2, [1, 1]), pr.Poly.zero(F2))


def test_is_irreducible_examples():
    assert pr.is_irreducible(poly(F2, [1, 1, 1]))
    assert not pr.is_irreducible(poly(F2, [1, 0, 1]))
    assert pr.is_irreducible(poly(F3, [1, 0, 1]))
    with pytest.raises(ValueError):
        pr.is_irreducible(pr.Poly.one(F2))


def test_factor_examples():
    fac = pr.factor(poly(F2, [1, 0, 1]))
    assert fac == ((poly(F2, [1, 1]), 2),)
    # t^5 - 2^5 = (t - 2)^5 over F_5
    f = poly(F5, [-(2**5) % 5] + [0] * 4 + [1])
    fac = pr.factor(f)
    assert fac == ((poly(F5, [-2 % 5, 1]), 5),)


def test_factor_reassembly_property():
    rng = random.Random(11)
    for trial in range(80):
        spec = [F2, F3, F4, F5][trial % 4]
        coeffs = [rng.randrange(spec.q) for _ in range(rng.randrange(1, 7))] + [1]
        f = pr.Poly(spec, tuple(coeffs))
        if f.degree < 1:
            continue
        prod = pr.Poly.one(spec)
        for g, mult in pr.factor(f):
            assert pr.is_irreducible(g)
            assert g.is_monic
            prod = prod * g**mult
        assert prod == f.monic()


def test_factor_repeated_multiplicities_char_p():
    # multiplicity divisible by p exercises the p-th root branch
    g = poly(F3, [1, 1])
    h = poly(F3, [2, 1])
    f = g**6 * h**2
    assert dict(pr.factor(f)) == {g: 6, h: 2}
    f2 = poly(F2, [1, 1]) ** 4 * poly(F2, [1, 1, 1]) ** 2
    assert dict(pr.factor(f2)) == {poly(F2, [1, 1]): 4, poly(F2, [1, 1, 1]): 2}


def test_factor_deterministic_for_seed():
    # the factorization depends on f alone: a repeat, a copy built anew and
    # a scalar multiple all give the same sorted factors
    rng = random.Random(5)
    spec = F3
    f = pr.Poly(spec, tuple(rng.randrange(3) for _ in range(7)) + (1,))
    assert pr.factor(f) == pr.factor(f) == pr.factor(pr.Poly(spec, f.coeffs))
    assert pr.factor(f * pr.Poly(spec, (2,))) == pr.factor(f)


def test_irreducibles_of_degree_examples():
    assert [f.pretty() for f in pr.irreducibles_of_degree(F2, 1)] == ["t", "t+1"]
    assert [f.pretty() for f in pr.irreducibles_of_degree(F2, 2)] == ["t^2+t+1"]
    assert len(pr.irreducibles_of_degree(F3, 2)) == 3


def test_irreducible_counts_match_necklace_formula():
    specs = [F2, F3, F4, F5, gf.field(7), gf.field(2, 3), gf.field(3, 2), gf.field(2, 4)]
    cases = [(spec, d) for spec in specs for d in range(1, 13) if spec.q**d <= 4096]
    # GF(17^2) has no tables (q > 256), so the sieve's sums, products and
    # negations take FieldSpec's coefficient paths
    cases += [(gf.field(17, 2), 1), (gf.field(17, 2), 2)]
    rng = random.Random(27)
    for spec, d in cases:
        lst = pr.irreducibles_of_degree(spec, d)
        assert len(lst) == ts.irreducible_count_poly(d)(spec.q), (spec, d)
        assert all(f.is_monic and f.degree == d for f in lst)
        assert all(f.coeffs < g.coeffs for f, g in zip(lst, lst[1:]))
        sample = lst if len(lst) <= 4096 else rng.sample(lst, 100)
        assert all(pr.is_irreducible(f) for f in sample)


def test_enumeration_limit():
    with pytest.raises(LimitExceeded):
        pr.irreducibles_of_degree(F5, 10)


def test_text_round_trip():
    f = poly(F2, [1, 0, 1])
    assert pr.Poly.from_text(F2, f.to_text()) == f
    g = pr.Poly.from_coeffs(F4, [F4.el([1, 1]), F4.one])
    assert pr.Poly.from_text(F4, g.to_text()) == g
    assert poly(F2, [1, 0, 1]).to_text() == "1,0,1"


def test_pretty():
    assert poly(F2, [0, 0, 0, 0, 1]).pretty() == "t^4"
    assert poly(F3, [2, 2, 1]).pretty() == "t^2+2*t+2"
    assert pr.Poly.zero(F3).pretty() == "0"


def test_eval_and_roots():
    f = poly(F5, [3, 0, 1])  # t^2 + 3
    for a in F5.elements():
        assert f(a) == a * a + 3
    g = poly(F5, [4, 0, 1])  # t^2 - 1
    assert pr.roots(g) == [F5.el(1), F5.el(4)]
