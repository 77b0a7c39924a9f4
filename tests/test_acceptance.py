"""Acceptance suite: one criterion per test, with a printed result line each.

Run with `pytest tests/test_acceptance.py -v -s` to see every line.

Note on criteria 8 and 9: where they state a dimension at the smallest
field sizes (commuting pairs at n=3, q in {2,4}; group pairs at (2,2) and
(4,2), q in {3,9}, and (3,3), q in {4,16}), the test reads it from the
exact point-count polynomial: the polynomial must reproduce every asserted
count, its degree is the dimension, and its leading coefficient must be 1
(one component of top dimension).  The counts are exact (brute-force
anchored).  The two-point ratio estimator is exact only for a pure power
law, and these counts carry lower-order terms, e.g.
q^12+q^11+2*q^10-2*q^8-2*q^7+q^5 for commuting pairs at n=3.  Its figures
are printed as diagnostics:

    commuting pairs, n=3, q in {2,4}:   raw exponent 11.5850  (residual 0.415)
    group pairs (2,2), q in {3,9}:      raw exponent  5.6196  (rounds to 6)
    group pairs (3,3), q in {4,16}:     raw exponent 10.3768  (residual 0.377)
    group pairs (4,2), q in {3,9}:      raw exponent 18.4979  (residual 0.498)

No correct count meets the 0.35 residual bound at these sizes, so the bound
is asserted only where the fit is the stated method (criteria 7, 8 at n=2
and 10).
"""

import itertools
import json
import math
import random
import time
from contextlib import redirect_stderr, redirect_stdout
from decimal import Decimal
from io import StringIO

from commvar import census as cs
from commvar import cli, gf, matgf as mg, typea_group as tg, weyl

RESIDUAL_BOUND = Decimal("0.35")


def say(line: str) -> None:
    print(line, flush=True)


def all_mats(spec, n):
    q = spec.q
    for entries in itertools.product(range(q), repeat=n * n):
        yield mg.Mat(spec, [entries[i * n : (i + 1) * n] for i in range(n)])


# -- criterion 1 ----------------------------------------------------------------

def test_criterion_01_construction_identities():
    start = time.monotonic()
    rng = random.Random(1)
    checked = 0
    for p in (2, 3, 5):
        spec = gf.field(p)
        for r in (1, 2, 3):
            n = p * r
            if n > 15:
                continue
            for _ in range(5):
                scalars = [gf.Fe(spec, rng.randrange(p)) for _ in range(r)]
                pair = weyl.build_block_pair(spec, r, scalars)
                assert mg.lie_commutator(pair.x, pair.y) == mg.Mat.identity(spec, n)
                assert mg.is_regular(pair.x)
                inf = mg.invariant_factors(pair.x)
                assert len(inf.factors) == 1
                checked += 1
    elapsed = time.monotonic() - start
    say(f"criterion  1 (construction identities): PASS — {checked} instances in {elapsed:.2f}s")
    assert elapsed < 10.0


# -- criterion 2 ----------------------------------------------------------------

def test_criterion_02_weyl_irreducibility():
    rng = random.Random(2)
    for p in (2, 3, 5, 7):
        spec = gf.field(p)
        for _ in range(3):
            alpha = gf.Fe(spec, rng.randrange(p))
            beta = gf.Fe(spec, rng.randrange(p))
            pair = weyl.weyl_pair(spec, alpha, beta)
            assert pair.algebra_dimension() == p * p
            assert pair.a**p == mg.Mat.scalar(spec, p, alpha**p)
            assert pair.b**p == mg.Mat.scalar(spec, p, beta**p)
    say("criterion  2 (algebra dimension p^2, central p-th powers): PASS — p in {2,3,5,7}")


# -- criterion 3 ----------------------------------------------------------------

def test_criterion_03_trace_obstruction():
    for n, p in ((2, 3), (3, 2), (2, 5)):
        spec = gf.field(p)
        assert cs.count_lie_pairs(n, spec, 1, "class") == 0
    assert cs.count_lie_pairs(2, gf.field(3), 1, "brute") == 0  # exhaustive 3^8 pairs
    say("criterion  3 (trace obstruction, p does not divide n): PASS — counts all 0")


# -- criterion 4 ----------------------------------------------------------------

def test_criterion_04_solution_family():
    for p, r in ((2, 2), (3, 2), (2, 3)):
        spec = gf.field(p)
        n = p * r
        rng = random.Random(40 + p * r)
        scalars = [gf.Fe(spec, rng.randrange(p)) for _ in range(r)]
        pair = weyl.build_block_pair(spec, r, scalars)
        family = weyl.solution_family(pair.x, pair.y)
        assert family.dim == n
        for y2 in family.sample(20, seed=41):
            f = family.decompose(y2)
            assert f is not None and f.degree <= n - 1
            assert family.member(f) == y2
    say("criterion  4 (solution family Y + f(X)): PASS — dims exact, 20 reconstructions each")


# -- criterion 5 ----------------------------------------------------------------

def _exhaustive_divisibility(spec, n, p):
    ident = mg.Mat.identity(spec, n)
    mats = list(all_mats(spec, n))
    found = 0
    for a in mats:
        for b in mats:
            if a @ b - b @ a == ident:
                found += 1
                for m in (a, b):
                    sizes = mg.jordan_type(m).all_sizes()
                    assert all(s % p == 0 for s in sizes), (a.to_text(), b.to_text())
    return found


def test_criterion_05_block_divisibility():
    n22 = _exhaustive_divisibility(gf.field(2), 2, 2)
    n24 = _exhaustive_divisibility(gf.field(2, 2), 2, 2)
    assert n22 == 24 and n24 == 960
    violations = 0
    for spec, r in ((gf.field(2), 2), (gf.field(3), 1)):
        for a, b in weyl.sample_solution_pairs(spec, r, 1000, seed=5):
            for m in (a, b):
                if any(s % spec.p for s in mg.jordan_type(m).all_sizes()):
                    violations += 1
    assert violations == 0
    say(
        "criterion  5 (block sizes divisible by p): PASS — exhaustive %d+%d pairs, 2000 sampled draws, 0 violations"
        % (n22, n24)
    )


# -- criterion 6 ----------------------------------------------------------------

def test_criterion_06_kernel_computation():
    for p in (2, 3, 5):
        spec = gf.field(p)
        pair = weyl.build_block_pair(spec, 2)
        assert not (pair.x**p).is_zero
        rec = weyl.kernel_action_check(pair)
        assert rec.ok and rec.multiplier != spec.zero
        # |multiplier| = (p-1)!: with this sign convention it is -1 = (p-1)!
        assert rec.multiplier in (
            spec.el(math.factorial(p - 1)),
            spec.el(-math.factorial(p - 1)),
        )
    say("criterion  6 (X^p != 0 and kernel action multiplier): PASS — p in {2,3,5}")


# -- criterion 7 ----------------------------------------------------------------

def test_criterion_07_scalar_commutator_dimension_fit():
    start = time.monotonic()
    # (p, n) = (2, 2): class at q in {2,4,8}, brute cross-check at q in {2,4}
    f2, f4, f8 = gf.field(2), gf.field(2, 2), gf.field(2, 3)
    counts_22 = {q: cs.count_lie_pairs(2, s, 1, "class") for q, s in [(2, f2), (4, f4), (8, f8)]}
    assert counts_22 == {2: 24, 4: 960, 8: 32256}
    assert cs.count_lie_pairs(2, f2, 1, "brute") == counts_22[2]
    assert cs.count_lie_pairs(2, f4, 1, "brute") == counts_22[4]
    fit22 = cs.estimate_dimension(list(counts_22.items()))
    assert fit22.fitted == 5 and fit22.residual < RESIDUAL_BOUND

    # (p, n) = (3, 3): class at q in {3,9}
    f3, f9 = gf.field(3), gf.field(3, 2)
    counts_33 = {3: cs.count_lie_pairs(3, f3, 1, "class"), 9: cs.count_lie_pairs(3, f9, 1, "class")}
    assert counts_33 == {3: 50544, 9: 3439013760}
    fit33 = cs.estimate_dimension(list(counts_33.items()))
    assert fit33.fitted == 10 and fit33.residual < RESIDUAL_BOUND

    # (p, n) = (2, 4): class at q in {2,4}, brute cross-check at q = 2
    counts_24 = {2: cs.count_lie_pairs(4, f2, 1, "class"), 4: cs.count_lie_pairs(4, f4, 1, "class")}
    assert counts_24 == {2: 295680, 4: 83174031360}
    assert cs.count_lie_pairs(4, f2, 1, "brute") == counts_24[2]
    fit24 = cs.estimate_dimension(list(counts_24.items()))
    assert fit24.fitted == 18 and fit24.residual < RESIDUAL_BOUND

    elapsed = time.monotonic() - start
    say(
        "criterion  7 (scalar-commutator fits 5/10/18): PASS — residuals %.3f/%.3f/%.3f in %.1fs"
        % (fit22.residual, fit33.residual, fit24.residual, elapsed)
    )
    assert elapsed < 300.0


# -- criterion 8 ----------------------------------------------------------------

def test_criterion_08_commuting_fit_n2():
    counts = {2: cs.count_commuting_pairs(2, gf.field(2)), 4: cs.count_commuting_pairs(2, gf.field(2, 2))}
    assert counts == {2: 88, 4: 5056}
    fit = cs.estimate_dimension(list(counts.items()))
    ok = fit.fitted == 6 and fit.residual < RESIDUAL_BOUND
    say(
        "criterion  8 (commuting fit, n=2): %s — fitted %d, residual %.4f"
        % ("PASS" if ok else "FAIL", fit.fitted, fit.residual)
    )
    assert fit.fitted == 6
    assert fit.residual < RESIDUAL_BOUND


def _exact_dimension(label, variety, counts, dimension, **params):
    """Assert the polynomial reproduces the counts, with degree dimension and
    leading coefficient 1; print the two-point fit next to it."""
    poly = cs.point_count_polynomial(variety, **params)
    values = {q: poly(q) for q in counts}
    fit = cs.estimate_dimension(list(counts.items()))
    ok = values == counts and poly.degree == dimension and poly.leading_coefficient == 1
    say(
        "%s: %s — exact dimension %s from %s; two-point fit %d, raw %s, "
        "residual %.4f (diagnostic)"
        % (label, "PASS" if ok else "FAIL", poly.degree, poly, fit.fitted,
           str(fit.raw)[:8], fit.residual)
    )
    assert values == counts, (poly, values, counts)
    assert poly.degree == dimension, poly
    assert poly.leading_coefficient == 1, poly


def test_criterion_08_commuting_fit_n3():
    counts = {2: cs.count_commuting_pairs(3, gf.field(2)), 4: cs.count_commuting_pairs(3, gf.field(2, 2))}
    assert counts == {2: 7456, 4: 22905856}  # brute-anchored exact values
    _exact_dimension("criterion  8 (commuting, n=3)", "commuting", counts, 12, n=3)


# -- criterion 9 ----------------------------------------------------------------

def test_criterion_09_group_brute_equals_class():
    f3 = gf.field(3)
    zeta = gf.root_of_unity(f3, 2)
    brute = cs.count_group_pairs(2, f3, zeta, "brute")  # 24 x mod F_3^x, 96 solutions y
    cls = cs.count_group_pairs(2, f3, zeta, "class")
    classes = cs.enumerate_classes(2, f3, restrict_invertible=True)
    fixed = sum(1 for c in classes if c.twisted(zeta) == c)
    assert brute == cls == cs.gl_order(2, 3) * fixed == 96
    say("criterion  9 (group count, brute = class at q=3): PASS — 96 solutions y over 24 x = 96")


def test_criterion_09_group_fit_22():
    zeta3 = gf.root_of_unity(gf.field(3), 2)
    zeta9 = gf.root_of_unity(gf.field(3, 2), 2)
    counts = {
        3: cs.count_group_pairs(2, gf.field(3), zeta3, "class"),
        9: cs.count_group_pairs(2, gf.field(3, 2), zeta9, "class"),
    }
    assert counts == {3: 96, 9: 46080}
    _exact_dimension("criterion  9 (group (2,2), q in {3,9})", "group", counts, 5, n=2, d=2)


def test_criterion_09_group_fit_33():
    z4 = gf.root_of_unity(gf.field(2, 2), 3)
    z16 = gf.root_of_unity(gf.field(2, 4), 3)
    counts = {
        4: cs.count_group_pairs(3, gf.field(2, 2), z4, "class"),
        16: cs.count_group_pairs(3, gf.field(2, 4), z16, "class"),
    }
    assert counts == {4: 544320, 16: 962357760000}
    _exact_dimension("criterion  9 (group (3,3), q in {4,16})", "group", counts, 10, n=3, d=3)


def test_criterion_09_group_fit_42():
    zeta3 = gf.root_of_unity(gf.field(3), 2)
    zeta9 = gf.root_of_unity(gf.field(3, 2), 2)
    counts = {
        3: cs.count_group_pairs(4, gf.field(3), zeta3, "class"),
        9: cs.count_group_pairs(4, gf.field(3, 2), zeta9, "class"),
    }
    assert counts == {3: 194088960, 9: 129945198329856000}
    _exact_dimension("criterion  9 (group (4,2), q in {3,9})", "group", counts, 18, n=4, d=2)


# -- criterion 10 ---------------------------------------------------------------

def test_criterion_10_twisted_class_locus():
    f3, f9 = gf.field(3), gf.field(3, 2)
    zeta3, zeta9 = gf.root_of_unity(f3, 2), gf.root_of_unity(f9, 2)
    counts = {3: cs.count_w(2, f3, zeta3, "class"), 9: cs.count_w(2, f9, zeta9, "class")}
    assert counts == {3: 18, 9: 648}
    fit = cs.estimate_dimension(list(counts.items()))
    assert fit.fitted == 3 and fit.residual < RESIDUAL_BOUND
    # exhaustive agreement with per-x conjugacy testing at q = 3
    brute = sum(
        1
        for x in all_mats(f3, 2)
        if x.is_invertible() and tg.is_conjugate_to_zeta_x(x, zeta3)
    )
    assert brute == counts[3]
    say(
        "criterion 10 (twisted-class fit 3 and per-x agreement): PASS — residual %.4f"
        % fit.residual
    )


# -- criterion 11 ---------------------------------------------------------------

def test_criterion_11_solution_coset_law():
    f3 = gf.field(3)
    zeta = gf.root_of_unity(f3, 2)
    zi = mg.Mat.scalar(f3, 2, zeta)
    invertibles = [m for m in all_mats(f3, 2) if m.is_invertible()]
    for x in invertibles:
        brute = sum(1 for y in invertibles if mg.group_commutator(x, y) == zi)
        if tg.is_conjugate_to_zeta_x(x, zeta):
            coset = tg.solution_set_for_x(x, zeta)
            assert coset is not None and brute == coset.count
        else:
            assert brute == 0 and tg.solution_set_for_x(x, zeta) is None
    say("criterion 11 (solution-coset law, exhaustive GL_2(F_3)): PASS")


# -- criterion 12 ---------------------------------------------------------------

def test_criterion_12_centralizer_order_formula():
    cases = [(gf.field(2), 2), (gf.field(3), 2), (gf.field(2), 3)]
    total = 0
    for spec, n in cases:
        mats = list(all_mats(spec, n))
        for c in cs.enumerate_classes(n, spec):
            rep = c.representative
            brute = sum(1 for g in mats if g.is_invertible() and g @ rep == rep @ g)
            assert brute == c.centralizer_order, (c.data, brute, c.centralizer_order)
            total += 1
    say("criterion 12 (centralizer-order formula vs brute commutants): PASS — %d classes" % total)


# -- criterion 13 ---------------------------------------------------------------

def test_criterion_13_dimension_arithmetic():
    grid = [(2, 2), (2, 4), (3, 3), (2, 6), (5, 5), (3, 9)]
    for p, n in grid:
        r = n // p
        dims = weyl.component_dimensions(p, n)
        assert dims.dim_scalar_commutator == n * n + r
        assert dims.dim_commuting == n * n + n
        assert dims.pgl_components == (n * n + n - 2, n * n + r - 1)
        assert dims.sl_dimension == n * n + n - 2
        assert dims.psl_times_k_components == (n * n + r - 1, n * n + n - 4)
        assert dims.equal_dimension_exception == ((n, p) == (2, 2))
    for n, d in [(2, 2), (3, 3), (4, 2), (6, 3), (6, 2)]:
        gd = tg.group_dims(n, d)
        assert gd.dim_pairs == n * n + n // d
        assert gd.dim_twisted_classes == n * n + n // d - n
    say("criterion 13 (closed-form dimension arithmetic): PASS — all formulas reproduced")


# -- criterion 14 ---------------------------------------------------------------

ACCEPTANCE_COMMANDS = [
    ["construct", "weyl", "--p", "2", "--alpha", "0", "--beta", "0"],
    ["construct", "blockpair", "--p", "2", "--r", "2"],
    ["construct", "splitpair", "--p", "2", "--r", "2", "--a", "0,1", "--b", "0,0"],
    ["construct", "group", "--n", "2", "--d", "2", "--q", "3"],
    ["--seed", "3", "verify", "--suite", "weyl", "--p", "2", "--r", "2"],
    ["--seed", "3", "verify", "--suite", "group", "--n", "2", "--d", "2", "--q", "3"],
    ["verify", "--suite", "lie-trace", "--n", "2", "--p", "3"],
    ["count", "lie", "--p", "2", "--n", "2", "--qs", "2,4,8", "--expect"],
    ["count", "commuting", "--n", "2", "--qs", "2,4", "--expect"],
    ["count", "W", "--n", "2", "--d", "2", "--qs", "3,9", "--expect"],
    ["count", "group", "--n", "2", "--d", "2", "--qs", "3,9"],
    ["classes", "--n", "2", "--q", "3"],
    ["dims", "lie", "--p", "2", "--n", "4"],
    ["dims", "group", "--n", "4", "--d", "2"],
]


def _run_cli(argv):
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def test_criterion_14_determinism():
    for argv in ACCEPTANCE_COMMANDS:
        code1, out1 = _run_cli(argv)
        code2, out2 = _run_cli(argv)
        assert code1 == code2
        assert out1 == out2, argv
        json.loads(out1)  # every document is valid JSON
    say("criterion 14 (byte-identical reruns): PASS — %d commands" % len(ACCEPTANCE_COMMANDS))
