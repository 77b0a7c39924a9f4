import itertools
import os
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import pytest

from commvar import census as cs
from commvar import gf, matgf as mg, typea_group as tg
from commvar.errors import LimitExceeded

F2 = gf.field(2)
F3 = gf.field(3)
F4 = gf.field(2, 2)
F5 = gf.field(5)


def all_mats(spec, n):
    q = spec.q
    for entries in itertools.product(range(q), repeat=n * n):
        yield mg.Mat(spec, [entries[i * n : (i + 1) * n] for i in range(n)])


def test_partitions():
    assert cs.partitions(0) == ((),)
    assert cs.partitions(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))
    assert cs.conjugate_partition((3, 1)) == (2, 1, 1)
    assert cs.conjugate_partition((2, 2)) == (2, 2)


def test_gl_order():
    assert cs.gl_order(1, 2) == 1
    assert cs.gl_order(2, 2) == 6
    assert cs.gl_order(2, 3) == 48
    assert cs.gl_order(3, 2) == 168


def test_enumerate_classes_examples():
    assert len(cs.enumerate_classes(1, F2, restrict_invertible=True)) == 1
    # brute orbit oracle: conjugacy classes of M_2(F_2) under GL_2(F_2)
    mats = list(all_mats(F2, 2))
    gl = [g for g in mats if g.is_invertible()]
    orbits = {frozenset(g @ m @ g.inverse() for g in gl) for m in mats}
    classes = cs.enumerate_classes(2, F2)
    assert len(classes) == len(orbits) == 6
    # invertible classes of GL_2(F_3) against the orbit count
    mats3 = [m for m in all_mats(F3, 2) if m.is_invertible()]
    orbits3 = {frozenset(g @ m @ g.inverse() for g in mats3) for m in mats3}
    classes3 = cs.enumerate_classes(2, F3, restrict_invertible=True)
    assert len(classes3) == len(orbits3)


def test_class_completeness():
    for spec, n in [(F2, 2), (F3, 2), (F2, 3), (F4, 2)]:
        classes = cs.enumerate_classes(n, spec)
        assert sum(c.class_size for c in classes) == spec.q ** (n * n)
        inv = cs.enumerate_classes(n, spec, restrict_invertible=True)
        assert sum(c.class_size for c in inv) == cs.gl_order(n, spec.q)
        for c in classes:
            assert c.class_size * c.centralizer_order == cs.gl_order(n, spec.q)


def test_representative_reconstructs_data():
    for c in cs.enumerate_classes(2, F3):
        assert mg.primary_data(c.representative) == c.data
    for c in cs.enumerate_classes(3, F2):
        assert mg.primary_data(c.representative) == c.data


def test_class_enumeration_deterministic_and_limited():
    a = cs.enumerate_classes(2, F3)
    b = cs.enumerate_classes(2, F3)
    assert [c.data for c in a] == [c.data for c in b]
    with pytest.raises(LimitExceeded):
        cs.enumerate_classes(2, F3, limits=cs.CensusLimits(max_classes=3))


def test_centralizer_order_examples_and_brute():
    classes = cs.enumerate_classes(2, F2)
    by_data = {c.data: c for c in classes}
    zero = mg.Mat.zeros(F2, 2, 2)
    assert cs.ClassRep.from_matrix(zero).centralizer_order == 6
    j = mg.Mat.from_rows(F2, [[0, 1], [0, 0]])
    assert cs.ClassRep.from_matrix(j).centralizer_order == 2
    # brute commutant enumeration for every class of M_2(F_2) and M_2(F_3)
    for spec, n in [(F2, 2), (F3, 2)]:
        mats = list(all_mats(spec, n))
        for c in cs.enumerate_classes(n, spec):
            rep = c.representative
            brute = sum(1 for g in mats if g.is_invertible() and g @ rep == rep @ g)
            assert brute == c.centralizer_order


def test_dim_centralizer_matches_linear_algebra():
    import random

    rng = random.Random(0)
    for trial in range(20):
        spec = [F2, F3, F4][trial % 3]
        n = rng.randrange(1, 4)
        a = mg.Mat(spec, [[rng.randrange(spec.q) for _ in range(n)] for _ in range(n)])
        assert cs.dim_centralizer_from_primary(mg.primary_data(a)) == mg.centralizer_dimension(a)


def test_count_lie_pairs_small():
    assert cs.count_lie_pairs(1, F2, 0, "brute") == 4  # all pairs commute
    assert cs.count_lie_pairs(1, F3, 0, "class") == 9
    for strategy in ("brute", "class"):
        assert cs.count_lie_pairs(2, F2, 1, strategy) == 24
        assert cs.count_lie_pairs(2, F3, 1, strategy) == 0  # trace obstruction
    assert cs.count_lie_pairs(2, F4, 1, "class") == 960
    assert cs.count_lie_pairs(2, F4, 1, "brute") == 960


def test_count_lie_nonidentity_scalar():
    # c and 1 give the same count: (A,B) -> (cA, B) is a bijection
    for spec in [F2, F4]:
        for c in spec.elements():
            if c:
                assert cs.count_lie_pairs(2, spec, c, "class") == cs.count_lie_pairs(
                    2, spec, spec.one, "class"
                )


def test_count_commuting():
    assert cs.count_commuting_pairs(1, F3) == 9
    for strategy in ("brute", "class"):
        assert cs.count_commuting_pairs(2, F2, strategy) == 88
        assert cs.count_commuting_pairs(3, F2, strategy) == 7456
    assert cs.count_commuting_pairs(2, F4, "class") == 5056
    # c = 0 specialization agrees with the lie counter
    assert cs.count_lie_pairs(2, F4, 0, "class") == 5056


def test_count_group_pairs():
    zeta = gf.root_of_unity(F3, 2)
    assert cs.count_group_pairs(2, F3, zeta, "class") == 96
    assert cs.count_group_pairs(2, F3, zeta, "brute") == 96
    # zeta = 1: commuting invertible pairs = |GL| * #classes
    n_classes = len(cs.enumerate_classes(2, F3, restrict_invertible=True))
    assert cs.count_group_pairs(2, F3, F3.one, "class") == 48 * n_classes
    with pytest.raises(ValueError):
        cs.count_group_pairs(2, F3, F3.zero, "class")


def test_count_group_cross_checked_against_solution_cosets():
    # q = 5: class formula equals the sum over classes of size * per-x count
    zeta = gf.root_of_unity(F5, 2)
    total = 0
    for cl in cs.enumerate_classes(2, F5, restrict_invertible=True):
        coset = tg.solution_set_for_x(cl.representative, zeta)
        if coset is not None:
            total += cl.class_size * coset.count
    assert total == cs.count_group_pairs(2, F5, zeta, "class")


def test_twist_fixed_agrees_with_transport_existence_order4():
    # zeta of order 4 acts on the irreducibles of GL_4(F_5) with orbit sizes
    # 1, 2, and 4; for every class, being twist-fixed must coincide with the
    # existence of a similarity transport onto the zeta multiple
    zeta = gf.root_of_unity(F5, 4)
    classes = cs.enumerate_classes(4, F5, restrict_invertible=True)
    total = 0
    for cl in classes:
        coset = tg.solution_set_for_x(cl.representative, zeta)
        assert (coset is not None) == (cl.twisted(zeta) == cl), cl.data
        if coset is not None:
            assert coset.count == cl.centralizer_order
            total += cl.class_size * coset.count
    assert total == cs.count_group_pairs(4, F5, zeta, "class")


def test_count_w():
    zeta = gf.root_of_unity(F3, 2)
    assert cs.count_w(2, F3, zeta, "class") == 18
    assert cs.count_w(2, F3, zeta, "brute") == 18
    assert cs.count_w(2, F3, F3.one, "class") == cs.gl_order(2, 3)
    z5 = gf.root_of_unity(F5, 2)
    assert cs.count_w(2, F5, z5, "class") == cs.count_w(2, F5, z5, "brute")


def test_twist_involution():
    for spec, d in [(F5, 4), (F3, 2), (F4, 3)]:
        zeta = gf.root_of_unity(spec, d)
        for cl in cs.enumerate_classes(2, spec, restrict_invertible=True):
            cur = cl
            for _ in range(d):
                cur = cur.twisted(zeta)
            assert cur == cl


def test_twist_poly():
    from commvar.polyring import Poly

    zeta = F3.el(2)
    f = Poly.from_coeffs(F3, [2, 1, 1])  # t^2 + t + 2
    g = cs.twist_poly(f, zeta)
    assert g == Poly.from_coeffs(F3, [2, 2, 1])  # t^2 - t + 2
    assert g.is_monic
    # twist twice = identity for zeta of order 2
    assert cs.twist_poly(g, zeta) == f


def test_threads_do_not_change_counts():
    assert cs.count_lie_pairs(2, F4, 1, "class", threads=4) == 960
    assert cs.count_commuting_pairs(3, F2, "class", threads=4) == 7456
    z = gf.root_of_unity(F3, 2)
    assert cs.count_w(2, F3, z, "class", threads=4) == 18


def test_limit_exceeded():
    tiny = cs.CensusLimits(max_brute=100)
    with pytest.raises(LimitExceeded):
        cs.count_lie_pairs(2, F5, 1, "brute", tiny)
    with pytest.raises(LimitExceeded):
        cs.count_w(3, F5, F5.el(4), "brute", tiny)
    # Lie and commuting class counts are bounded by the number of class
    # types, which does not depend on q
    three = cs.CensusLimits(max_classes=3)
    with pytest.raises(LimitExceeded):
        cs.count_lie_pairs(4, F2, 1, "class", three)
    with pytest.raises(LimitExceeded):
        cs.count_commuting_pairs(4, F2, "class", three)
    # refused from the count of types alone, before any type is listed
    with pytest.raises(LimitExceeded):
        cs.count_commuting_pairs(40, F2)
    four = cs.CensusLimits(max_classes=4)
    with pytest.raises(LimitExceeded):
        cs.enumerate_classes(2, F4, limits=four)
    assert cs.count_commuting_pairs(2, F4, "class", four) == 5056


def test_estimate_dimension():
    fit = cs.estimate_dimension([(2, 2**5), (4, 4**5)])
    assert fit.fitted == 5 and fit.residual == 0
    # a leading constant cancels exactly in the ratio
    fit = cs.estimate_dimension([(2, 3 * 2**5), (4, 3 * 4**5)])
    assert fit.fitted == 5 and fit.residual == 0
    fit = cs.estimate_dimension([(2, 24), (4, 960), (8, 32256)])
    assert fit.fitted == 5 and Decimal("0.19") < fit.residual < Decimal("0.20")
    with pytest.raises(ValueError):
        cs.estimate_dimension([(2, 10)])
    with pytest.raises(ValueError):
        cs.estimate_dimension([(2, 10), (3, 20)])  # 3 is not a power of 2
    with pytest.raises(ValueError):
        cs.estimate_dimension([(2, 0), (4, 5)])


def test_consistency_forces_block_divisibility():
    # counting with c != 0 asserts the divisibility internally; run it on a
    # grid where solutions exist and where they do not
    assert cs.count_lie_pairs(2, F2, 1, "class") > 0
    assert cs.count_lie_pairs(3, F2, 1, "class") == 0
    assert cs.count_lie_pairs(3, F3, 1, "class") == 50544


def test_consistency_iff_divisibility_per_class():
    # cI solvable for c != 0 exactly when every partition part is a multiple
    # of p (class-level check covers every matrix up to conjugacy)
    for spec, n in [(F2, 2), (F4, 2), (F2, 4), (F3, 3)]:
        for cl in cs.enumerate_classes(n, spec):
            _, consistent = cs._ad_rank_consistency(cl.representative, spec.one)
            divisible = all(
                part % spec.p == 0 for _, lam in cl.data for part in lam
            )
            assert consistent == divisible, cl.data


def test_class_types():
    assert cs.class_types(2) == (
        ((1, (1,)), (1, (1,))),
        ((1, (2,)),),
        ((1, (1, 1)),),
        ((2, (1,)),),
    )
    assert len(cs.class_types(4)) == 22
    assert len(cs.class_types(6)) == 103
    for n in range(1, 9):
        assert cs._num_class_types(n) == len(cs.class_types(n))


def test_type_sum_equals_per_class_kernel_sum():
    # reference: the per-class sum over enumerated classes, with the
    # solution count of [A, B] = cI taken from the ad-rank elimination
    for spec in (F2, F3, F4):
        q = spec.q
        for n in range(1, 5):
            classes = cs.enumerate_classes(n, spec)
            for c in (spec.one, spec.zero):
                total = 0
                for cl in classes:
                    rank, consistent = cs._ad_rank_consistency(cl.representative, c)
                    assert rank == n * n - cl.dim_centralizer(), cl.data
                    if consistent:
                        total += cl.class_size * q ** (n * n - rank)
                assert cs.count_lie_pairs(n, spec, c) == total, (n, q, c)


def test_commuting_n2_matches_feit_fine():
    for p, k in [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)]:
        q = p**k
        assert cs.count_commuting_pairs(2, gf.field(p, k)) == q**6 + q**5 - q**3


def test_counts_build_field_tables_for_every_strategy():
    # brute scans over an extension field run on the lookup tables, also
    # when no class count has built them on the same spec before
    counts = [
        lambda s: cs.count_lie_pairs(1, s, 1, "brute"),
        lambda s: cs.count_commuting_pairs(1, s, "brute"),
        lambda s: cs.count_group_pairs(1, s, s.el(2), "brute"),
        lambda s: cs.count_w(1, s, s.el(2), "brute"),
    ]
    for count in counts:
        fresh = gf.FieldSpec(3, 2, gf.field(3, 2).modulus)
        count(fresh)
        assert fresh._mul_t is not None


def test_type_sum_checks_fire_under_optimize():
    # a wrong irreducible count breaks the class-size identity; the check
    # must raise even where python -O strips assert statements
    src = str(Path(cs.__file__).resolve().parents[1])
    code = (
        "from commvar import census, gf, polyring\n"
        "from commvar.errors import MathCheckFailed\n"
        "real = polyring.num_irreducibles\n"
        "polyring.num_irreducibles = lambda q, d: real(q, d) + (d == 2)\n"
        "try:\n"
        "    census.count_lie_pairs(2, gf.field(2), 1)\n"
        "except MathCheckFailed as exc:\n"
        "    print('raised:', exc)\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True,
        text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("raised: class types at n=2 q=2 cover 18 matrices")


def test_count_report_schema():
    fit = cs.estimate_dimension([(2, 24), (4, 960)])
    report = cs.CountReport(
        variety="lie",
        n=2,
        p=2,
        counts=[(2, 24, "class"), (4, 960, "class")],
        fit=fit,
        expected_dimension=5,
    )
    doc = report.to_json_dict()
    assert doc["variety"] == "lie"
    assert doc["counts"][0] == {"q": 2, "count": "24", "strategy": "class"}
    assert isinstance(doc["counts"][0]["count"], str)
    assert doc["fitted_dimension"] == 5
    assert doc["match"] is True
    assert isinstance(doc["raw_exponent"], str) and isinstance(doc["residual"], str)
