import decimal
import functools
import itertools
import os
import subprocess
import sys
import threading
import time
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

import _literal_scan as ls
import _type_sum as ts
from commvar import census as cs
from commvar import cli, gf, matgf as mg, typea_group as tg
from commvar.errors import LimitExceeded, MathCheckFailed
from commvar.polyring import Poly

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


@pytest.mark.parametrize("invertible", [False, True])
@pytest.mark.parametrize("q", [2, 3, 4])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_class_data_strictly_increasing(n, q, invertible):
    spec = {2: F2, 3: F3, 4: F4}[q]
    for c in cs.enumerate_classes(n, spec, restrict_invertible=invertible):
        keys = [(f.degree, f.coeffs) for f, _ in c.data]
        assert all(a < b for a, b in zip(keys, keys[1:])), c.data


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


# [c.data for c in enumerate_classes(2, F2)] as (coeffs, partition) pairs
CLASSES_2_F2 = [
    (((0, 1), (1,)), ((1, 1), (1,))),
    (((0, 1), (2,)),),
    (((0, 1), (1, 1)),),
    (((1, 1), (2,)),),
    (((1, 1), (1, 1)),),
    (((1, 1, 1), (1,)),),
]


def test_class_walk_yields_each_class_with_its_type():
    expected = [tuple((Poly(F2, c), lam) for c, lam in data) for data in CLASSES_2_F2]
    assert [c.data for c in cs.enumerate_classes(2, F2)] == expected
    assert cs._class_count(4, 8) == 4744  # classes --n 4 --q 8
    for spec, n in [(F2, 4), (F3, 3), (F4, 3)]:
        for invertible in (False, True):
            for data, ctype in cs._class_walk(n, spec, invertible):
                assert ctype == tuple((f.degree, lam) for f, lam in data)


@pytest.mark.parametrize("q", [2, 3, 4, 8, 9])
def test_class_count_equals_the_walk(q):
    spec = cli._field_from_q(q)
    for n in range(1, 5):
        for invertible in (False, True):
            walked = len(cs.enumerate_classes(n, spec, invertible))
            assert cs._class_count(n, q, invertible) == walked


def test_class_walk_checks_its_count(monkeypatch):
    monkeypatch.setattr(cs, "_class_count", lambda n, q, invertible, cap: 7)
    with pytest.raises(MathCheckFailed, match="walked 6 classes"):
        cs.enumerate_classes(2, F2)


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


@pytest.mark.parametrize("strategy", ["class", "brute"])
@pytest.mark.parametrize("n", [0, -1])
def test_counters_reject_nonpositive_n(n, strategy):
    zeta = gf.root_of_unity(F3, 2)
    counters = [
        lambda: cs.count_lie_pairs(n, F3, 1, strategy),
        lambda: cs.count_commuting_pairs(n, F3, strategy),
        lambda: cs.count_group_pairs(n, F3, zeta, strategy),
        lambda: cs.count_w(n, F3, zeta, strategy),
    ]
    for count in counters:
        with pytest.raises(ValueError, match="n must be positive"):
            count()


# (counter, variety, p, d) over F_3, each called as counter(n, zeta, strategy, limits)
COUNTERS = [
    (lambda n, z, s, lim: cs.count_lie_pairs(n, F3, 1, s, lim), "lie", 3, 1),
    (lambda n, z, s, lim: cs.count_commuting_pairs(n, F3, s, lim), "commuting", 0, 1),
    (lambda n, z, s, lim: cs.count_group_pairs(n, F3, z, s, lim), "group", 0, 2),
    (lambda n, z, s, lim: cs.count_w(n, F3, z, s, lim), "W", 0, 2),
]


@pytest.mark.parametrize("count, variety, p, d", COUNTERS, ids=[c[1] for c in COUNTERS])
def test_counter_contract(count, variety, p, d):
    zeta = gf.root_of_unity(F3, 2)
    limits = cs.DEFAULT_LIMITS
    for n in (1, 2, 3):
        poly = cs.point_count_polynomial(variety, n, p, d)
        assert count(n, zeta, "class", limits) == poly(3), n
    with pytest.raises(ValueError, match="unknown strategy 'nope'"):
        count(2, zeta, "nope", limits)
    with pytest.raises(ValueError, match="n must be positive"):
        count(0, zeta, "class", limits)
    if variety in ("group", "W"):
        with pytest.raises(ValueError, match="zeta must be a unit"):
            count(2, F3.zero, "class", limits)
    # one gate for every brute scan: q^(n^2) = 3^4 = 81 matrices at n = 2
    with pytest.raises(LimitExceeded, match="brute scan of 81 matrices exceeds limit 80"):
        count(2, zeta, "brute", cs.CensusLimits(max_brute=80))
    accepted = 81
    if variety == "group":
        # the same unit once W's lanes are walked: the 81 lanes plus the 81
        # solutions of the 9 orbit representatives x in W, 9 each
        cap = "group brute scan of 162 matrices exceeds limit 161"
        with pytest.raises(LimitExceeded, match=cap):
            count(2, zeta, "brute", cs.CensusLimits(max_brute=161))
        accepted = 162
    brute = count(2, zeta, "brute", cs.CensusLimits(max_brute=accepted))
    assert brute == count(2, zeta, "class", limits)


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


def test_brute_pair_walk_equals_polynomial():
    small = ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2))  # q <= 9
    grid = [(1, gf.field(p, k)) for p, k in small]
    grid += [(2, spec) for spec in (F2, F3, F4, F5)] + [(3, F2)]
    for n, spec in grid:
        # sizes up to the pairs where verify's lie-trace suite runs the
        # brute count
        assert spec.q ** (2 * n * n) <= cli._LIE_TRACE_PAIRS
        for c in (spec.zero, spec.one):
            poly = cs.point_count_polynomial("lie" if c else "commuting", n, spec.p)
            assert cs.count_lie_pairs(n, spec, c, "brute") == poly(spec.q), (n, spec, c)


def test_group_brute_walk_equals_polynomial():
    # GF(4) puts two F_2-digits in every entry, which the solutions must keep
    for n, d, spec in ((1, 1, F3), (2, 2, F3), (2, 2, F5), (2, 1, F4), (2, 2, gf.field(7))):
        q = spec.q
        zeta = gf.root_of_unity(spec, d)
        poly = cs.point_count_polynomial("group", n, d=d)
        assert cs.count_group_pairs(n, spec, zeta, "brute") == poly(q), (n, d, q)


def test_group_solutions_equal_literal_filter():
    # over GF(4) a kernel coefficient read as an integer mod 2 would miss solutions
    for n, spec, orders in ((2, F4, (1, 3)), (2, F5, (1, 2, 4)), (3, F2, (1,))):
        invertibles = list(filter(mg.Mat.is_invertible, cs._all_matrices(spec, n)))
        zetas = [gf.root_of_unity(spec, d) for d in orders]
        for x in filter(mg.Mat.is_invertible, ls.scalar_orbit_reps(spec, n)):
            products = [(x @ y, y @ x) for y in invertibles]
            for zeta in zetas:
                # y (zeta x) = zeta (y x)
                expected = sum(xy == yx * zeta for xy, yx in products)
                assert cs._group_solutions(x, zeta) == expected, (spec, zeta, x)
    # every y commutes with I: 16 and 18 F_2-coordinates, more than one block's 15
    assert cs._group_solutions(mg.Mat.identity(F2, 4), F2.one) == cs.gl_order(4, 2)
    assert cs._group_solutions(mg.Mat.identity(F4, 3), F4.one) == cs.gl_order(3, 4)


def test_group_solutions_check_their_total(monkeypatch):
    # a walk that loses a block no longer totals q^(dim ker): all 2^9 y commute with I
    blocks = cs._ad_blocks
    monkeypatch.setattr(cs, "_BLOCK_BITS", 64)
    monkeypatch.setattr(cs, "_ad_blocks", lambda *a, **kw: list(blocks(*a, **kw))[1:])
    with pytest.raises(MathCheckFailed, match="solution walk covered 448 matrices, not q\\^9"):
        cs._group_solutions(mg.Mat.identity(F2, 3), F2.one)


def test_group_brute_at_n3_equals_polynomial():
    # GL_3(F_4) at zeta of order 3: 4^9 lanes of W, then the solutions of
    # its 4160 orbit representatives; the pair count |GL_3(4)|^2 is 3.3e10
    for spec, d, count in ((F4, 3, 544_320), (F3, 1, 269_568)):
        assert cs.point_count_polynomial("group", 3, d=d)(spec.q) == count
        assert cs.count_group_pairs(3, spec, gf.root_of_unity(spec, d), "brute") == count


def test_image_kernel_equals_rref():
    import random

    rng = random.Random(6)
    odd = [F3, F5, gf.field(7), gf.field(3, 2), gf.field(5, 2), gf.field(3, 3)]
    for spec in [F4, gf.field(2, 3)] + odd:
        for n in (2, 3):
            packing = ls.packing(spec, n)
            consistent_seen = set()
            for _ in range(500):
                # half the entries zero, so degenerate and nilpotent parts are common
                a = mg.Mat(spec, [
                    [rng.randrange(spec.q) if rng.random() < 0.5 else 0 for _ in range(n)]
                    for _ in range(n)
                ])
                for c in (spec.zero, spec.one, spec.el(rng.randrange(1, spec.q))):
                    ci = mg.vec(mg.Mat.scalar(spec, n, c))
                    ad = mg.ad_matrix(a)
                    reduced = mg.rref(mg.Mat(spec, [row + (x,) for row, x in zip(ad.rows, ci)]))
                    if reduced.pivots and reduced.pivots[-1] == n * n:
                        expected = (reduced.rank - 1, False)
                    else:
                        expected = (reduced.rank, True)
                    kernel = ls.ad_rank_consistency(
                        packing, packing.images(a), packing.scalar(c.idx)
                    )
                    assert kernel == expected, (a, c)
                    consistent_seen.add((bool(c), expected[1]))
            assert (True, False) in consistent_seen and (False, True) in consistent_seen
            assert ((True, True) in consistent_seen) == (n % spec.p == 0)


def test_ad_blocks_hold_the_images_of_every_lane():
    # (n, spec, s): one block, and several blocks of p^s lanes
    cases = [(2, F2, 3), (2, F2, 1), (3, F2, 8), (3, F2, 5), (2, F3, 3), (2, F3, 2),
             (2, F4, 4), (2, gf.field(2, 3), 7), (2, gf.field(3, 2), 3), (2, F5, 1)]
    for n, spec, s in cases:
        packing = ls.packing(spec, n)
        p, k = spec.p, spec.k
        m = n * n * k - k  # the walk leaves the k lanes of entry (n-1, n-1) at 0
        units = mg.Mat.identity(spec, n * n).rows
        seen = set()
        for outer, (rows,) in cs._ad_blocks(spec, n, s, (cs._ad_mod_scalars,), units[:-1]):
            assert len(rows) == m
            for lane in range(p**s):
                inner = [(lane // p**j) % p for j in range(s)]
                matrix = cs._span_member(spec, n, units, inner + list(outer))
                assert matrix.at(n - 1, n - 1).idx == 0
                # the images of E_{n-1,n-1} e_t are dropped: they lie in the span
                expected = [packing.digits(v) for v in packing.images(matrix)[:m]]
                width = packing.width
                held = [[(x >> (lane * width)) % (1 << width) for x in row] for row in rows]
                assert held == expected, (n, spec.q, s, lane)
                seen.add(matrix)
        assert len(seen) == spec.q ** (n * n - 1), (n, spec.q, s)
    # lazy: 2^35 matrices, of which only the first block is built
    units = mg.Mat.identity(F2, 36).rows[:-1]
    outer, (rows,) = next(cs._ad_blocks(F2, 6, 4, (cs._ad_mod_scalars,), units))
    assert outer == (0,) * 31 and len(rows) == 35


def test_ad_digits_equal_packed_reference_images():
    # every row, the images of E_{n-1,n-1} e_t included, for A with any
    # entry (n-1, n-1); the reference packs its own images
    import random

    rng = random.Random(20)
    fields = [F2, F3, F4, F5, gf.field(7), gf.field(2, 3), gf.field(3, 2)]
    for spec in fields:
        p, k = spec.p, spec.k
        for n in (1, 2, 3):
            packing = ls.packing(spec, n)
            lanes = n * n * k
            corner_seen = False
            for _ in range(20):
                a = mg.Mat(spec, [[rng.randrange(spec.q) for _ in range(n)] for _ in range(n)])
                corner_seen |= a.at(n - 1, n - 1).idx != 0
                rows = cs._map_digits(mg.ad_matrix(a))
                assert len(rows) == lanes
                assert rows == [packing.digits(v) for v in packing.images(a)], (spec.q, n, a)
                # on the unit vectors _span_member inverts the lane order:
                # lane e*k + t is digit t of entry e
                units = mg.Mat.identity(spec, n * n).rows
                digits = [rng.randrange(p) for _ in range(lanes)]
                m = cs._span_member(spec, n, units, digits)
                assert [(x // p**t) % p for x in mg.vec(m) for t in range(k)] == digits
                # row c is the image of the basis matrix of lane c
                c = rng.randrange(lanes)
                basis = cs._span_member(spec, n, units, [int(i == c) for i in range(lanes)])
                image = mg.vec(mg.lie_commutator(a, basis))
                assert rows[c] == [(x // p**t) % p for x in image for t in range(k)]
            assert corner_seen, (spec.q, n)


def test_ad_rank_histogram_equals_per_matrix_reference(monkeypatch):
    fields = [F2, F3, F4, F5, gf.field(7), gf.field(2, 3), gf.field(3, 2)]
    grid = [(n, spec) for n in (1, 2, 3) for spec in fields if spec.q ** (n * n - 1) <= 3**8]
    assert (3, F3) in grid and (2, gf.field(3, 2)) in grid
    for n, spec in grid:
        packing = ls.packing(spec, n)
        walk = [a for a in cs._all_matrices(spec, n) if a.at(n - 1, n - 1).idx == 0]
        for c in {spec.zero, spec.one, gf.Fe(spec, spec.q - 1)}:
            target = packing.scalar(c.idx)
            walked, consistent = [0] * (n * n + 1), [0] * (n * n + 1)
            for a in walk:
                rank, solvable = ls.ad_rank_consistency(packing, packing.images(a), target)
                walked[rank] += 1
                consistent[rank] += solvable
            assert sum(walked) == spec.q ** (n * n - 1)
            expected = (walked, consistent)
            assert cs._ad_rank_histogram(spec, n, c) == expected, (n, spec.q, c)
            # narrow blocks: every walk with n >= 2 spans several
            with monkeypatch.context() as patch:
                patch.setattr(cs, "_BLOCK_BITS", 64)
                assert cs._ad_rank_histogram(spec, n, c) == expected, (n, spec.q, c)


def test_ad_rank_histogram_checks_its_total(monkeypatch):
    # a walk that loses a block no longer totals q^(n^2 - 1)
    blocks = cs._ad_blocks
    monkeypatch.setattr(cs, "_BLOCK_BITS", 64)
    monkeypatch.setattr(cs, "_ad_blocks", lambda *a, **kw: list(blocks(*a, **kw))[1:])
    with pytest.raises(MathCheckFailed, match="walked 192 matrices, not q\\^8"):
        cs.count_commuting_pairs(3, F2, "brute")


def test_w_lanes_equal_per_matrix_reference(monkeypatch):
    # every lane's verdict against the Smith normal form test, for every x;
    # the zetas of one field share each x's invariant factors
    monkeypatch.setattr(tg, "invariant_factors", functools.lru_cache(None)(mg.invariant_factors))
    cases = [
        (2, spec, d)
        for spec in (F3, F4, F5, gf.field(7), gf.field(3, 2))
        for d in (1, 2)
        if (spec.q - 1) % d == 0
    ]
    cases += [(3, F2, 1), (3, F3, 1)]  # F_3 at n = 3 spans several blocks
    for n, spec, d in cases:
        zeta = gf.root_of_unity(spec, d)
        p, k = spec.p, spec.k
        width = cs._Lanes(p, 1).width
        s = cs._block_exponent(p, n * n * k)
        units = mg.Mat.identity(spec, n * n).rows
        seen = set()
        for outer, members, _ in cs._w_blocks(spec, n, zeta):
            for lane in range(p**s):
                inner = [(lane // p**j) % p for j in range(s)]
                x = cs._span_member(spec, n, units, inner + list(outer))
                expected = x.is_invertible() and tg.is_conjugate_to_zeta_x(x, zeta)
                assert members >> (lane * width) & 1 == expected, (n, spec.q, d, x)
                seen.add(x)
        assert len(seen) == spec.q ** (n * n), (n, spec.q, d)


def test_w_brute_at_n3_equals_polynomial():
    # GL_3(F_4) at zeta of order 3 walks 4^9 matrices in eight blocks
    for spec, d, count in ((F4, 3, 12480), (F3, 1, 11232)):
        assert cs.point_count_polynomial("W", 3, d=d)(spec.q) == count
        assert cs.count_w(3, spec, gf.root_of_unity(spec, d), "brute") == count


def test_lanes_at_reads_a_value_past_the_counter_as_absent():
    # two lanes with counts 0 and 1 in a one-bit counter; no lane reaches 2
    ones = 0b11
    assert cs._lanes_at([0b10], 0, ones) == 0b01
    assert cs._lanes_at([0b10], 1, ones) == 0b10
    assert cs._lanes_at([0b10], 2, ones) == 0


def test_w_scan_checks_its_total(monkeypatch):
    # a walk that loses a block no longer totals q^(n^2)
    blocks = cs._ad_blocks
    monkeypatch.setattr(cs, "_BLOCK_BITS", 64)
    monkeypatch.setattr(cs, "_ad_blocks", lambda *a, **kw: list(blocks(*a, **kw))[1:])
    with pytest.raises(MathCheckFailed, match="W scan walked 448 matrices, not q\\^9"):
        cs.count_w(3, F2, F2.one, "brute")


def test_orbit_scans_equal_literal_scans():
    fields = [F2, F3, F4, F5, gf.field(7), gf.field(2, 3), gf.field(3, 2)]
    grid = [(n, spec) for n in (1, 2, 3) for spec in fields if spec.q ** (n * n) <= 1 << 16]
    assert (3, F3) in grid and (2, gf.field(3, 2)) in grid
    for n, spec in grid:
        for c in {spec.zero, spec.one, gf.Fe(spec, spec.q - 1)}:
            literal = ls.lie_count(n, spec, c)
            assert cs.count_lie_pairs(n, spec, c, "brute") == literal, (n, spec.q, c)
    for n, d, spec in ((1, 1, F3), (2, 2, F3), (2, 2, F5), (2, 1, F4)):
        zeta = gf.root_of_unity(spec, d)
        assert cs.count_group_pairs(n, spec, zeta, "brute") == ls.group_count(n, spec, zeta)
        assert cs.count_w(n, spec, zeta, "brute") == ls.w_count(n, spec, zeta), (n, d, spec.q)
    f9 = gf.field(3, 2)
    zeta = gf.root_of_unity(f9, 2)
    assert cs.count_w(2, f9, zeta, "brute") == ls.w_count(2, f9, zeta)


def test_scalar_orbit_identities():
    import random

    rng = random.Random(12)
    for spec in (F3, F4, F5, gf.field(3, 2)):
        units = [gf.Fe(spec, i) for i in range(1, spec.q)]
        reps = list(ls.scalar_orbit_reps(spec, 2))
        assert len(reps) == (spec.q**4 - 1) // (spec.q - 1)
        assert {x * mu for x in reps for mu in units} == set(all_mats(spec, 2)) - {
            mg.Mat.zeros(spec, 2, 2)
        }
        for n in (2, 3):
            packing = ls.packing(spec, n)
            for _ in range(20):
                a = mg.Mat(spec, [[rng.randrange(spec.q) for _ in range(n)] for _ in range(n)])
                lam = mg.Mat.scalar(spec, n, gf.Fe(spec, rng.randrange(spec.q)))
                assert packing.images(a + lam) == packing.images(a)
                mu = rng.choice(units)
                if not a.is_invertible():
                    continue  # W lies in GL_n, where the twist test is defined
                for zeta in units:
                    twisted = tg.is_conjugate_to_zeta_x(a * mu, zeta)
                    assert twisted == tg.is_conjugate_to_zeta_x(a, zeta), (a, mu)


@pytest.mark.parametrize("n,q", [(3, 3), (2, 7), (4, 2), (2, 8), (2, 9), (3, 4)])
def test_odd_p_per_matrix_scan_equals_polynomial(n, q):
    # sizes above the lie-trace suite's pairs, on the same block elimination as
    # every brute Lie count; GF(4), GF(8) and GF(9) put several F_p-digits
    # in every entry, and GF(4) at n = 3 spans two blocks
    assert q ** (2 * n * n) > cli._LIE_TRACE_PAIRS
    spec = {4: F4, 8: gf.field(2, 3), 9: gf.field(3, 2)}.get(q) or gf.field(q)
    # c = 1 at (4, 2) is 295,680, asserted by the acceptance tests
    expected = {
        (3, 3): (809_433, 50_544),
        (2, 7): (134_113, 0),
        (4, 2): (2_526_976,),
        (2, 8): (294_400, 32_256),
        (2, 9): (589_761, 0),
        (3, 4): (22_905_856,),
    }[n, q]
    for c, count in zip((0, 1), expected):
        poly = cs.point_count_polynomial("lie" if c else "commuting", n, spec.p)
        assert poly(q) == count
        assert cs.count_lie_pairs(n, spec, c, "brute") == count


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


def test_class_count_examples():
    assert cs.count_lie_pairs(2, F4, 1, "class") == 960
    assert cs.count_commuting_pairs(3, F2, "class") == 7456
    z = gf.root_of_unity(F3, 2)
    assert cs.count_w(2, F3, z, "class") == 18


def test_limit_exceeded(monkeypatch):
    tiny = cs.CensusLimits(max_brute=100)
    with pytest.raises(LimitExceeded):
        cs.count_lie_pairs(2, F5, 1, "brute", tiny)
    with pytest.raises(LimitExceeded):
        cs.count_w(3, F5, F5.el(4), "brute", tiny)
    # class counts are bounded by the term pairs S their products multiply,
    # S m^4 / 10^5 steps in a build of size m, which do not depend on q:
    # m = n for commuting, n/p for Lie and n/d for group pairs, whose
    # factor |GL_n| / |GL_m| or |GL_n| adds one pair at n.  Under a limit of
    # 3 commuting pairs refuse n = 9 and accept n = 8, and Lie (p = 2) and
    # group (d = 2) pairs refuse n = 18 and accept n = 16
    three = cs.CensusLimits(max_classes=3)
    with pytest.raises(LimitExceeded):
        cs.count_lie_pairs(18, F2, 1, "class", three)
    assert cs.point_count_polynomial("lie", 16, p=2, limits=three).degree == 264
    with pytest.raises(LimitExceeded):
        cs.count_commuting_pairs(9, F2, "class", three)
    with pytest.raises(LimitExceeded):
        cs.point_count_polynomial("commuting", 9, limits=three)
    assert cs.point_count_polynomial("commuting", 8, limits=three).degree == 72
    with pytest.raises(LimitExceeded):
        cs.point_count_polynomial("group", 18, d=2, limits=three)
    with pytest.raises(LimitExceeded):
        cs.count_group_pairs(18, F5, gf.root_of_unity(F5, 2), "class", three)
    assert cs.point_count_polynomial("group", 16, d=2, limits=three).degree == 264
    # the default limit, with stubs in place of the builds so that only the
    # gate runs: commuting pairs are refused from n = 50, from the supports
    # alone, and every size the partition-sum gate (p(m) m steps) accepted
    # is still accepted: Lie and commuting n <= 30, group n/d <= 30
    with monkeypatch.context() as stub:
        stub.setattr(cs, "_lie_polynomial", lambda n, p: cs.QPoly((1,)))
        stub.setattr(cs, "_group_polynomial", lambda n, d: cs.QPoly((1,)))
        for n in (50, 60):
            with pytest.raises(LimitExceeded):
                cs.count_commuting_pairs(n, F2)
            with pytest.raises(LimitExceeded):
                cs.point_count_polynomial("commuting", n)
        assert cs.point_count_polynomial("commuting", 49) == cs.QPoly((1,))
        for n in range(1, 31):
            cs.point_count_polynomial("commuting", n)
            for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29):
                cs.point_count_polynomial("lie", n, p=p)
        for n in range(1, 61):
            for d in range(-(-n // 30), n + 1):
                cs.point_count_polynomial("group", n, d=d)
    # W class counts by the term pairs S of its products times n^4 / 10^5,
    # 253 * 12^4 / 10^5 -> 53 steps at (12, 2)
    fifty = cs.CensusLimits(max_classes=50)
    with pytest.raises(LimitExceeded):
        cs.count_w(12, F5, gf.root_of_unity(F5, 2), "class", fifty)
    with pytest.raises(LimitExceeded):
        cs.point_count_polynomial("W", 12, d=2, limits=fifty)
    assert cs.point_count_polynomial("W", 10, d=2, limits=fifty).degree == 95
    # the default limit accepts n <= 42 at d = 2 and refuses n = 44 from the
    # supports alone, before any polynomial is built
    start = time.perf_counter()
    with pytest.raises(LimitExceeded, match="n=44 exceed limit 200000"):
        cs.point_count_polynomial("W", 44, d=2)
    assert time.perf_counter() - start < 1.0
    # ... and not by the number of classes, which refuses enumeration at q = 81
    f81 = gf.field(3, 4)
    zeta = gf.root_of_unity(f81, 2)
    assert cs.count_group_pairs(4, f81, zeta) == cs.point_count_polynomial("group", 4, d=2)(81)
    assert cs.count_w(4, f81, zeta) == cs.point_count_polynomial("W", 4, d=2)(81)
    four = cs.CensusLimits(max_classes=4)
    with pytest.raises(LimitExceeded):
        cs.enumerate_classes(2, F4, limits=four)
    assert cs.count_commuting_pairs(2, F4, "class", four) == 5056


def test_partition_limit_message_names_n_and_limit():
    # n = 20000 is refused once the fold's pair count passes its budget, and
    # the message names n and the limit, not the step count
    with pytest.raises(LimitExceeded) as err:
        cs.point_count_polynomial("commuting", 20000)
    assert len(str(err.value)) < 200
    assert "n=20000" in str(err.value) and "200000" in str(err.value)


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


def test_estimate_dimension_ignores_the_callers_decimal_context():
    # quantizing to 30 places needs more than the default 28 digits, so the
    # fit must not run in the calling thread's context
    points = [(2, 24), (4, 960)]
    expect = cs.estimate_dimension(points)
    got = []
    worker = threading.Thread(target=lambda: got.append(cs.estimate_dimension(points)))
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive() and got == [expect]
    with decimal.localcontext() as ctx:
        ctx.prec = 28
        assert cs.estimate_dimension(points) == expect
        assert ctx.prec == 28


def test_import_leaves_the_decimal_context_alone():
    src = str(Path(cs.__file__).resolve().parents[1])
    code = "import decimal, commvar\nprint(decimal.getcontext().prec)\n"
    out = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout == "28\n"


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
        packing = ls.packing(spec, n)
        for cl in cs.enumerate_classes(n, spec):
            a = cl.representative
            _, consistent = ls.ad_rank_consistency(
                packing, packing.images(a), packing.scalar(spec.one.idx)
            )
            divisible = all(
                part % spec.p == 0 for _, lam in cl.data for part in lam
            )
            assert consistent == divisible, cl.data


def test_class_types():
    assert ts.class_types(2) == (
        ((1, (1,)), (1, (1,))),
        ((1, (2,)),),
        ((1, (1, 1)),),
        ((2, (1,)),),
    )
    assert len(ts.class_types(4)) == 22
    assert len(ts.class_types(6)) == 103
    for n in range(1, 9):
        assert ts.num_class_types(n) == len(ts.class_types(n))


def test_closed_forms_equal_type_sum_reference():
    # the Feit-Fine partition sum and the Lie product, against Green's
    # class-type sum with its covering check
    for n in range(1, 9):
        assert cs.point_count_polynomial("commuting", n) == ts.type_sum(n), n
        for p in (2, 3, 5, 7):
            assert cs.point_count_polynomial("lie", n, p=p) == ts.type_sum(n, p), (n, p)


def test_products_equal_partition_sums():
    # the o-fold over part sizes and Macdonald's series against the
    # Feit-Fine and class-number partition sums they replace
    for n in range(1, 13):
        assert cs.point_count_polynomial("commuting", n) == ts.feit_fine_sum(n), n
        for d in range(1, n + 1):
            if n % d == 0:
                poly = cs.point_count_polynomial("group", n, d=d)
                assert poly == ts.class_number_sum(n, d), (n, d)
    for p in (2, 3, 5, 7):
        for n in range(1, 25):
            assert cs.point_count_polynomial("lie", n, p=p) == ts.feit_fine_sum(n, p), (n, p)


def test_gate_counts_the_pairs_the_build_multiplies(monkeypatch):
    # each term pair of an o-product takes one K(c, a): the K calls of an
    # uncached build equal the pairs the gate counts on supports alone
    calls = []
    real = cs._gl_binomial
    monkeypatch.setattr(cs, "_gl_binomial", lambda c, a: calls.append(c) or real(c, a))
    for n in range(1, 13):
        calls.clear()
        cs._lie_polynomial.__wrapped__(n, 0)
        assert len(calls) == cs._part_fold_pairs(n), n
        for d in range(1, n + 1):
            if n % d == 0:
                calls.clear()
                cs._w_polynomial.__wrapped__(n, d)
                assert len(calls) == cs._w_product_pairs(n, d), (n, d)


def test_gate_steps_do_not_decrease_with_size():
    # the gate counts a build's steps at its own size m alone, which is
    # sound because no smaller size the build passes through takes more
    fold = [cs._part_fold_pairs(m) * m**4 for m in range(1, 51)]
    assert fold == sorted(fold)
    for d in (1, 2, 3):
        steps = [cs._w_product_pairs(m, d) * m**4 for m in range(d, 49, d)]
        assert steps == sorted(steps), d


def test_gate_budget_cuts_the_count_short_without_changing_the_decision():
    for n in range(1, 25):
        full = cs._part_fold_pairs(n)
        for budget in (-1, 0, full // 3, full - 1, full):
            assert (cs._part_fold_pairs(n, budget) > budget) == (full > budget), (n, budget)
        for d in (1, 2, 3):
            full = cs._w_product_pairs(n, d)
            for budget in (-1, 0, full // 3, full - 1, full):
                cut = cs._w_product_pairs(n, d, budget)
                assert (cut > budget) == (full > budget), (n, d, budget)


def test_gate_counts_the_gl_factor_and_walks_divisors():
    # the factor |GL_n| / |GL_m| is a pair at n, so group and Lie pairs are
    # refused at large n even where the fold at m = n/d or n/p is trivial;
    # the orbit kinds walk only the divisors of d, so W is refused as fast
    for variety, n, p, d in (("group", 1008, 0, 1008), ("lie", 1009, 1009, 1),
                             ("W", 20000, 0, 20000), ("group", 20000, 0, 20000)):
        start = time.perf_counter()
        with pytest.raises(LimitExceeded, match="n=%d exceed limit 200000" % n):
            cs.point_count_polynomial(variety, n, p=p, d=d)
        assert time.perf_counter() - start < 1.0, (variety, n)
    # the divisor walk keeps the kinds and their (e, s) order
    for n in range(1, 13):
        for d in range(1, 13):
            literal = [(e, s) for e in range(1, n + 1) for s in range(1, d + 1)
                       if d % s == 0 and e % s == 0 and (d // s) * e <= n]
            assert cs._twist_kinds(n, d) == literal, (n, d)


def test_type_sum_equals_per_class_kernel_sum():
    # reference: the per-class sum over enumerated classes, with the
    # solution count of [A, B] = cI taken from the ad-rank elimination
    for spec in (F2, F3, F4):
        q = spec.q
        for n in range(1, 5):
            classes = cs.enumerate_classes(n, spec)
            packing = ls.packing(spec, n)
            for c in (spec.one, spec.zero):
                total = 0
                for cl in classes:
                    a = cl.representative
                    rank, consistent = ls.ad_rank_consistency(
                        packing, packing.images(a), packing.scalar(c.idx)
                    )
                    assert rank == n * n - cl.dim_centralizer(), cl.data
                    if consistent:
                        total += cl.class_size * q ** (n * n - rank)
                assert cs.count_lie_pairs(n, spec, c) == total, (n, q, c)


def test_commuting_n2_matches_feit_fine():
    for p, k in [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)]:
        q = p**k
        assert cs.count_commuting_pairs(2, gf.field(p, k)) == q**6 + q**5 - q**3
    assert str(cs.point_count_polynomial("commuting", 2)) == "q^6+q^5-q^3"


def test_counts_build_field_tables_for_every_strategy():
    # brute scans over an extension field run on the lookup tables, which
    # the field builds when it is constructed, also outside gf.field
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
    # |GL_m| without its factor q^m - 1 leaves the division of the fold's
    # Feit-Fine term inexact, first at one part of size 1; the check must
    # raise even where python -O strips assert statements
    src = str(Path(cs.__file__).resolve().parents[1])
    code = (
        "from commvar import census, gf\n"
        "from commvar.errors import MathCheckFailed\n"
        "real = census._gl_order_poly\n"
        "census._gl_order_poly = lambda n: real(n).div_q_power_minus_one(n)\n"
        "try:\n"
        "    census.count_commuting_pairs(2, gf.field(2))\n"
        "except MathCheckFailed as exc:\n"
        "    print('raised:', exc)\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True,
        text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout == "raised: q^2 is not divisible by q^1-1\n"


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
    assert isinstance(doc["raw_exponent"], str) and isinstance(doc["residual"], str)
    # match reads the exact degree, so without a polynomial it is null
    assert doc["point_count_polynomial"] is None and doc["exact_dimension"] is None
    assert doc["match"] is None
    report.point_count_polynomial = cs.point_count_polynomial("lie", 2, p=2)
    doc = report.to_json_dict()
    assert doc["point_count_polynomial"] == "q^5-q^3" and doc["exact_dimension"] == 5
    assert doc["match"] is True
    report.fit = cs.estimate_dimension([(2, 1), (4, 64)])  # a fit of 6 leaves match alone
    doc = report.to_json_dict()
    assert doc["fitted_dimension"] == 6 and doc["match"] is True
    report.point_count_polynomial = cs.point_count_polynomial("lie", 2, p=3)
    doc = report.to_json_dict()
    assert doc["point_count_polynomial"] == "0" and doc["match"] is False
    assert report.exact_dimension is None
    report.expected_dimension = None
    assert report.to_json_dict()["match"] is None


def test_qpoly_arithmetic_and_rendering():
    q = cs.QPoly((0, 1))
    f = (q * q - 1) * q / 2  # (q^3 - q) / 2
    assert str(f) == "1/2*q^3-1/2*q"
    assert f(3) == 12 and f.degree == 3 and f.leading_coefficient == Fraction(1, 2)
    assert f * 2 == cs.QPoly((0, -1, 0, 1))
    assert (f * 2).div_q_power_minus_one(2) == q
    assert (f * 2).mul_q_power_minus_one(1) == cs.QPoly((0, 1, -1, -1, 1))
    with pytest.raises(MathCheckFailed):
        q.div_q_power_minus_one(1)
    assert str(cs.QPoly()) == "0" and cs.QPoly().degree is None
    assert str(cs.QPoly((-3, 0, 2))) == "2*q^2-3"


def test_commuting_polynomials():
    assert (
        str(cs.point_count_polynomial("commuting", 3))
        == "q^12+q^11+2*q^10-2*q^8-2*q^7+q^5"
    )
    # dimension n^2 + n with one top-dimensional component
    for n in range(1, 17):
        poly = cs.point_count_polynomial("commuting", n)
        assert poly.degree == n * n + n and poly.leading_coefficient == 1


def test_lie_polynomials_equal_type_sum():
    # the class counts are these polynomials at q; the per-class kernel sum
    # checks them in test_type_sum_equals_per_class_kernel_sum.
    # degree n^2 + n/p where p | n, the zero polynomial where p does not
    assert cs.point_count_polynomial("lie", 3, p=3).degree == 10
    assert cs.point_count_polynomial("lie", 4, p=2).degree == 18
    assert cs.point_count_polynomial("lie", 3, p=2).degree is None
    for p in (2, 3, 5, 7):
        for n in range(1, 25):
            poly = cs.point_count_polynomial("lie", n, p=p)
            if n % p:
                assert poly == cs.QPoly(), (n, p)
            else:
                assert poly.degree == n * n + n // p, (n, p)
                assert poly.leading_coefficient == 1, (n, p)


def _class_enumeration_counts(n, spec, zeta):
    fixed = [
        cl for cl in cs.enumerate_classes(n, spec, restrict_invertible=True)
        if cl.twisted(zeta) == cl
    ]
    return cs.gl_order(n, spec.q) * len(fixed), sum(cl.class_size for cl in fixed)


def test_twist_polynomials_equal_class_enumeration():
    for n, d, spec in [(2, 2, F5), (3, 3, gf.field(7)), (4, 2, F5), (4, 4, F5)]:
        group, w = _class_enumeration_counts(n, spec, gf.root_of_unity(spec, d))
        assert cs.point_count_polynomial("group", n, d=d)(spec.q) == group, (n, d)
        assert cs.point_count_polynomial("W", n, d=d)(spec.q) == w, (n, d)
        # dimensions n^2 + n/d and n^2 + n/d - n, one top component each
        for variety, dim in (("group", n * n + n // d), ("W", n * n + n // d - n)):
            poly = cs.point_count_polynomial(variety, n, d=d)
            assert poly.degree == dim and poly.leading_coefficient == 1


def test_group_polynomial_equals_twist_type_sum():
    # |GL_n| k(GL_{n/d}) against the twist-type count of the fixed classes
    for n in range(1, 11):
        for d in range(1, n + 1):
            if n % d == 0:
                poly = cs.point_count_polynomial("group", n, d=d)
                assert poly == ts.twist_group_sum(n, d), (n, d)


def test_w_polynomial_equals_twist_type_sum():
    # the product over orbit kinds against the twist-type sum of class sizes
    for n in range(1, 11):
        for d in range(1, n + 1):
            if n % d == 0:
                poly = cs.point_count_polynomial("W", n, d=d)
                assert poly == ts.twist_w_sum(n, d), (n, d)


def test_w_limit_keeps_twist_type_reach(monkeypatch):
    # every (n, d) with d <= 6 that the twist-type count (<= 200,000 types)
    # accepted passes the product gate; the stub stands in for the product,
    # so only the gate runs
    monkeypatch.setattr(cs, "_w_polynomial", lambda n, d: cs.QPoly((1,)))
    for d in range(1, 7):
        n = d
        while ts._num_multisets([(d // s) * e for e, s in cs._twist_kinds(n, d)], n) <= 200_000:
            assert cs.point_count_polynomial("W", n, d=d) == cs.QPoly((1,)), (n, d)
            n += d
    # no twist type exists where d does not divide n, at any size
    assert cs.point_count_polynomial("W", 1001, d=2) == cs.QPoly()
    # the last accepted and first refused sizes at d = 1, 2, 3
    for n, d in ((35, 1), (42, 2), (48, 3)):
        cs.point_count_polynomial("W", n, d=d)
        with pytest.raises(LimitExceeded):
            cs.point_count_polynomial("W", n + d, d=d)


def test_w_polynomial_exact_without_type_sum():
    # at d = 1 every x is conjugate to zeta x = x, so W is GL_n
    for n in range(1, 13):
        assert cs.point_count_polynomial("W", n, d=1) == cs._gl_order_poly(n), n
    # dimension n^2 + n/d - n with one top component, and empty for d not
    # dividing n (det x = zeta^n det x)
    for n in range(1, 15):
        for d in range(1, n + 1):
            poly = cs.point_count_polynomial("W", n, d=d)
            if n % d:
                assert poly == cs.QPoly(), (n, d)
            else:
                assert poly.degree == n * n + n // d - n, (n, d)
                assert poly.leading_coefficient == 1, (n, d)


def test_group_polynomial_is_gl_order_times_class_number():
    # the zeta-fixed classes of GL_n are in bijection with the classes of
    # GL_{n/d}, so the count is |GL_n| times the enumerated class number
    cases = [(2, 2, F3), (4, 2, F3), (4, 2, F5), (3, 3, F4), (3, 3, gf.field(7)),
             (4, 4, F5), (6, 2, F3), (6, 3, F4)]
    for n, d, spec in cases:
        classes = cs.enumerate_classes(n // d, spec, restrict_invertible=True)
        expected = cs.gl_order(n, spec.q) * len(classes)
        assert cs.point_count_polynomial("group", n, d=d)(spec.q) == expected, (n, d, spec.q)
    # dimension n^2 + n/d with one top component, and empty for d not dividing n
    for n in range(1, 25):
        for d in range(1, n + 1):
            poly = cs.point_count_polynomial("group", n, d=d)
            if n % d:
                assert poly == cs.QPoly(), (n, d)
            else:
                assert poly.degree == n * n + n // d, (n, d)
                assert poly.leading_coefficient == 1, (n, d)
    for strategy in ("class", "brute"):
        assert cs.count_group_pairs(1, F3, 2, strategy) == 0


def test_point_count_polynomial_arguments():
    with pytest.raises(ValueError):
        cs.point_count_polynomial("lie", 2)  # no characteristic
    for p in (1, 4, 6):  # not a characteristic
        with pytest.raises(ValueError):
            cs.point_count_polynomial("lie", 4, p=p)
    with pytest.raises(ValueError):
        cs.point_count_polynomial("other", 2)
    for variety in ("group", "W"):  # zeta has no order below 1
        for d in (0, -2):
            with pytest.raises(ValueError):
                cs.point_count_polynomial(variety, 4, d=d)


def test_polynomial_mismatch_fires_under_optimize():
    # a wrong polynomial must be caught against the brute count by
    # "count --strategy both", also where python -O strips assert statements
    src = str(Path(cs.__file__).resolve().parents[1])
    code = (
        "import sys\n"
        "from commvar import census, cli\n"
        "census._lie_polynomial = lambda n, p: census.QPoly((0, 1))\n"
        "census._group_polynomial = lambda n, d: census.QPoly((1,))\n"
        "census._w_polynomial = lambda n, d: census.QPoly((1,))\n"
        "for argv in (['commuting', '--n', '2', '--qs', '2'],\n"
        "             ['group', '--n', '2', '--d', '2', '--qs', '3'],\n"
        "             ['W', '--n', '2', '--d', '2', '--qs', '3']):\n"
        "    code = cli.main(['count'] + argv + ['--strategy', 'both'])\n"
        "    print('exit', code, file=sys.stderr)\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True,
        text=True, timeout=120,
    )
    assert out.stdout == ""
    lines = out.stderr.splitlines()
    assert len(lines) == 6, out.stderr
    for failure, brute, q in zip(lines[::2], (88, 96, 18), (2, 3, 3)):
        assert failure.startswith(
            "mathematical check failed: brute count %d at q=%d differs" % (brute, q)
        ), failure
    assert lines[1::2] == ["exit 1"] * 3
