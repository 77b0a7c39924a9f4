import itertools
import math
import random

import pytest

from commvar import gf, matgf as mg, weyl
from commvar import polyring as pr

F2 = gf.field(2)
F3 = gf.field(3)
F4 = gf.field(2, 2)
F5 = gf.field(5)


def test_weyl_pair_p2_exact_matrices():
    pair = weyl.weyl_pair(F2, 0, 0)
    assert pair.a == mg.Mat.from_rows(F2, [[0, 0], [1, 0]])
    assert pair.b == mg.Mat.from_rows(F2, [[0, 1], [0, 0]])
    assert mg.lie_commutator(pair.a, pair.b) == mg.Mat.identity(F2, 2)


def test_weyl_pair_p3_direct_multiplication_oracle():
    pair = weyl.weyl_pair(F3, 0, 0)
    # superdiagonal carries -1, -2 = 2, 1
    assert pair.b == mg.Mat.from_rows(F3, [[0, 2, 0], [0, 0, 1], [0, 0, 0]])
    a, b = pair.a.rows, pair.b.rows
    comm = [
        [
            (sum(a[i][k] * b[k][j] for k in range(3)) - sum(b[i][k] * a[k][j] for k in range(3))) % 3
            for j in range(3)
        ]
        for i in range(3)
    ]
    assert comm == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_printed_sign_convention_gives_minus_identity_for_odd_p():
    # with superdiagonal +1, ..., +(p-1) the commutator is -I when p is odd
    for spec in [F3, F5]:
        p = spec.p
        a_rows = [[0] * p for _ in range(p)]
        b_rows = [[0] * p for _ in range(p)]
        for i in range(1, p):
            a_rows[i][i - 1] = 1
        for i in range(p - 1):
            b_rows[i][i + 1] = i + 1
        a, b = mg.Mat(spec, a_rows), mg.Mat(spec, b_rows)
        assert mg.lie_commutator(a, b) == mg.Mat.scalar(spec, p, -1)


def test_weyl_pair_central_scalars_and_cube():
    pair = weyl.weyl_pair(F3, 1, 0)
    assert pair.a**3 == mg.Mat.identity(F3, 3)
    pair = weyl.weyl_pair(F5, 2, 3)
    assert pair.a**5 == mg.Mat.scalar(F5, 5, F5.el(2) ** 5)
    assert pair.b**5 == mg.Mat.scalar(F5, 5, F5.el(3) ** 5)


def test_weyl_pair_algebra_dimension():
    rng = random.Random(1)
    for spec in [F2, F3, F5, F4]:
        for _ in range(2):
            alpha = gf.Fe(spec, rng.randrange(spec.q))
            beta = gf.Fe(spec, rng.randrange(spec.q))
            assert weyl.weyl_pair(spec, alpha, beta).algebra_dimension() == spec.p**2


def test_block_pair_22_invariant_factor():
    pair = weyl.build_block_pair(F2, 2)
    assert mg.lie_commutator(pair.x, pair.y) == mg.Mat.identity(F2, 4)
    inf = mg.invariant_factors(pair.x)
    assert len(inf.factors) == 1 and inf.factors[0].pretty() == "t^4"
    assert mg.is_regular(pair.x)
    assert not (pair.x**2).is_zero


def test_block_pair_r1_reduces_to_weyl_pair():
    a1 = F3.el(2)
    pair = weyl.build_block_pair(F3, 1, [a1])
    ref = weyl.weyl_pair(F3, a1, 0)
    assert mg.invariant_factors(pair.x) == mg.invariant_factors(ref.a)  # similar
    # the pair itself is isomorphic as a representation: a nonzero
    # intertwiner between irreducibles is invertible
    spec = F3
    n = 3
    rows = []
    for m1, m2 in [(pair.x, ref.a), (pair.y, ref.b)]:
        # g m1 = m2 g, unknowns g (row-major)
        for i in range(n):
            for j in range(n):
                row = [0] * (n * n)
                for k in range(n):
                    row[i * n + k] = spec.add(row[i * n + k], m1.rows[k][j])
                    row[k * n + j] = spec.sub(row[k * n + j], m2.rows[i][k])
                rows.append(row)
    kern = mg.kernel_basis(mg.Mat(spec, rows))
    assert len(kern) == 1
    g = mg.Mat(spec, [kern[0][i * n : (i + 1) * n] for i in range(n)])
    assert g.is_invertible() and g @ pair.x == ref.a @ g and g @ pair.y == ref.b @ g


def test_block_pair_regular_over_extension_scalars():
    t = F4.el([0, 1])
    pair = weyl.build_block_pair(F4, 3, [F4.zero, F4.one, t])
    assert mg.is_regular(pair.x)
    assert mg.lie_commutator(pair.x, pair.y) == mg.Mat.identity(F4, 6)


def test_kernel_action_check():
    for spec in [F2, F3, F5]:
        p = spec.p
        pair = weyl.build_block_pair(spec, 2)
        rec = weyl.kernel_action_check(pair)
        assert rec.ok
        assert rec.multiplier == spec.el(-1)
        # Wilson: (p-1)! = -1, so the multiplier is +/- (p-1)!
        assert rec.multiplier == spec.el((-1) ** (p - 1) * math.factorial(p - 1))
        assert not (pair.x**p).is_zero
    with pytest.raises(ValueError):
        weyl.kernel_action_check(weyl.build_block_pair(F2, 3))


def test_solution_family_members_and_decompose():
    pair = weyl.build_block_pair(F2, 2)
    fam = weyl.solution_family(pair.x, pair.y)
    n = 4
    assert fam.dim == n
    # f = 0 and f = constant are members
    assert fam.member(pr.Poly.zero(F2)) == pair.y
    const = pr.Poly.from_coeffs(F2, [1])
    assert fam.member(const) == pair.y + mg.Mat.identity(F2, n)
    assert mg.lie_commutator(pair.x, fam.member(const)) == mg.Mat.identity(F2, n)
    # exact reconstruction in both directions
    rng = random.Random(3)
    for _ in range(10):
        f = pr.Poly(F2, tuple(rng.randrange(2) for _ in range(n)))
        assert fam.decompose(fam.member(f)) == f
    for y2 in fam.sample(10, seed=4):
        f = fam.decompose(y2)
        assert f is not None and fam.member(f) == y2
    # non-members are rejected
    assert fam.decompose(pair.y + pair.y) is None or (pair.y + pair.y) == fam.member(
        fam.decompose(pair.y + pair.y)
    )


def test_solution_family_sample_draws_from_the_whole_field():
    # over GF(4) the sampled coefficients must reach beyond F_2 = {0, 1}
    pair = weyl.build_block_pair(F4, 1)
    fam = weyl.solution_family(pair.x, pair.y)
    coeffs = set()
    for y2 in fam.sample(50, seed=2):
        f = fam.decompose(y2)
        assert f is not None and fam.member(f) == y2
        coeffs.update(f.coeffs)
    assert coeffs - {0, F4.one_idx}


def test_solution_family_rejects_bad_input():
    pair = weyl.build_block_pair(F2, 2)
    with pytest.raises(ValueError):
        weyl.solution_family(pair.x, mg.Mat.zeros(F2, 4, 4))  # [X, 0] != I
    ident = mg.Mat.identity(F2, 2)
    with pytest.raises(ValueError):
        weyl.solution_family(mg.Mat.scalar(F2, 2, 1), ident)


def test_affine_dimension_is_rank_defect():
    pair = weyl.build_block_pair(F2, 2)
    assert mg.rref(mg.ad_matrix(pair.x)).rank == 12  # 16 - 4


def test_generic_split_pair():
    a, b = weyl.generic_split_pair(F2, [0, 1], [0, 0])
    assert mg.lie_commutator(a, b) == mg.Mat.identity(F2, 4)
    assert mg.centralizer_dimension(a, b) == 2
    # non-generic scalars may give a larger joint centralizer
    a, b = weyl.generic_split_pair(F2, [0, 0], [0, 0])
    assert mg.centralizer_dimension(a, b) == 4
    # r = 1 gives the irreducible p x p representation
    a, b = weyl.generic_split_pair(F3, [1], [2])
    assert a**3 == mg.Mat.scalar(F3, 3, F3.one) and b**3 == mg.Mat.scalar(F3, 3, F3.el(2) ** 3)


def test_joint_centralizer_generic_random():
    rng = random.Random(6)
    for spec, r in [(F3, 2), (F5, 2)]:
        while True:
            a_s = [gf.Fe(spec, rng.randrange(spec.q)) for _ in range(r)]
            b_s = [gf.Fe(spec, rng.randrange(spec.q)) for _ in range(r)]
            if len({(x.idx, y.idx) for x, y in zip(a_s, b_s)}) == r:
                break
        a, b = weyl.generic_split_pair(spec, a_s, b_s)
        assert mg.centralizer_dimension(a, b) == r


def test_component_dimensions():
    cd = weyl.component_dimensions(2, 2)
    assert cd.dim_scalar_commutator == 5
    assert cd.pgl_components == (4, 4)
    assert cd.equal_dimension_exception
    cd = weyl.component_dimensions(2, 4)
    assert cd.dim_scalar_commutator == 18
    assert cd.pgl_components == (18, 17)
    assert cd.sl_dimension == 18
    assert cd.psl_times_k_components == (17, 16)
    assert cd.psl_times_k_applicable and not cd.equal_dimension_exception
    cd = weyl.component_dimensions(3, 3)
    assert cd.dim_scalar_commutator == 10
    assert cd.pgl_components == (10, 9)
    assert not cd.psl_times_k_applicable
    for p, n in [(3, 4), (0, 4), (1, 4), (4, 4), (2, 0), (2, -2)]:
        with pytest.raises(ValueError):
            weyl.component_dimensions(p, n)


def test_exhaustive_solutions_2x2_f2_block_sizes_and_traces():
    # all 24 pairs over M_2(F_2) with [A,B] = I: Jordan sizes even, traces 0
    mats = [
        mg.Mat(F2, [e[:2], e[2:]])
        for e in itertools.product(range(2), repeat=4)
    ]
    ident = mg.Mat.identity(F2, 2)
    solutions = [(a, b) for a in mats for b in mats if mg.lie_commutator(a, b) == ident]
    assert len(solutions) == 24
    for a, b in solutions:
        for m in (a, b):
            assert m.trace() == F2.zero
            assert all(s % 2 == 0 for s in mg.jordan_type(m).all_sizes())


def test_sampled_solution_pairs_block_divisibility():
    for spec, r in [(F2, 2), (F3, 1)]:
        for a, b in weyl.sample_solution_pairs(spec, r, 40, seed=7):
            assert mg.lie_commutator(a, b) == mg.Mat.identity(spec, spec.p * r)
            assert a.trace() == spec.zero and b.trace() == spec.zero
            for m in (a, b):
                assert all(s % spec.p == 0 for s in mg.jordan_type(m).all_sizes())
