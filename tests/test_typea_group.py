import itertools
import random

import pytest

from commvar import census, gf, matgf as mg, typea_group as tg

F3 = gf.field(3)
F4 = gf.field(2, 2)
F5 = gf.field(5)


def all_invertible(spec, n):
    q = spec.q
    out = []
    for entries in itertools.product(range(q), repeat=n * n):
        m = mg.Mat(spec, [entries[i * n : (i + 1) * n] for i in range(n)])
        if m.is_invertible():
            out.append(m)
    return out


def test_zeta_instance_det_obstruction():
    inst = tg.zeta_instance(F3, 2, 2)
    assert inst.zeta == F3.el(2)
    with pytest.raises(ValueError):
        tg.zeta_instance(F3, 3, 2)  # d does not divide n
    with pytest.raises(ValueError):
        tg.zeta_instance(F3, 4, 4)  # no element of order 4 in F_3


def test_build_d_examples():
    inst = tg.zeta_instance(F3, 1, 1)
    a = mg.Mat.from_rows(F3, [[2]])
    assert tg.build_d_matrix(inst, a) == a
    inst = tg.zeta_instance(F3, 2, 2)
    assert tg.build_d_matrix(inst, mg.Mat.from_rows(F3, [[1]])) == mg.Mat.from_rows(
        F3, [[1, 0], [0, 2]]
    )
    inst = tg.zeta_instance(F5, 4, 2)
    rng = random.Random(0)
    while True:
        a = mg.Mat(F5, [[rng.randrange(5) for _ in range(2)] for _ in range(2)])
        if a.is_invertible():
            break
    d = tg.build_d_matrix(inst, a)
    assert d.det() == a.det() * (a * F5.el(-1)).det()
    with pytest.raises(ValueError):
        tg.build_d_matrix(inst, mg.Mat.zeros(F5, 2, 2))


def test_build_rho_examples():
    assert tg.build_rho(F3, 3, 1) == mg.Mat.identity(F3, 3)
    assert tg.build_rho(F3, 2, 2) == mg.Mat.from_rows(F3, [[0, 1], [1, 0]])
    with pytest.raises(ValueError):
        tg.build_rho(F3, 3, 2)
    for n, d in [(2, 2), (4, 2), (3, 3), (6, 3)]:
        rho = tg.build_rho(F3, n, d)
        assert rho**d == mg.Mat.identity(F3, n)
        # permutation matrix: one 1 per row and column
        for row in rho.rows:
            assert sorted(row) == [0] * (n - 1) + [1]
        for j in range(n):
            assert sorted(rho.col(j)) == [0] * (n - 1) + [1]


def test_rho_conjugation_block_shifts_d():
    inst = tg.zeta_instance(F3, 4, 2)
    rng = random.Random(1)
    while True:
        a = mg.Mat(F3, [[rng.randrange(3) for _ in range(2)] for _ in range(2)])
        if a.is_invertible():
            break
    d = tg.build_d_matrix(inst, a)
    rho = tg.build_rho(F3, 4, 2)
    shifted = rho.inverse() @ d @ rho
    assert shifted == mg.block_diag(F3, [a * inst.zeta, a])
    # d = 3: diag(A, zA, z^2 A) shifts to diag(zA, z^2 A, A)
    inst3 = tg.zeta_instance(F4, 3, 3)
    seed = mg.Mat.from_rows(F4, [["[1,1]"]])
    d3 = tg.build_d_matrix(inst3, seed)
    rho3 = tg.build_rho(F4, 3, 3)
    z = inst3.zeta
    assert rho3.inverse() @ d3 @ rho3 == mg.block_diag(
        F4, [seed * z, seed * (z * z), seed]
    )


def test_central_commutator_identity():
    rec = tg.verify_central_commutator(tg.zeta_instance(F3, 2, 2), mg.Mat.from_rows(F3, [[1]]))
    assert rec.ok and rec.commutator == mg.Mat.scalar(F3, 2, -1)
    # (3,3) over GF(4): independent hand-built D and rho
    inst = tg.zeta_instance(F4, 3, 3)
    t = F4.el([0, 1])
    assert inst.zeta == t
    rec = tg.verify_central_commutator(inst, mg.Mat.from_rows(F4, [[1]]))
    d = mg.Mat.from_rows(F4, [["1", "0", "0"], ["0", "[0,1]", "0"], ["0", "0", "[1,1]"]])
    rho = mg.Mat.from_rows(F4, [[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    assert rec.d_matrix == d and rec.rho == rho
    assert d.inverse() @ rho.inverse() @ d @ rho == mg.Mat.scalar(F4, 3, t)
    assert rec.ok
    # holds for every invertible seed, eigenvalue disjointness not needed
    rng = random.Random(2)
    inst = tg.zeta_instance(F5, 4, 2)
    for _ in range(5):
        while True:
            a = mg.Mat(F5, [[rng.randrange(5) for _ in range(2)] for _ in range(2)])
            if a.is_invertible():
                break
        assert tg.verify_central_commutator(inst, a).ok


def test_is_conjugate_examples():
    x = mg.Mat.from_rows(F3, [[1, 0], [0, 2]])
    assert tg.is_conjugate_to_zeta_x(x, F3.one)
    assert tg.is_conjugate_to_zeta_x(x, F3.el(2))
    inf = mg.invariant_factors(x)
    assert len(inf.factors) == 1 and inf.factors[0].pretty() == "t^2+2"
    assert not tg.is_conjugate_to_zeta_x(mg.Mat.identity(F3, 2), F3.el(2))
    # diag(1, 1, 2) and 2 diag(1, 1, 2) share the minimal polynomial t^2+2,
    # but only the first has the invariant factor t+2
    y = mg.Mat.from_rows(F3, [[1, 0, 0], [0, 1, 0], [0, 0, 2]])
    assert not tg.is_conjugate_to_zeta_x(y, F3.el(2))
    with pytest.raises(ValueError):
        tg.is_conjugate_to_zeta_x(mg.Mat.zeros(F3, 2, 2), F3.el(2))


def test_solution_set_exhaustive_gl2_f3():
    invertibles = all_invertible(F3, 2)
    assert len(invertibles) == 48
    # zeta = 1 also covers x with two invariant factors, the scalars
    for zeta in (F3.el(2), F3.one):
        zi = mg.Mat.scalar(F3, 2, zeta)
        total = 0
        for x in invertibles:
            brute = [y for y in invertibles if mg.group_commutator(x, y) == zi]
            coset = tg.solution_set_for_x(x, zeta)
            if coset is None:
                assert not tg.is_conjugate_to_zeta_x(x, zeta)
                assert brute == []
            else:
                assert tg.is_conjugate_to_zeta_x(x, zeta)
                assert len(brute) == coset.count == coset.centralizer_order
                assert coset.contains(coset.witness)
                assert all(coset.contains(y) for y in brute)
                assert sum(1 for y in invertibles if coset.contains(y)) == len(brute)
            # the per-x solution-space walk behind the brute group count and verify
            assert census._group_solutions(x, zeta) == len(brute)
            total += len(brute)
        assert total == census.count_group_pairs(2, F3, zeta, "class")


def test_solution_set_empty_for_central_x():
    assert tg.solution_set_for_x(mg.Mat.identity(F3, 2), F3.el(2)) is None
    assert tg.solution_set_for_x(mg.Mat.scalar(F5, 2, 3), F5.el(4)) is None


def test_rho_solves_for_standard_d():
    inst = tg.zeta_instance(F5, 4, 2)
    rng = random.Random(3)
    while True:
        a = mg.Mat(F5, [[rng.randrange(5) for _ in range(2)] for _ in range(2)])
        if a.is_invertible():
            break
    d = tg.build_d_matrix(inst, a)
    coset = tg.solution_set_for_x(d, inst.zeta)
    assert coset is not None
    assert coset.contains(tg.build_rho(F5, 4, 2))


def test_twist_coherence_with_census():
    # invariant-factor conjugacy test agrees with the class twist fixed test
    for spec, d in [(F3, 2), (F5, 2)]:
        zeta = gf.root_of_unity(spec, d)
        fixed_data = {
            cl.data for cl in census.enumerate_classes(2, spec, True) if cl.twisted(zeta) == cl
        }
        for x in all_invertible(spec, 2):
            assert tg.is_conjugate_to_zeta_x(x, zeta) == (mg.primary_data(x) in fixed_data)


def test_group_dims():
    assert tg.group_dims(2, 2).as_dict() == {"n": 2, "d": 2, "dim_V": 5, "dim_W": 3}
    assert tg.group_dims(3, 3).as_dict() == {"n": 3, "d": 3, "dim_V": 10, "dim_W": 7}
    assert tg.group_dims(4, 2).as_dict() == {"n": 4, "d": 2, "dim_V": 18, "dim_W": 14}
    for n, d in [(3, 2), (4, 0), (-2, 2), (0, 2)]:
        with pytest.raises(ValueError):
            tg.group_dims(n, d)
