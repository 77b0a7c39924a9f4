import itertools
import math
import random

import pytest

from commvar import gf, matgf as mg
from commvar import polyring as pr
from commvar import typea_group as tg

F2 = gf.field(2)
F3 = gf.field(3)
F4 = gf.field(2, 2)
F5 = gf.field(5)


def random_mat(spec, n, rng):
    return mg.Mat(spec, [[rng.randrange(spec.q) for _ in range(n)] for _ in range(n)])


def all_mats(spec, n):
    q = spec.q
    for entries in itertools.product(range(q), repeat=n * n):
        yield mg.Mat(spec, [entries[i * n : (i + 1) * n] for i in range(n)])


def charpoly_leibniz(m):
    """Independent characteristic polynomial via permutation expansion."""
    spec = m.spec
    n = m.n_rows
    entries = [
        [
            pr.pnormalize(
                (spec.neg(m.rows[i][j]), spec.one_idx)
                if i == j
                else (spec.neg(m.rows[i][j]),)
            )
            for j in range(n)
        ]
        for i in range(n)
    ]
    total = ()
    for perm in itertools.permutations(range(n)):
        inversions = sum(
            1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j]
        )
        term = (spec.one_idx,)
        for i in range(n):
            term = pr.pmul(spec, term, entries[i][perm[i]])
        if inversions % 2:
            term = tuple(spec.neg(c) for c in term)
        total = pr.padd(spec, total, term)
    return pr.Poly(spec, total)


def test_mat_arith_examples():
    rng = random.Random(0)
    a = random_mat(F3, 4, rng)
    ident = mg.Mat.identity(F3, 4)
    assert ident @ a == a and a @ ident == a
    while True:
        b = random_mat(F5, 3, rng)
        if b.is_invertible():
            break
    assert b.inverse().inverse() == b
    nil = mg.Mat.from_rows(F3, [[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    assert (nil**3).is_zero
    with pytest.raises(ValueError):
        mg.Mat.zeros(F3, 2, 2).inverse()
    with pytest.raises(ValueError):
        nil.inverse()


def test_mat_pow_equals_repeated_products():
    rng = random.Random(3)
    for spec, n in ((F2, 3), (F3, 2), (F4, 3), (F5, 2)):
        while True:
            a = random_mat(spec, n, rng)
            if a.is_invertible():
                break
        for base, sign in ((a, 1), (a.inverse(), -1)):
            acc = mg.Mat.identity(spec, n)
            for e in range(21):
                assert a ** (sign * e) == acc, (spec, sign * e)
                acc = acc @ base
    nil = mg.Mat.from_rows(F3, [[0, 1], [0, 0]])
    with pytest.raises(ValueError):
        nil ** -1


def test_shape_and_field_mismatch():
    with pytest.raises(ValueError):
        mg.Mat.identity(F3, 2) + mg.Mat.identity(F3, 3)
    with pytest.raises(ValueError):
        mg.Mat.identity(F3, 2) @ mg.Mat.identity(F2, 2)


def test_lie_commutator_examples():
    a = mg.Mat.from_rows(F2, [[0, 0], [1, 0]])
    b = mg.Mat.from_rows(F2, [[0, 1], [0, 0]])
    assert mg.lie_commutator(a, b) == mg.Mat.identity(F2, 2)
    assert mg.lie_commutator(a, a).is_zero
    rng = random.Random(4)
    for _ in range(100):
        x, y = random_mat(F4, 2, rng), random_mat(F4, 2, rng)
        assert mg.lie_commutator(x, y).trace() == F4.zero


def test_group_commutator_examples():
    rng = random.Random(5)
    x = mg.Mat.from_rows(F3, [[1, 0], [0, 2]])
    assert mg.group_commutator(x, x) == mg.Mat.identity(F3, 2)
    y = mg.Mat.from_rows(F3, [[2, 0], [0, 1]])
    assert mg.group_commutator(x, y) == mg.Mat.identity(F3, 2)
    for _ in range(25):
        g = random_mat(F5, 2, rng)
        h = random_mat(F5, 2, rng)
        if g.is_invertible() and h.is_invertible():
            assert mg.group_commutator(g, h).det() == F5.one
    with pytest.raises(ValueError):
        mg.group_commutator(mg.Mat.zeros(F3, 2, 2), x)


def test_det_matches_leibniz_expansion():
    # det A = (-1)^n det(0 I - A), the constant term of the Leibniz charpoly;
    # the rows of a triangular matrix, shuffled, make the elimination swap
    rng = random.Random(14)
    for spec in (F2, F3, F5, F4, gf.field(2, 3), gf.field(3, 2)):
        for n in range(1, 5):
            for _ in range(15):
                a = random_mat(spec, n, rng)
                upper = [
                    [rng.randrange(j == i, spec.q) if j >= i else 0 for j in range(n)]
                    for i in range(n)
                ]
                swapped = mg.Mat(spec, rng.sample(upper, n))
                rows = [list(r) for r in a.rows]
                c = rng.randrange(spec.q)
                rows[-1] = [spec.mul(c, e) for e in rows[0]] if n > 1 else [0]
                singular = mg.Mat(spec, rows)
                for m in (a, swapped, singular):
                    const = charpoly_leibniz(m).coeffs[0]
                    assert m.det().idx == (spec.neg(const) if n % 2 else const)
                assert swapped.det() and not singular.det()


def test_rref_examples():
    assert mg.rref(mg.Mat.identity(F3, 5)).rank == 5
    nil = mg.Mat.from_rows(F2, [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 0, 0]])
    assert mg.rref(nil).rank == 3
    assert len(mg.kernel_basis(nil)) == 1
    rng = random.Random(6)
    for _ in range(20):
        a = random_mat(F2, 6, rng)
        assert mg.rank(a) == mg.rank(a.transpose())


def test_solve_affine_examples():
    ident = mg.Mat.identity(F3, 3)
    sol = mg.solve_affine(ident, [1, 2, 0])
    assert sol is not None and sol[0] == (1, 2, 0) and sol[1] == []
    assert mg.solve_affine(mg.Mat.zeros(F3, 2, 2), [1, 0]) is None
    sol = mg.solve_affine(mg.Mat.zeros(F3, 2, 2), [0, 0])
    assert sol is not None and len(sol[1]) == 2


def test_solve_affine_random_consistency():
    rng = random.Random(7)
    for _ in range(40):
        spec = [F2, F3, F5][rng.randrange(3)]
        a = mg.Mat(spec, [[rng.randrange(spec.q) for _ in range(4)] for _ in range(3)])
        x = tuple(rng.randrange(spec.q) for _ in range(4))
        b = a.apply(x)
        sol = mg.solve_affine(a, list(b))
        assert sol is not None
        assert a.apply(sol[0]) == b
        for v in sol[1]:
            assert a.apply(v) == (0,) * 3
        assert sol[1] == mg.kernel_basis(a)  # same basis, same order


def test_commutator_solutions_examples():
    # scalar A: inconsistent for C = I
    assert mg.commutator_solutions(mg.Mat.scalar(F3, 2, 1), mg.Mat.identity(F3, 2)) is None
    # p does not divide n: trace obstruction
    j = mg.Mat.from_rows(F3, [[0, 1], [0, 0]])
    assert mg.commutator_solutions(j, mg.Mat.identity(F3, 2)) is None
    # kernel dimension equals the centralizer dimension at C = 0
    sol = mg.commutator_solutions(j, mg.Mat.zeros(F3, 2, 2))
    assert sol is not None and sol.dim == mg.centralizer_dimension(j) == 2


def test_joint_centralizer_dimension():
    j = mg.Mat.from_rows(F3, [[0, 1], [0, 0]])
    assert mg.centralizer_dimension(j, j) == mg.centralizer_dimension(j) == 2
    # only the scalars commute with both j and its transpose
    assert mg.centralizer_dimension(j, j.transpose()) == 1
    with pytest.raises(ValueError):
        mg.centralizer_dimension(j, mg.Mat.identity(F3, 3))
    with pytest.raises(ValueError):
        mg.centralizer_dimension(j, mg.Mat.identity(F5, 2))


def test_ad_matrix_two_sided():
    rng = random.Random(14)
    for spec in (F4, F5, gf.field(3, 2)):
        for n in (2, 3):
            for _ in range(20):
                a, b, m = (random_mat(spec, n, rng) for _ in range(3))
                assert mg.ad_matrix(a, b).apply(mg.vec(m)) == mg.vec(a @ m - m @ b)
                assert mg.ad_matrix(a) == mg.ad_matrix(a, a)
    with pytest.raises(ValueError):
        mg.ad_matrix(random_mat(F5, 2, rng), random_mat(F5, 3, rng))


def test_min_poly_examples():
    assert mg.min_poly(mg.Mat.identity(F5, 3)) == pr.Poly.from_coeffs(F5, [-1 % 5, 1])
    nil = mg.Mat.from_rows(F5, [[0, 0, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])
    assert mg.min_poly(nil).pretty() == "t^4"
    d = mg.Mat.from_rows(F5, [[1, 0, 0], [0, 1, 0], [0, 0, 2]])
    expect = pr.Poly.from_coeffs(F5, [4, 1]) * pr.Poly.from_coeffs(F5, [3, 1])
    assert mg.min_poly(d) == expect


def test_invariant_factors_examples():
    inf = mg.invariant_factors(mg.Mat.identity(F3, 2))
    assert [f.pretty() for f in inf] == ["t+2", "t+2"]
    f = pr.Poly.from_coeffs(F5, [2, 3, 0, 1])
    assert list(mg.invariant_factors(mg.companion(f))) == [f]


def test_invariant_factor_chain_and_charpoly():
    rng = random.Random(8)
    for trial in range(50):
        spec = [F2, F3, F4, F5][trial % 4]
        n = rng.randrange(1, 5)
        a = random_mat(spec, n, rng)
        inf = mg.invariant_factors(a)
        for f, g in zip(inf.factors, inf.factors[1:]):
            assert divmod(g, f)[1].is_zero  # divisibility chain
        char = math.prod(inf.factors, start=pr.Poly.one(spec))  # their product
        assert char == charpoly_leibniz(a)
        m = mg.min_poly(a)
        assert divmod(char, m)[1].is_zero
        # the defining property: m annihilates A and no proper divisor does
        assert mg.poly_at_matrix(m, a).is_zero
        for f, _ in pr.factor(m):
            assert not mg.poly_at_matrix(m // f, a).is_zero


def test_one_snf_per_similarity_question_and_one_rref_per_solve(monkeypatch):
    calls = {"snf": 0, "rref": 0}
    snf, rref_rows = mg._snf_diag, mg._rref_rows

    def counted_snf(*args, **kwargs):
        calls["snf"] += 1
        return snf(*args, **kwargs)

    def counted_rref(*args, **kwargs):
        calls["rref"] += 1
        return rref_rows(*args, **kwargs)

    monkeypatch.setattr(mg, "_snf_diag", counted_snf)
    monkeypatch.setattr(mg, "_rref_rows", counted_rref)
    rng = random.Random(12)
    for spec in (F2, F3, F4):
        for _ in range(5):
            a = random_mat(spec, 3, rng)
            questions = (mg.jordan_type, mg.splitting_field, mg.rcf_transform, mg.regular_commuting)
            for question in questions:
                calls["snf"] = 0
                question(a)
                assert calls["snf"] == 1, question.__name__
            x = tuple(rng.randrange(spec.q) for _ in range(3))
            for b in (a.apply(x), (1, 0, 0)):
                calls["rref"] = 0
                mg.solve_affine(a, b)
                assert calls["rref"] == 1
    # one SNF per zeta-solution coset, whether x ~ zeta x or not
    for spec, n, d in ((F3, 2, 2), (F4, 3, 3), (F5, 4, 2)):
        inst = tg.zeta_instance(spec, n, d)
        a = mg.random_matrix(spec, n // d, rng, invertible=True)
        for x, in_w in ((tg.build_d_matrix(inst, a), True), (mg.Mat.identity(spec, n), False)):
            calls["snf"] = 0
            assert (tg.solution_set_for_x(x, inst.zeta) is not None) == in_w
            assert calls["snf"] == 1
    # too few elements for the shifts: the field grows, on the same SNF
    for zero, grown in ((mg.Mat.zeros(F2, 3, 3), 4), (mg.Mat.zeros(F3, 4, 4), 9)):
        calls["snf"] = 0
        r = mg.regular_commuting(zero)
        assert calls["snf"] == 1 and r.spec.q == grown


def test_similarity_classifier_exhaustive_2x2():
    # invariant factors classify conjugacy: brute orbit oracle over GL
    for spec in [F2, F3]:
        mats = list(all_mats(spec, 2))
        gl = [g for g in mats if g.is_invertible()]
        orbit_of = {}
        for a in mats:
            orbit_of[a] = frozenset(g @ a @ g.inverse() for g in gl)
        for a in mats:
            fa = mg.invariant_factors(a)
            for b in mats:
                assert (mg.invariant_factors(b) == fa) == (b in orbit_of[a])


def test_rcf_transform_postcondition():
    rng = random.Random(10)
    for trial in range(30):
        spec = [F2, F3, F4][trial % 3]
        n = rng.randrange(1, 5)
        a = random_mat(spec, n, rng)
        p, factors = mg.rcf_transform(a)
        assert p.is_invertible()
        assert p.inverse() @ a @ p == mg.block_diag(spec, [mg.companion(f) for f in factors])


@pytest.mark.parametrize("shape", [(2, 3), (3, 2)])
def test_similarity_questions_reject_non_square(shape):
    rows, cols = shape
    a = mg.Mat(F3, [[(i + 2 * j) % 3 for j in range(cols)] for i in range(rows)])
    questions = (
        mg.rcf_transform,
        mg.jordan_type,
        mg.regular_commuting,
    )
    for question in questions:
        with pytest.raises(ValueError, match="non-square"):
            question(a)


def test_jordan_type_examples():
    nil = mg.Mat.from_rows(F3, [[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    jt = mg.jordan_type(nil)
    assert len(jt.entries) == 1
    lam, sizes = jt.entries[0]
    assert lam == jt.spec.zero and sizes == (3,)
    jt = mg.jordan_type(mg.Mat.from_rows(F3, [[1, 0], [0, 2]]))
    assert [(e.idx, s) for e, s in jt.entries] == [(1, (1,)), (2, (1,))]
    # eigenvalues in an extension
    jt = mg.jordan_type(mg.companion(pr.Poly.from_coeffs(F3, [1, 0, 1])))
    assert jt.spec.q == 9 and len(jt.entries) == 2
    assert all(sizes == (1,) for _, sizes in jt.entries)


def test_jordan_type_matches_rank_sequences():
    rng = random.Random(12)
    for trial in range(25):
        spec = [F2, F3, F4][trial % 3]
        n = rng.randrange(1, 5)
        a = random_mat(spec, n, rng)
        jt = mg.jordan_type(a)
        assert jt.total() == n
        ae = mg.embed_mat(a, jt.spec)
        for lam, sizes in jt.entries:
            shift = ae - mg.Mat.scalar(jt.spec, n, lam)
            for j in range(1, sizes[0] + 1):
                blocks_ge_j = mg.rank(shift ** (j - 1)) - mg.rank(shift**j)
                assert blocks_ge_j == sum(1 for s in sizes if s >= j)


def test_is_regular_examples():
    assert mg.is_regular(mg.companion(pr.Poly.from_coeffs(F3, [1, 2, 0, 1])))
    assert not mg.is_regular(mg.Mat.identity(F3, 2))
    assert not mg.is_regular(mg.Mat.identity(F2, 3))


def test_regular_iff_centralizer_dimension_exhaustive():
    for spec, n in [(F2, 2), (F2, 3)]:
        for a in all_mats(spec, n):
            assert mg.is_regular(a) == (mg.centralizer_dimension(a) == n)


def test_regular_commuting():
    # any regular matrix commuting with A suffices; verify both postconditions
    r = mg.regular_commuting(mg.Mat.zeros(F3, 3, 3))
    assert mg.is_regular(r)
    j22 = mg.Mat.from_rows(F5, [[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0]])
    r = mg.regular_commuting(j22)
    ae = mg.embed_mat(j22, r.spec)
    assert mg.is_regular(r) and ae @ r == r @ ae
    # field too small for distinct shifts: transparent extension
    r = mg.regular_commuting(mg.Mat.zeros(F2, 3, 3))
    assert mg.is_regular(r) and r.spec.q >= 3
    rng = random.Random(14)
    for trial in range(10):
        spec = [F2, F3][trial % 2]
        a = random_mat(spec, 3, rng)
        r = mg.regular_commuting(a)
        ae = mg.embed_mat(a, r.spec)
        assert mg.is_regular(r) and ae @ r == r @ ae
    # a splitting field of degree 35 is not needed: both stay over F_2
    f5 = pr.irreducibles_of_degree(F2, 5)[0]
    f7 = pr.irreducibles_of_degree(F2, 7)[0]
    for factors in ([f5, f7], [f5, f5, f7]):
        a = mg.block_diag(F2, [mg.companion(f) for f in factors])
        r = mg.regular_commuting(a)
        assert r.spec == F2 and mg.is_regular(r) and a @ r == r @ a


def test_jordan_splitting_field_limit():
    # factor degrees 5 and 7 need a degree-35 splitting field, beyond the cap
    f5 = pr.irreducibles_of_degree(F2, 5)[0]
    f7 = pr.irreducibles_of_degree(F2, 7)[0]
    a = mg.block_diag(F2, [mg.companion(f5), mg.companion(f7)])
    with pytest.raises(mg.LimitExceeded):
        mg.jordan_type(a)


def test_matrix_text_round_trip():
    a = mg.Mat.from_rows(F2, [[0, 0], [1, 0]])
    assert a.to_text() == "0,0;1,0"
    assert mg.Mat.from_text(F2, "0,0;1,0") == a
    b = mg.Mat.from_rows(F4, [["[1,1]", "[0,1]"], ["1", "0"]])
    assert mg.Mat.from_text(F4, b.to_text()) == b
    for m in all_mats(F3, 2):
        assert mg.Mat.from_text(F3, m.to_text()) == m


@pytest.mark.parametrize("seed", [0, 5, 7])
def test_random_matrix_draws_row_major_and_redraws_until_invertible(seed):
    # the reference draws n^2 entries in one flat run and slices it into rows
    for spec in (F2, F3, F4, F5):
        for n in (1, 2, 3):
            for invertible in (False, True):
                rng, ref = random.Random(seed), random.Random(seed)
                for _ in range(4):
                    while True:
                        flat = [ref.randrange(spec.q) for _ in range(n * n)]
                        expect = mg.Mat(spec, [flat[i * n : (i + 1) * n] for i in range(n)])
                        if not invertible or expect.is_invertible():
                            break
                    assert mg.random_matrix(spec, n, rng, invertible) == expect
                assert rng.getstate() == ref.getstate()


def _scalar_matmul(a, b):
    """a @ b through FieldSpec.add and FieldSpec.mul, one call per term."""
    spec = a.spec
    return mg.Mat(spec, [
        [_scalar_dot(spec, row, col) for col in zip(*b.rows)] for row in a.rows
    ])


def _scalar_dot(spec, f, g):
    acc = 0
    for x, y in zip(f, g):
        acc = spec.add(acc, spec.mul(x, y))
    return acc


def _scalar_rank(m):
    """Gauss-Jordan rank through the scalar methods."""
    spec, rows, rank = m.spec, [list(r) for r in m.rows], 0
    for c in range(m.n_cols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        iv = spec.inv(rows[rank][c])
        for i, row in enumerate(rows):
            if i != rank and row[c]:
                f = spec.mul(row[c], iv)
                rows[i] = [spec.sub(x, spec.mul(f, y)) for x, y in zip(row, rows[rank])]
        rank += 1
    return rank


def _scalar_pmul(spec, f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        for j, y in enumerate(g):
            out[i + j] = spec.add(out[i + j], spec.mul(x, y))
    return pr.pnormalize(out)


@pytest.mark.parametrize("p,k", [(17, 2), (2, 9)])
def test_untabled_kernels_agree_with_scalar_arithmetic(p, k):
    # q > 256: the kernels read the row views over the scalar methods
    spec = gf.field(p, k)
    assert spec._mul_t is None
    rng = random.Random(spec.q)
    one = mg.Mat.identity(spec, 4)
    for _ in range(4):
        a, b = random_mat(spec, 4, rng), random_mat(spec, 4, rng)
        assert a @ b == _scalar_matmul(a, b)
        low = _scalar_matmul(  # rank at most 2
            mg.Mat(spec, [[rng.randrange(spec.q) for _ in range(2)] for _ in range(4)]),
            mg.Mat(spec, [[rng.randrange(spec.q) for _ in range(4)] for _ in range(2)]),
        )
        for m in (a, low):
            assert mg.rank(m) == _scalar_rank(m)
            if _scalar_rank(m) == 4:
                assert _scalar_matmul(m, m.inverse()) == one
        f = tuple(rng.randrange(spec.q) for _ in range(7)) + (rng.randrange(1, spec.q),)
        g = tuple(rng.randrange(spec.q) for _ in range(3)) + (rng.randrange(1, spec.q),)
        assert pr.pmul(spec, f, g) == _scalar_pmul(spec, f, g)
        quo, rem = pr.pdivmod(spec, f, g)
        assert len(rem) < len(g)
        back = _scalar_pmul(spec, quo, g) + (0,) * len(f)
        assert pr.pnormalize([spec.add(x, y) for x, y in zip(back, rem + (0,) * len(f))]) == f


@pytest.mark.parametrize("spec", [F3, gf.field(3, 2)])
def test_kernels_make_no_scalar_arithmetic_call(spec, monkeypatch):
    # with FieldSpec.add, sub and mul raising, the kernels still give the
    # results of the scalar-method arithmetic and of the version before the
    # tables (the pinned rational canonical form and kernel)
    rng = random.Random(spec.q)
    g = mg.random_matrix(spec, 3, rng, invertible=True)
    c = g.inverse() @ mg.Mat.from_text(spec, "1,0,0;0,1,1;0,0,1") @ g  # factors t-1, (t-1)^2
    mats = [c] + [mg.random_matrix(spec, 3, rng, invertible=i < 2) for i in range(4)]

    def kernels():
        out = []
        for a, b in zip(mats, mats[1:] + mats[:1]):
            out += [a + b, a - b, a @ b, mg.rank(a), mg.kernel_basis(mg.ad_matrix(a)),
                    mg.invariant_factors(a), mg.rcf_transform(a)]
            out.append(a.inverse() if a.is_invertible() else None)
        return out

    with monkeypatch.context() as scalar:
        scalar.setattr(gf.FieldSpec, "_tables", lambda s: tuple(
            gf._ScalarRows(fn) for fn in (s.add, s.sub, s.mul)))
        expected = kernels()

    def refuse(*args):
        raise AssertionError("scalar field arithmetic in a kernel")

    for name in ("add", "sub", "mul"):
        monkeypatch.setattr(gf.FieldSpec, name, refuse)
    assert kernels() == expected
    p, factors = mg.rcf_transform(c)
    pinned = {
        3: ("1,0,0;0,0,1;1,1,0", ["2,1", "1,1,1"], [(1, 1, 0), (1, 0, 1)]),
        9: ("[0,0],[0,0],[1,0];[0,1],[0,0],[2,1];[1,0],[1,1],[0,2]",
            ["[2,0],[1,0]", "[1,0],[1,0],[1,0]"], [(1, 3, 0), (3, 0, 3)]),
    }[spec.q]
    kernel = mg.kernel_basis(c - mg.Mat.identity(spec, 3))
    assert (p.to_text(), [f.to_text() for f in factors], kernel) == pinned
