"""Property tests: conjugation invariants, class-size sums and point counts.

Hypothesis runs derandomized with few examples, so every run draws the
same cases and the module stays fast.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

import _literal_scan as ls  # noqa: E402
from commvar import census as cs, gf, matgf as mg, typea_group as tg  # noqa: E402
from commvar.polyring import Poly  # noqa: E402

FIELDS = [gf.field(2), gf.field(3), gf.field(2, 2), gf.field(5), gf.field(7), gf.field(3, 2)]

properties = settings(derandomize=True, max_examples=25, database=None, deadline=None)


@st.composite
def matrices(draw):
    spec = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(1, 4))
    entries = st.lists(st.integers(0, spec.q - 1), min_size=n, max_size=n)
    return mg.Mat(spec, draw(st.lists(entries, min_size=n, max_size=n)))


def invertibles(spec, n):
    entries = st.lists(st.integers(0, spec.q - 1), min_size=n, max_size=n)
    return (
        st.lists(entries, min_size=n, max_size=n)
        .map(lambda rows: mg.Mat(spec, rows))
        .filter(lambda m: m.is_invertible())
    )


@st.composite
def conjugate_pairs(draw):
    """(a, g) with g invertible of the same size over the same field."""
    a = draw(matrices())
    return a, draw(invertibles(a.spec, a.n_rows))


@st.composite
def zeta_cases(draw):
    """(x, zeta): zeta of an order d | q - 1 and x invertible.  Free draws
    are rarely conjugate to zeta x for d > 1, so when d | n, x may also be
    a conjugate of diag(A, zeta A, ..., zeta^(d-1) A), which always is."""
    spec = draw(st.sampled_from(FIELDS))
    d = draw(st.sampled_from([d for d in range(1, spec.q) if (spec.q - 1) % d == 0]))
    n = draw(st.integers(1, 4))
    x = draw(invertibles(spec, n))
    if n % d == 0 and draw(st.booleans()):
        inst = tg.zeta_instance(spec, n, d)
        x = x.inverse() @ tg.build_d_matrix(inst, draw(invertibles(spec, n // d))) @ x
    return x, gf.root_of_unity(spec, d)


@properties
@given(conjugate_pairs())
def test_invariant_factors_survive_conjugation(pair):
    a, g = pair
    assert mg.invariant_factors(g.inverse() @ a @ g) == mg.invariant_factors(a)


@properties
@given(zeta_cases())
def test_solution_coset_witnesses_zeta_conjugacy(case):
    x, zeta = case
    coset = tg.solution_set_for_x(x, zeta)
    assert (coset is None) == (not tg.is_conjugate_to_zeta_x(x, zeta))
    if coset is not None:
        assert coset.witness.inverse() @ x @ coset.witness == x * zeta


# companion(t) + companion(t(t + 1)) over F_2: the distinct shifts 0 and 1
# leave the roots {0} and {1, 0}, which share 0, so only the coprimality
# test keeps the result regular; random draws rarely hit such a matrix
_SHIFTED_ROOT = mg.block_diag(
    FIELDS[0], [mg.companion(Poly.from_coeffs(FIELDS[0], c)) for c in ([0, 1], [0, 1, 1])]
)


@properties
@given(matrices())
@example(_SHIFTED_ROOT)
def test_regular_commuting_is_regular_and_commutes(a):
    r = mg.regular_commuting(a)
    ae = mg.embed_mat(a, r.spec)
    assert mg.is_regular(r) and ae @ r == r @ ae


@properties
@given(st.sampled_from([(n, spec) for n in (1, 2, 3) for spec in FIELDS] + [(4, FIELDS[0])]))
def test_class_sizes_sum_to_matrix_and_group_orders(case):
    n, spec = case
    q = spec.q
    assert sum(cl.class_size for cl in cs.enumerate_classes(n, spec)) == q ** (n * n)
    invertible = cs.enumerate_classes(n, spec, restrict_invertible=True)
    assert sum(cl.class_size for cl in invertible) == cs.gl_order(n, q)


@properties
@given(
    st.sampled_from([(n, spec) for n in (1, 2) for spec in FIELDS] + [(3, FIELDS[0])]),
    st.booleans(),
)
def test_polynomial_equals_class_kernel_sum_and_brute_count(case, scalar):
    # [A, B] = cI for c = 1 or c = 0: the closed form at q, the per-class
    # ad-rank kernel over enumerate_classes, and the brute walk agree
    n, spec = case
    q = spec.q
    c = spec.one if scalar else spec.zero
    value = cs.point_count_polynomial("lie" if c else "commuting", n, spec.p)(q)
    packing = ls.packing(spec, n)
    target = packing.scalar(c.idx)
    class_sum = 0
    for cl in cs.enumerate_classes(n, spec):
        a = cl.representative
        rank, consistent = ls.ad_rank_consistency(packing, packing.images(a), target)
        if consistent:
            class_sum += cl.class_size * q ** (n * n - rank)
    assert value == class_sum
    assert value == cs.count_lie_pairs(n, spec, c, "brute")
