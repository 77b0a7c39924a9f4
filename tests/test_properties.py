"""Property tests: conjugation invariants and class-size sums.

Hypothesis runs derandomized with few examples, so every run draws the
same cases and the module stays fast.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from commvar import census as cs, gf, matgf as mg  # noqa: E402

FIELDS = [gf.field(2), gf.field(3), gf.field(2, 2), gf.field(5), gf.field(7), gf.field(3, 2)]

properties = settings(derandomize=True, max_examples=25, database=None, deadline=None)


@st.composite
def matrices(draw):
    spec = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(1, 4))
    entries = st.lists(st.integers(0, spec.q - 1), min_size=n, max_size=n)
    return mg.Mat(spec, draw(st.lists(entries, min_size=n, max_size=n)))


@st.composite
def conjugate_pairs(draw):
    """(a, g) with g invertible of the same size over the same field."""
    a = draw(matrices())
    spec, n = a.spec, a.n_rows
    entries = st.lists(st.integers(0, spec.q - 1), min_size=n, max_size=n)
    g = draw(
        st.lists(entries, min_size=n, max_size=n)
        .map(lambda rows: mg.Mat(spec, rows))
        .filter(lambda m: m.is_invertible())
    )
    return a, g


@properties
@given(conjugate_pairs())
def test_invariant_factors_survive_conjugation(pair):
    a, g = pair
    assert mg.invariant_factors(g.inverse() @ a @ g) == mg.invariant_factors(a)


@properties
@given(conjugate_pairs())
def test_similarity_transform_witnesses_conjugacy(pair):
    a, g = pair
    b = g.inverse() @ a @ g
    w = mg.similarity_transform(a, b)
    assert w is not None and w.is_invertible()
    assert w.inverse() @ a @ w == b


@properties
@given(st.sampled_from([(n, spec) for n in (1, 2, 3) for spec in FIELDS] + [(4, FIELDS[0])]))
def test_class_sizes_sum_to_matrix_and_group_orders(case):
    n, spec = case
    q = spec.q
    assert sum(cl.class_size for cl in cs.enumerate_classes(n, spec)) == q ** (n * n)
    invertible = cs.enumerate_classes(n, spec, restrict_invertible=True)
    assert sum(cl.class_size for cl in invertible) == cs.gl_order(n, q)
