"""Reference: the Lie, commuting and group polynomials as sums over class types.

A type is a sorted multiset of (degree d, partition lam) with
sum d * |lam| = n: the primary data of a class with each irreducible
replaced by its degree.  Each type contributes its number of classes, its
class size and q^dim C solutions B per matrix, and the classes of all types
must cover q^(n^2) matrices as a polynomial identity.  Group pairs count
the zeta-fixed invertible classes by their twist types instead.  The
counters use closed forms; the tests compare the two.
"""

import functools

from commvar import census as cs, polyring
from commvar.errors import MathCheckFailed
from commvar.census import QPoly


@functools.lru_cache(maxsize=None)
def class_types(n: int) -> tuple[tuple[tuple[int, tuple[int, ...]], ...], ...]:
    """Green's class types of M_n(F_q), in deterministic order."""
    if n < 1:
        raise ValueError("n must be positive")
    keys = [
        (d * w, (d, lam))
        for d in range(1, n + 1)
        for w in range(1, n // d + 1)
        for lam in cs.partitions(w)
    ]
    return tuple(cs._multisets(keys, n))


def num_class_types(n: int) -> int:
    """len(class_types(n)) without listing the types."""
    return cs._num_multisets(range(1, n + 1), n)


@functools.lru_cache(maxsize=None)
def irreducible_count_poly(d: int) -> QPoly:
    """Monic irreducibles of degree d over F_q: (1/d) sum_{e|d} mu(d/e) q^e."""
    coeffs = [0] * (d + 1)
    for e in range(1, d + 1):
        if d % e == 0:
            coeffs[e] = polyring._moebius(d // e)
    return QPoly(coeffs, d)


@functools.lru_cache(maxsize=None)
def _type_terms(n: int) -> list:
    """(type, matrices of that type) for every type; they must cover q^(n^2)."""
    terms = []
    for ctype in class_types(n):
        product, divisor = cs._type_multiplicity(ctype, irreducible_count_poly)
        terms.append(
            (ctype, product * cs._class_size_poly(n, cs._centralizer_factors(ctype)) / divisor)
        )
    covered = QPoly.sum(matrices for _, matrices in terms)
    if covered != cs._q_power(n * n):
        raise MathCheckFailed(
            "class types at n=%d cover %s matrices, not q^%d" % (n, covered, n * n)
        )
    return terms


def type_sum(n: int, p: int = 0) -> QPoly:
    """#{(A, B) : AB - BA = cI}: c = 0 for p = 0, else c != 0 in characteristic p.

    Only types whose partition parts are all divisible by p count for c != 0.
    """
    return QPoly.sum(
        matrices.shift(cs.dim_centralizer_from_primary(ctype))
        for ctype, matrices in _type_terms(n)
        if not p or all(part % p == 0 for _, lam in ctype for part in lam)
    )


def twist_group_sum(n: int, d: int) -> QPoly:
    """#{(x, y) in GL_n^2 : x^-1 y^-1 x y = zeta I} for zeta of order d.

    |GL_n| times the number of zeta-fixed invertible classes, counted by
    twist type: a multiset of (orbit kind (e, s), lam) with
    sum (d/s) e |lam| = n, where an orbit of kind (e, s) is a mu_d-orbit of
    d/s irreducibles f != t of degree e.
    """
    keys = [
        ((d // s) * e * w, ((e, s), lam))
        for e, s in cs._twist_kinds(n, d)
        for w in range(1, n // ((d // s) * e) + 1)
        for lam in cs.partitions(w)
    ]
    fixed = []
    for ttype in cs._multisets(keys, n):
        product, divisor = cs._type_multiplicity(
            ttype, lambda kind: cs._twist_orbit_count(*kind, d)
        )
        fixed.append(product / divisor)
    return cs._gl_order_poly(n) * QPoly.sum(fixed)
