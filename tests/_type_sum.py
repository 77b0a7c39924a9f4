"""Reference: the Lie, commuting, group and W polynomials as sums over class types.

The Feit-Fine and class-number partition sums (feit_fine_sum,
class_number_sum) are the same counts summed over partitions.  A type is a
sorted multiset of (degree d, partition lam) with sum d * |lam| = n: the
primary data of a class with each irreducible replaced by its degree.  Each type contributes its number of classes, its
class size and q^dim C solutions B per matrix, and the classes of all types
must cover q^(n^2) matrices as a polynomial identity.  Group pairs and W
sum over the twist types of the zeta-fixed invertible classes instead:
multisets of (orbit kind (e, s), lam), one entry per twist orbit.  The
counters build every polynomial as a product of series, over part sizes or
orbit kinds; the tests compare them with these sums.
"""

import functools
import math
from collections import Counter

from commvar import census as cs, polyring
from commvar.errors import MathCheckFailed
from commvar.census import QPoly


def _multisets(keys, n: int):
    """Sorted multisets of keys whose sizes sum to n; keys are (size, key)."""
    out = []

    def rec(start, budget, prefix):
        if budget == 0:
            out.append(tuple(prefix))
            return
        for i in range(start, len(keys)):
            size, key = keys[i]
            if size <= budget:
                rec(i, budget - size, prefix + [key])

    rec(0, n, [])
    return out


def _partition_numbers(n: int) -> list[int]:
    """p(0), ..., p(n): how many partitions each size has."""
    p = [1] + [0] * n
    for part in range(1, n + 1):
        for w in range(part, n + 1):
            p[w] += p[w - part]
    return p


def _num_multisets(kind_sizes, n: int) -> int:
    """How many multisets of (kind, partition lam) have sizes summing to n.

    A kind of size k with partition lam has size k * |lam|.  This is the x^n
    coefficient of prod_m (1 - x^m)^(-a_m), where a_m counts the pairs of
    size m, by the Euler transform recurrence; nothing is listed.
    """
    p = _partition_numbers(n)
    a = [sum(p[m // k] for k in kind_sizes if m % k == 0) for m in range(n + 1)]
    c = [sum(d * a[d] for d in range(1, k + 1) if k % d == 0) for k in range(n + 1)]
    b = [1]
    for m in range(1, n + 1):
        b.append(sum(c[k] * b[m - k] for k in range(1, m + 1)) // m)
    return b[n]


def feit_fine_sum(n: int, p: int = 0) -> QPoly:
    """#{(A, B) : AB - BA = cI} as the Feit-Fine sum over partitions of n.

    C_n = sum_{lam |- n} |GL_n| prod_i q^(k_i + k_i(k_i+1)/2) / prod_{j<=k_i} (q^j - 1),
    k_i the multiplicity of part i in lam; every division must be exact.
    For c != 0 in characteristic p only the lam whose parts are all
    divisible by p count, with the same factors.
    """
    terms = []
    for lam in cs.partitions(n):
        if p and any(part % p for part in lam):
            continue
        term = cs._gl_order_poly(n)
        for k in Counter(lam).values():
            term = term.shift(k + k * (k + 1) // 2)
            for j in range(1, k + 1):
                term = term.div_q_power_minus_one(j)
        terms.append(term)
    return QPoly.sum(terms)


def class_number_sum(n: int, d: int) -> QPoly:
    """#{(x, y) in GL_n^2 : x^-1 y^-1 x y = zeta I} as |GL_n| k(GL_(n/d)), with
    k(GL_m) = sum_{lam |- m} prod_k q^(k-1) (q - 1) over the part
    multiplicities k of lam; 0 where d does not divide n.
    """
    if n % d:
        return QPoly()
    terms = []
    for lam in cs.partitions(n // d):
        term = cs._q_power(0)
        for k in Counter(lam).values():
            term = term.shift(k - 1).mul_q_power_minus_one(1)
        terms.append(term)
    return cs._gl_order_poly(n) * QPoly.sum(terms)


def _type_multiplicity(ctype, kind_count):
    """The number of classes of a type, as (falling product, divisor).

    Entries of one kind take distinct objects of that kind (irreducibles of
    a degree, or twist orbits), so each kind contributes a falling factorial
    of kind_count(kind), a QPoly; entries that repeat m times are unordered,
    hence the divisor m!.
    """
    product = 1
    used = Counter()
    for kind, _ in ctype:
        count = kind_count(kind)
        # skipping "- 0" saves a polynomial copy per entry
        product = product * (count - used[kind] if used[kind] else count)
        used[kind] += 1
    divisor = 1
    for mult in Counter(ctype).values():
        divisor *= math.factorial(mult)
    return product, divisor


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
    return tuple(_multisets(keys, n))


def num_class_types(n: int) -> int:
    """len(class_types(n)) without listing the types."""
    return _num_multisets(range(1, n + 1), n)


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
        product, divisor = _type_multiplicity(ctype, irreducible_count_poly)
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


def _twist_types(n: int, d: int):
    """(twist type, its number of classes) for every zeta-fixed invertible type.

    A twist type is a multiset of (orbit kind (e, s), lam) with
    sum (d/s) e |lam| = n, where an orbit of kind (e, s) is a mu_d-orbit of
    d/s irreducibles f != t of degree e, all carrying the partition lam.
    """
    keys = [
        ((d // s) * e * w, ((e, s), lam))
        for e, s in cs._twist_kinds(n, d)
        for w in range(1, n // ((d // s) * e) + 1)
        for lam in cs.partitions(w)
    ]
    for ttype in _multisets(keys, n):
        product, divisor = _type_multiplicity(
            ttype, lambda kind: cs._twist_orbit_count(*kind, d)
        )
        yield ttype, product / divisor


def twist_group_sum(n: int, d: int) -> QPoly:
    """#{(x, y) in GL_n^2 : x^-1 y^-1 x y = zeta I} for zeta of order d.

    |GL_n| times the number of zeta-fixed invertible classes, counted by
    twist type.
    """
    return cs._gl_order_poly(n) * QPoly.sum(classes for _, classes in _twist_types(n, d))


def twist_w_sum(n: int, d: int) -> QPoly:
    """#{x in GL_n : x ~ zeta x} for zeta of order d.

    The sizes of the zeta-fixed invertible classes summed by twist type; an
    orbit of kind (e, s) with lam gives d/s primary components (e, lam).
    """
    sizes = []
    for ttype, classes in _twist_types(n, d):
        data = [(e, lam) for (e, s), lam in ttype for _ in range(d // s)]
        sizes.append(classes * cs._class_size_poly(n, cs._centralizer_factors(data)))
    return QPoly.sum(sizes)
