"""Point counting over F_q for commutator varieties.

Counts solutions of [A,B] = cI (Lie), AB = BA, [x,y] = zeta I (group), and
the twisted-class locus {x : x conjugate to zeta x}, by two strategies:

* brute: literal enumeration (pair scan at tiny sizes, otherwise a scan of
  all A with an exact per-matrix linear solve);
* class: for Lie and commuting pairs, a sum over Green's class types of
  M_n(F_q) (multisets of (degree, partition)), each weighted by its number
  of classes, its class size and q^dim C; for group pairs and W, a sum over
  the enumerated conjugacy classes of GL_n(F_q), with exact centralizer
  orders and the zeta-twist of each class.

Counts are unbounded integers end to end; dimension fitting uses Decimal
logarithms at 50 significant digits.  The counters' threads parameter is
accepted and ignored: every count runs in the calling thread.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from dataclasses import dataclass, field as dc_field
from decimal import Decimal, getcontext
from fractions import Fraction

import numpy as np

from . import polyring
from .errors import LimitExceeded, MathCheckFailed
from .gf import Fe, FieldSpec
from .matgf import Mat, block_diag, companion, invariant_factors, primary_data
from .polyring import Poly

getcontext().prec = 50

PAIR_SCAN_MAX = 1 << 20  # literal pair enumeration only below this many pairs


@dataclass(frozen=True)
class CensusLimits:
    """Explicit feasibility limits for enumerations and scans."""

    max_classes: int = 200_000
    max_brute: int = 1 << 26


DEFAULT_LIMITS = CensusLimits()


@functools.lru_cache(maxsize=None)
def partitions(n: int) -> tuple[tuple[int, ...], ...]:
    """All partitions of n with descending parts, in deterministic order."""
    if n == 0:
        return ((),)
    out = []

    def rec(remaining, biggest, prefix):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for part in range(min(remaining, biggest), 0, -1):
            rec(remaining - part, part, prefix + [part])

    rec(n, n, [])
    return tuple(out)


def conjugate_partition(lam) -> tuple[int, ...]:
    if not lam:
        return ()
    return tuple(sum(1 for part in lam if part >= j) for j in range(1, lam[0] + 1))


def gl_order(n: int, q: int) -> int:
    """|GL_n(F_q)| = prod_{i<n} (q^n - q^i)."""
    out = 1
    qn = q**n
    for i in range(n):
        out *= qn - q**i
    return out


def centralizer_order_from_primary(data, q: int) -> int:
    """Exact order of the GL-centralizer of a matrix with the given primary data.

    Per component (f, lam) with q' = q^deg(f):
    q'^(sum conj(lam)_j^2) * prod_i prod_{j=1..m_i} (1 - q'^-j),
    multiplied over components (m_i = multiplicity of part i in lam).
    """
    total = Fraction(1)
    for f, lam in data:
        deg = f.degree if isinstance(f, Poly) else int(f)
        qp = q**deg
        lam_conj = conjugate_partition(lam)
        comp = Fraction(qp ** sum(c * c for c in lam_conj))
        for _, mult in sorted(Counter(lam).items()):
            for j in range(1, mult + 1):
                comp *= 1 - Fraction(1, qp**j)
        total *= comp
    if total.denominator != 1:
        raise MathCheckFailed(
            "centralizer order %s of %r is not an integer" % (total, data)
        )
    return total.numerator


def dim_centralizer_from_primary(data) -> int:
    """dim of the full matrix centralizer: sum deg(f) * sum conj(lam)_j^2."""
    total = 0
    for f, lam in data:
        deg = f.degree if isinstance(f, Poly) else int(f)
        total += deg * sum(c * c for c in conjugate_partition(lam))
    return total


def twist_poly(f: Poly, zeta: Fe) -> Poly:
    """The scaled polynomial zeta^deg(f) * f(t / zeta); monic stays monic."""
    spec = f.spec
    z = spec.el(zeta).idx
    if not z:
        raise ValueError("twist scalar must be nonzero")
    deg = f.degree
    out = []
    power = spec.one_idx  # zeta^(deg - i), built from i = deg downward
    scaled = [0] * (deg + 1)
    for i in range(deg, -1, -1):
        scaled[i] = spec.mul(f.coeffs[i], power)
        power = spec.mul(power, z)
    return Poly(spec, scaled)


@dataclass(frozen=True)
class ClassRep:
    """A conjugacy class of M_n(F_q) given by its primary data.

    data is a canonically sorted tuple of (monic irreducible, partition)
    with sum deg(f) * |partition| = n.
    """

    spec: FieldSpec
    n: int
    data: tuple

    @classmethod
    def from_matrix(cls, m: Mat) -> "ClassRep":
        return cls(m.spec, m.n_rows, primary_data(m))

    @functools.cached_property
    def representative(self) -> Mat:
        blocks = []
        for f, lam in self.data:
            for part in lam:
                blocks.append(companion(f**part))
        return block_diag(self.spec, blocks)

    @functools.cached_property
    def centralizer_order(self) -> int:
        return centralizer_order_from_primary(self.data, self.spec.q)

    @functools.cached_property
    def class_size(self) -> int:
        size, rem = divmod(gl_order(self.n, self.spec.q), self.centralizer_order)
        if rem:
            raise MathCheckFailed(
                "centralizer order does not divide |GL| for %r" % (self.data,)
            )
        return size

    def dim_centralizer(self) -> int:
        return dim_centralizer_from_primary(self.data)

    @property
    def is_invertible(self) -> bool:
        t = (0, self.spec.one_idx)
        return all(f.coeffs != t for f, _ in self.data)

    def twisted(self, zeta: Fe) -> "ClassRep":
        data = tuple(
            sorted(
                ((twist_poly(f, zeta), lam) for f, lam in self.data),
                key=lambda fp: (fp[0].degree, fp[0].coeffs),
            )
        )
        return ClassRep(self.spec, self.n, data)


def enumerate_classes(
    n: int,
    spec: FieldSpec,
    restrict_invertible: bool = False,
    limits: CensusLimits = DEFAULT_LIMITS,
) -> list[ClassRep]:
    """All conjugacy classes of M_n(F_q) (or GL_n(F_q)), deterministic order.

    Classes are multisets of (irreducible, partition) with total degree n;
    restrict_invertible excludes the irreducible t.
    """
    if n < 1:
        raise ValueError("n must be positive")
    spec.ensure_tables()
    irr_cache: dict[int, list[Poly]] = {}

    def irr(d: int) -> list[Poly]:
        if d not in irr_cache:
            lst = polyring.irreducibles_of_degree(spec, d)
            if restrict_invertible and d == 1:
                t = Poly(spec, (0, spec.one_idx))
                lst = [f for f in lst if f != t]
            irr_cache[d] = lst
        return irr_cache[d]

    def gen(d: int, i: int, budget: int):
        if budget == 0:
            yield ()
            return
        for dd in range(d, budget + 1):
            lst = irr(dd)
            start = i if dd == d else 0
            for j in range(start, len(lst)):
                for w in range(1, budget // dd + 1):
                    for lam in partitions(w):
                        for rest in gen(dd, j + 1, budget - w * dd):
                            yield ((lst[j], lam),) + rest

    out = []
    for data in gen(1, 0, n):
        out.append(ClassRep(spec, n, tuple(sorted(
            data, key=lambda fp: (fp[0].degree, fp[0].coeffs)
        ))))
        if len(out) > limits.max_classes:
            raise LimitExceeded(
                "class enumeration at n=%d q=%d exceeds limit %d"
                % (n, spec.q, limits.max_classes)
            )
    return out


def centralizer_group_order(rep: ClassRep, q: int | None = None) -> int:
    """Order of the GL-centralizer of the class representative."""
    if q is not None and q != rep.spec.q:
        raise ValueError("q disagrees with the class field")
    return rep.centralizer_order


# -- class types -----------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def class_types(n: int) -> tuple[tuple[tuple[int, tuple[int, ...]], ...], ...]:
    """Green's class types of M_n(F_q), in deterministic order.

    A type is a sorted multiset of (degree d, partition lam) with
    sum d * |lam| = n: the primary data of a class with each irreducible
    replaced by its degree.  The list does not depend on q.
    """
    if n < 1:
        raise ValueError("n must be positive")
    keys = [
        (d * w, (d, lam))
        for d in range(1, n + 1)
        for w in range(1, n // d + 1)
        for lam in partitions(w)
    ]
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
    return tuple(out)


def _num_class_types(n: int) -> int:
    """len(class_types(n)) without listing the types.

    The x^n coefficient of prod_m (1 - x^m)^(-a_m), where a_m counts the
    pairs (d, lam) with d * |lam| = m, by the Euler transform recurrence.
    """
    p = [1] + [0] * n  # partition numbers
    for part in range(1, n + 1):
        for w in range(part, n + 1):
            p[w] += p[w - part]
    a = [sum(p[m // d] for d in range(1, m + 1) if m % d == 0) for m in range(n + 1)]
    c = [sum(d * a[d] for d in range(1, k + 1) if k % d == 0) for k in range(n + 1)]
    b = [1]
    for m in range(1, n + 1):
        b.append(sum(c[k] * b[m - k] for k in range(1, m + 1)) // m)
    return b[n]


def _classes_of_type(ctype, q: int) -> int:
    """How many classes of M_n(F_q) have the given type.

    Entries of degree d take distinct monic irreducibles of degree d, so
    each degree contributes a falling factorial of N_d; entries that repeat
    m times are unordered, hence the division by m!.
    """
    count = 1
    used = Counter()
    for d, _ in ctype:
        count *= polyring.num_irreducibles(q, d) - used[d]
        used[d] += 1
    for mult in Counter(ctype).values():
        count //= math.factorial(mult)
    return count


def _count_by_type(n: int, spec: FieldSpec, c: Fe, limits: CensusLimits) -> int:
    """#{(A, B) : AB - BA = cI} as a sum over class types.

    A matrix of a given type has a centralizer of dimension dim C, so the B
    solving [A, B] = cI form a coset of it or nothing.  For c = 0 every type
    counts; for c != 0 a type counts iff every part of every partition is
    divisible by p.
    """
    num_types = _num_class_types(n)
    if num_types > limits.max_classes:
        raise LimitExceeded(
            "%d class types at n=%d exceed limit %d" % (num_types, n, limits.max_classes)
        )
    q = spec.q
    gl = gl_order(n, q)
    total = 0
    matrices = 0
    for ctype in class_types(n):
        classes = _classes_of_type(ctype, q)
        if not classes:
            continue
        size, rem = divmod(gl, centralizer_order_from_primary(ctype, q))
        if rem:
            raise MathCheckFailed(
                "centralizer order does not divide |GL| for type %r" % (ctype,)
            )
        matrices += classes * size
        if not c or all(part % spec.p == 0 for _, lam in ctype for part in lam):
            total += classes * size * q ** dim_centralizer_from_primary(ctype)
    if matrices != q ** (n * n):
        raise MathCheckFailed(
            "class types at n=%d q=%d cover %d matrices, not q^(n^2)" % (n, q, matrices)
        )
    return total


# -- rank / consistency of the commutator system, per matrix -------------------

_NP_TABLE_CACHE: dict = {}


def _np_tables(spec: FieldSpec):
    key = (spec.p, spec.k)
    if key not in _NP_TABLE_CACHE:
        spec.ensure_tables()
        q = spec.q
        mul = np.array(spec._mul_t, dtype=np.int16)
        sub = np.array(
            [[spec.sub(a, b) for b in range(q)] for a in range(q)], dtype=np.int16
        )
        _NP_TABLE_CACHE[key] = (mul, sub)
    return _NP_TABLE_CACHE[key]


def _gf2_rank_consistent(rows: list[int], ncols: int) -> tuple[int, bool]:
    """Bitsliced elimination; the bit at position ncols is the augmented column."""
    m = len(rows)
    rank = 0
    for c in range(ncols):
        bit = 1 << c
        piv = None
        for i in range(rank, m):
            if rows[i] & bit:
                piv = i
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        prow = rows[rank]
        for i in range(rank + 1, m):
            if rows[i] & bit:
                rows[i] ^= prow
        rank += 1
    consistent = all(rows[i] == 0 for i in range(rank, m))
    return rank, consistent


def _np_rank_consistent_prime(m: np.ndarray, p: int) -> tuple[int, bool]:
    n_rows, n_cols_aug = m.shape
    n_cols = n_cols_aug - 1
    r = 0
    for c in range(n_cols):
        if r == n_rows:
            break
        nz = np.flatnonzero(m[r:, c])
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            m[[r, i]] = m[[i, r]]
        inv = pow(int(m[r, c]), p - 2, p)
        if m[r, c] != 1:
            m[r] = m[r] * inv % p
        below = m[r + 1 :]
        factors = below[:, c]
        mask = factors != 0
        if mask.any():
            below[mask] = (below[mask] - np.outer(factors[mask], m[r])) % p
        r += 1
    consistent = not np.any(m[r:, -1])
    return r, consistent


def _np_rank_consistent_tables(m: np.ndarray, spec: FieldSpec) -> tuple[int, bool]:
    mul, sub = _np_tables(spec)
    n_rows, n_cols_aug = m.shape
    n_cols = n_cols_aug - 1
    r = 0
    for c in range(n_cols):
        if r == n_rows:
            break
        nz = np.flatnonzero(m[r:, c])
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            m[[r, i]] = m[[i, r]]
        inv = spec.inv(int(m[r, c]))
        if int(m[r, c]) != spec.one_idx:
            m[r] = mul[inv, m[r]]
        below = m[r + 1 :]
        factors = below[:, c]
        mask = factors != 0
        if mask.any():
            prod = mul[factors[mask][:, None], m[r][None, :]]
            below[mask] = sub[below[mask], prod]
        r += 1
    consistent = not np.any(m[r:, -1])
    return r, consistent


def _ad_rank_consistency(a: Mat, c: Fe) -> tuple[int, bool]:
    """rank(ad_A) and whether cI lies in the image of ad_A."""
    spec = a.spec
    n = a.n_rows
    if spec.p == 2 and spec.k == 1:
        nn = n * n
        spread = [
            sum(a.rows[i][k] << (k * n) for k in range(n)) for i in range(n)
        ]
        colmask = [
            sum(a.rows[l][j] << l for l in range(n)) for j in range(n)
        ]
        aug = 1 << nn
        c_bit = c.idx & 1
        rows = []
        for i in range(n):
            base = i * n
            for j in range(n):
                row = (spread[i] << j) ^ (colmask[j] << base)
                if i == j and c_bit:
                    row |= aug
                rows.append(row)
        return _gf2_rank_consistent(rows, nn)
    sub = spec.sub
    rows = []
    for i in range(n):
        for j in range(n):
            row = [0] * (n * n + 1)
            for k in range(n):
                row[k * n + j] = a.rows[i][k]
            for l in range(n):
                row[i * n + l] = sub(row[i * n + l], a.rows[l][j])
            if i == j:
                row[-1] = c.idx
            rows.append(row)
    if spec.k == 1:
        return _np_rank_consistent_prime(np.array(rows, dtype=np.int64), spec.p)
    if spec.q <= 256:
        return _np_rank_consistent_tables(np.array(rows, dtype=np.int16), spec)
    # large extension field: exact object-level reduction
    from .matgf import _rref_rows

    _, rank, pivots = _rref_rows(spec, rows)
    if pivots and pivots[-1] == n * n:
        return rank - 1, False
    return rank, True


# -- counting ------------------------------------------------------------------

def _all_matrices(spec: FieldSpec, n: int):
    q = spec.q
    for entries in itertools.product(range(q), repeat=n * n):
        yield Mat(spec, [entries[i * n : (i + 1) * n] for i in range(n)])


def count_lie_pairs(
    n: int,
    spec: FieldSpec,
    c,
    strategy: str = "class",
    limits: CensusLimits = DEFAULT_LIMITS,
    threads: int = 1,
) -> int:
    """#{(A, B) in M_n(F_q)^2 : AB - BA = cI}."""
    c = spec.el(c)
    # every strategy builds the field tables up front: without them, brute
    # scans over extension fields run on slow polynomial arithmetic
    spec.ensure_tables()
    if strategy == "class":
        return _count_by_type(n, spec, c, limits)
    if strategy == "brute":
        return _count_lie_brute(n, spec, c, limits)
    raise ValueError("unknown strategy %r" % strategy)


def _count_lie_brute(n, spec, c, limits) -> int:
    q = spec.q
    nn = n * n
    pair_cost = q ** (2 * nn)
    scan_cost = q**nn
    if pair_cost <= min(PAIR_SCAN_MAX, limits.max_brute):
        ci = Mat.scalar(spec, n, c)
        mats = list(_all_matrices(spec, n))
        count = 0
        for a in mats:
            for b in mats:
                if a @ b - b @ a == ci:
                    count += 1
        return count
    if scan_cost > limits.max_brute:
        raise LimitExceeded(
            "brute scan of %d matrices exceeds limit %d" % (scan_cost, limits.max_brute)
        )
    count = 0
    for a in _all_matrices(spec, n):
        rank, consistent = _ad_rank_consistency(a, c)
        if consistent:
            count += q ** (nn - rank)
    return count


def count_commuting_pairs(
    n: int,
    spec: FieldSpec,
    strategy: str = "class",
    limits: CensusLimits = DEFAULT_LIMITS,
    threads: int = 1,
) -> int:
    """#{(A, B) in M_n(F_q)^2 : AB = BA}; the c = 0 commutator count."""
    spec.ensure_tables()
    if strategy == "brute":
        return _count_lie_brute(n, spec, spec.zero, limits)
    if strategy != "class":
        raise ValueError("unknown strategy %r" % strategy)
    return _count_by_type(n, spec, spec.zero, limits)


def count_group_pairs(
    n: int,
    spec: FieldSpec,
    zeta,
    strategy: str = "class",
    limits: CensusLimits = DEFAULT_LIMITS,
    threads: int = 1,
) -> int:
    """#{(x, y) in GL_n(F_q)^2 : x^-1 y^-1 x y = zeta I}.

    Class strategy: |GL_n(q)| times the number of invertible classes fixed
    by the zeta-twist (solution sets over a fixed x are centralizer cosets).
    """
    zeta = spec.el(zeta)
    if not zeta:
        raise ValueError("zeta must be a unit")
    spec.ensure_tables()
    if strategy == "class":
        classes = enumerate_classes(n, spec, True, limits)
        fixed = sum(1 for cl in classes if cl.twisted(zeta) == cl)
        return gl_order(n, spec.q) * fixed
    if strategy != "brute":
        raise ValueError("unknown strategy %r" % strategy)
    q = spec.q
    nn = n * n
    pairs = gl_order(n, q) ** 2
    if q**nn > limits.max_brute or pairs > min(PAIR_SCAN_MAX * 4, limits.max_brute):
        raise LimitExceeded("group brute scan exceeds the configured limit")
    invertibles = [m for m in _all_matrices(spec, n) if m.is_invertible()]
    zi = Mat.scalar(spec, n, zeta)
    count = 0
    for x in invertibles:
        target = x @ zi  # y^-1 x y == zeta x  <=>  x y == y (zeta x)
        for y in invertibles:
            if x @ y == y @ target:
                count += 1
    return count


def count_w(
    n: int,
    spec: FieldSpec,
    zeta,
    strategy: str = "class",
    limits: CensusLimits = DEFAULT_LIMITS,
    threads: int = 1,
) -> int:
    """#{x in GL_n(F_q) : x is conjugate to zeta x}."""
    zeta = spec.el(zeta)
    if not zeta:
        raise ValueError("zeta must be a unit")
    spec.ensure_tables()
    if strategy == "class":
        classes = enumerate_classes(n, spec, True, limits)
        return sum(cl.class_size for cl in classes if cl.twisted(zeta) == cl)
    if strategy != "brute":
        raise ValueError("unknown strategy %r" % strategy)
    if spec.q ** (n * n) > limits.max_brute:
        raise LimitExceeded("brute scan exceeds the configured limit")
    zi = Mat.scalar(spec, n, zeta)
    count = 0
    for x in _all_matrices(spec, n):
        if x.is_invertible() and invariant_factors(x) == invariant_factors(zi @ x):
            count += 1
    return count


count_W = count_w  # census naming used by the CLI


# -- dimension estimation --------------------------------------------------------

@dataclass(frozen=True)
class DimensionFit:
    fitted: int
    raw: Decimal
    residual: Decimal


def estimate_dimension(points) -> DimensionFit:
    """Growth exponent from counts at q and a power q^m (m >= 2).

    raw = (ln count2 - ln count1) / (ln q2 - ln q1) for the extreme pair of
    field sizes; the ratio cancels the leading constant of an exact power
    law.  fitted is the nearest integer, residual the distance to it.
    """
    pts = sorted(points)
    if len(pts) < 2:
        raise ValueError("at least two (q, count) points required")
    (q1, c1), (q2, c2) = pts[0], pts[-1]
    if c1 <= 0 or c2 <= 0:
        raise ValueError("zero counts cannot be fitted")
    exponent, qq = 1, q1
    while qq < q2:
        qq *= q1
        exponent += 1
    if qq != q2 or exponent < 2:
        raise ValueError("the largest q must be a power (>= 2) of the smallest")
    raw = (Decimal(c2).ln() - Decimal(c1).ln()) / (Decimal(q2).ln() - Decimal(q1).ln())
    # 30 decimal places: far beyond what the fit needs, and exact power laws
    # come out with residual exactly zero
    raw = raw.quantize(Decimal("1E-30"))
    fitted = int(raw.to_integral_value(rounding="ROUND_HALF_EVEN"))
    residual = abs(raw - Decimal(fitted))
    return DimensionFit(fitted, raw, residual)


@dataclass
class CountReport:
    """Per-q counts for one variety plus the fitted growth exponent."""

    variety: str
    n: int
    p: int
    counts: list  # of (q, count, strategy)
    fit: DimensionFit | None
    expected_dimension: int | None
    extra: dict = dc_field(default_factory=dict)

    def to_json_dict(self) -> dict:
        doc = {
            "variety": self.variety,
            "n": self.n,
            "p": self.p,
            "counts": [
                {"q": q, "count": str(count), "strategy": strategy}
                for q, count, strategy in self.counts
            ],
            "fitted_dimension": self.fit.fitted if self.fit else None,
            "raw_exponent": _dec_str(self.fit.raw) if self.fit else None,
            "residual": _dec_str(self.fit.residual) if self.fit else None,
            "expected_dimension": self.expected_dimension,
            "match": (
                self.fit.fitted == self.expected_dimension
                if self.fit and self.expected_dimension is not None
                else None
            ),
        }
        doc.update(self.extra)
        return doc


def _dec_str(x: Decimal) -> str:
    return str(x.quantize(Decimal("1E-20")))
