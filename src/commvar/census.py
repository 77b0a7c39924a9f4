"""Point counting over F_q for commutator varieties.

Counts solutions of [A,B] = cI (Lie), AB = BA, [x,y] = zeta I (group), and
the twisted-class locus {x : x conjugate to zeta x}, by two strategies
that the four counters reach through one dispatch (_count):

* brute: one scan per count behind one gate on the matrices it puts in
  SWAR lanes: q^(n^2) <= limits.max_brute, and for group pairs also with
  the solutions walked.  Every scan walks the F_p-span of a basis in blocks
  of p^s matrices A, one per lane: each int holds one F_p-digit of one
  image of an F_p-linear map of A (_map_digits) for the whole block.  The
  first s basis matrices give digit-plane patterns times fixed images,
  built once, and each block adds its own matrix's images as lane
  broadcasts (_ad_blocks); one elimination per map and block gives every
  lane's rank (_eliminate).  ad_{A + lam I} = ad_A, so for Lie and
  commuting pairs A runs through M_n(F_q) mod F_q I (orbits of size q),
  and eliminating ad_A solves ad_A(B) = cI exactly, over every field.  W
  walks all q^(n^2) matrices: x ~ zeta x iff Y -> xY - zeta Yx has the
  rank of ad_x (Byrnes-Gauger), and x is invertible iff rank x = n.  Group
  pairs need x ~ zeta x, and y^-1 (mu x) y = zeta mu x iff y^-1 x y =
  zeta x, so one member x of W per orbit of F_q^x (size q - 1) walks the
  kernel of Y -> xY - Y(zeta x) (matgf.kernel_basis), counting the y of
  rank n;
* class: the exact point-count polynomial of the variety, evaluated at q.
  For commuting pairs it is the Feit-Fine o-fold over part sizes, for
  [A,B] = cI with c != 0 |GL_pr| / |GL_r| times the commuting polynomial at
  r = n/p (zero where p does not divide n), for group pairs |GL_n| times
  Macdonald's series for the class number of GL_{n/d}, d = ord zeta, and
  for W a o-product over the twist-orbit kinds; both for q = 1 (mod d).

Class enumeration lists the conjugacy classes one by one in one walk
(_class_walk), which yields each class's primary data with its type, the
(deg f, partition) of that data; the counters do not use it, and the tests
compare the polynomials against it.  enumerate_classes wraps the walk's data
in ClassRep (with ClassRep.twisted); the CLI's `classes` report reads the
walk directly.  A class's centralizer order, class size and centralizer
dimension depend only on its type and are computed once per type
(_type_numbers), and the report fills its entry's closing once per type.
Before anything is walked, the exact class count, the x^n coefficient of
prod_d P(x^d)^N_d (_class_count), is checked against limits.max_classes.
The report is written in pieces (head, blocks of entries, tail); its bytes
stay exactly those of json.dumps(doc, indent=2).

Counts are unbounded integers end to end; dimension fitting uses Decimal
logarithms at 50 significant digits in a private context, so the caller's
decimal context is neither read nor changed.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections import Counter
from decimal import Context, Decimal
from fractions import Fraction

from . import polyring
from .errors import Fresh, LimitExceeded, MathCheckFailed, Record
from .gf import Fe, FieldSpec, _is_prime, _prime_divisors
from .matgf import (
    Mat,
    _unvec,
    ad_matrix,
    block_diag,
    companion,
    kernel_basis,
    primary_data,
)
from .polyring import Poly

# every Decimal operation of the fit runs in this context, never the thread's
_DEC = Context(prec=50)

class CensusLimits(Record):
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


def _centralizer_factors(data) -> tuple[int, list[int]]:
    """(a, ks) with |C| = q^a prod_{k in ks} (q^k - 1) for the given primary data.

    Per component (f, lam) of degree d, |C| has the factor
    q^(d sum conj(lam)_j^2) prod_i prod_{j=1..m_i} (1 - q^(-dj))
    (m_i = multiplicity of part i in lam), that is
    q^(d (sum conj(lam)_j^2 - sum_j j)) prod (q^(dj) - 1).  Entries of data
    may carry an irreducible or just its degree.
    """
    power = 0
    ks = []
    for f, lam in data:
        deg = f.degree if isinstance(f, Poly) else int(f)
        power += deg * sum(c * c for c in conjugate_partition(lam))
        for mult in Counter(lam).values():
            for j in range(1, mult + 1):
                power -= deg * j
                ks.append(deg * j)
    if power < 0:
        raise MathCheckFailed("centralizer of %r has the factor q^%d" % (data, power))
    return power, ks


def centralizer_order_from_primary(data, q: int) -> int:
    """Exact order of the GL-centralizer of a matrix with the given primary data."""
    power, ks = _centralizer_factors(data)
    total = q**power
    for k in ks:
        total *= q**k - 1
    return total


def dim_centralizer_from_primary(data) -> int:
    """dim of the full matrix centralizer: the degree in q of its order."""
    power, ks = _centralizer_factors(data)
    return power + sum(ks)


@functools.lru_cache(maxsize=None)
def _type_numbers(ctype, n: int, q: int) -> tuple[int, int, int]:
    """(centralizer order, class size, centralizer dimension) of a class type.

    ctype is the tuple of (deg f, partition) of a class's primary data; the
    three numbers depend on nothing else, and few types recur across the
    classes of one field.
    """
    order = centralizer_order_from_primary(ctype, q)
    size, rem = divmod(gl_order(n, q), order)
    if rem:
        raise MathCheckFailed("centralizer order does not divide |GL| for type %r" % (ctype,))
    return order, size, dim_centralizer_from_primary(ctype)


def twist_poly(f: Poly, zeta: Fe) -> Poly:
    """The scaled polynomial zeta^deg(f) * f(t / zeta); monic stays monic."""
    spec = f.spec
    z = spec.el(zeta).idx
    if not z:
        raise ValueError("twist scalar must be nonzero")
    deg = f.degree
    power = spec.one_idx  # zeta^(deg - i), built from i = deg downward
    scaled = [0] * (deg + 1)
    for i in range(deg, -1, -1):
        scaled[i] = spec.mul(f.coeffs[i], power)
        power = spec.mul(power, z)
    return Poly(spec, scaled)


class ClassRep(Record):
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
    def _numbers(self) -> tuple[int, int, int]:
        ctype = tuple((f.degree, lam) for f, lam in self.data)
        return _type_numbers(ctype, self.n, self.spec.q)

    @property
    def centralizer_order(self) -> int:
        return self._numbers[0]

    @property
    def class_size(self) -> int:
        return self._numbers[1]

    def dim_centralizer(self) -> int:
        return self._numbers[2]

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


def _class_count(n: int, q: int, restrict_invertible: bool = False, cap=math.inf) -> int:
    """Number of conjugacy classes of M_n(F_q), or of GL_n(F_q).

    It is the x^n coefficient c_n of prod_d P(x^d)^N_d, with P the partition
    series and N_d = (1/d) sum_{e | d} mu(d/e) q^e the number of monic
    irreducibles of degree d (less t for GL).  That product is
    prod_m (1 - x^m)^(-a_m), a_m = sum_{d | m} N_d, so
    m c_m = sum_{k=1..m} b_k c_(m-k) with b_k = sum_{e | k} e a_e.  Adding a
    part 1 to the partition at t (at t - 1 for GL) maps classes of size m
    into size m + 1 injectively, so c_m never decreases: the first c_m above
    cap is returned as it stands, a lower bound of c_n.
    """
    counts, necklaces, a, b = [1], [0], [0], [0]
    for m in range(1, n + 1):
        divisors = [e for e in range(1, m + 1) if m % e == 0]
        necklaces.append(sum(polyring._moebius(m // e) * q**e for e in divisors) // m)
        if m == 1 and restrict_invertible:
            necklaces[1] -= 1
        a.append(sum(necklaces[e] for e in divisors))
        b.append(sum(e * a[e] for e in divisors))
        c, rem = divmod(sum(b[k] * counts[m - k] for k in range(1, m + 1)), m)
        if rem:
            raise MathCheckFailed("class count recurrence at m=%d is not integral" % m)
        counts.append(c)
        if c > cap:
            break
    return counts[-1]


def _class_walk(
    n: int,
    spec: FieldSpec,
    restrict_invertible: bool = False,
    limits: CensusLimits = DEFAULT_LIMITS,
):
    """Every conjugacy class of M_n(F_q) (or GL_n(F_q)) as (data, type).

    Classes are multisets of (irreducible, partition) with total degree n;
    restrict_invertible excludes the irreducible t.  The walk picks the
    irreducibles of each class in canonical (degree, coeffs) order, so each
    class's data comes out sorted, and builds its type, the tuple of
    (deg f, partition), alongside.  The class count (_class_count) is
    checked against limits before anything is walked and against the walk
    when it ends; irreducibles are enumerated per degree as the walk first
    reaches it.
    """
    if n < 1:
        raise ValueError("n must be positive")
    count = _class_count(n, spec.q, restrict_invertible, limits.max_classes)
    if count > limits.max_classes:
        raise LimitExceeded(
            "class enumeration at n=%d q=%d exceeds limit %d"
            % (n, spec.q, limits.max_classes)
        )
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
        for dd in range(d, budget + 1):
            lst = irr(dd)
            for j in range(i if dd == d else 0, len(lst)):
                f = lst[j]
                for w in range(1, budget // dd + 1):
                    left = budget - w * dd
                    for lam in partitions(w):
                        pair, kind = ((f, lam),), ((dd, lam),)
                        if not left:
                            yield pair, kind
                            continue
                        for data, ctype in gen(dd, j + 1, left):
                            yield pair + data, kind + ctype

    def walk():
        walked = 0
        for item in gen(1, 0, n):
            walked += 1
            yield item
        if walked != count:
            raise MathCheckFailed(
                "walked %d classes at n=%d q=%d, the count is %d" % (walked, n, spec.q, count)
            )

    return walk()


def enumerate_classes(
    n: int,
    spec: FieldSpec,
    restrict_invertible: bool = False,
    limits: CensusLimits = DEFAULT_LIMITS,
) -> list[ClassRep]:
    """All conjugacy classes of M_n(F_q) (or GL_n(F_q)), in the walk's order."""
    return [ClassRep(spec, n, data) for data, _ in _class_walk(n, spec, restrict_invertible, limits)]


def centralizer_group_order(rep: ClassRep, q: int | None = None) -> int:
    """Order of the GL-centralizer of the class representative."""
    if q is not None and q != rep.spec.q:
        raise ValueError("q disagrees with the class field")
    return rep.centralizer_order


# -- point-count polynomials ----------------------------------------------------

class QPoly:
    """A polynomial in q with rational coefficients: sum coeffs[i] q^i / den.

    Kept reduced (den > 0, gcd of den and the coefficients 1, no trailing
    zero coefficient), so equal polynomials have equal fields.
    """

    __slots__ = ("coeffs", "den")

    def __init__(self, coeffs=(), den: int = 1):
        coeffs = list(coeffs)
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        if den != 1:
            if den < 0:
                den, coeffs = -den, [-c for c in coeffs]
            g = math.gcd(den, *coeffs)
            if g > 1:
                den //= g
                coeffs = [c // g for c in coeffs]
        self.coeffs = tuple(coeffs)
        self.den = den

    def __add__(self, other) -> "QPoly":
        return QPoly.sum((self, _as_qpoly(other)))

    def __sub__(self, other) -> "QPoly":
        return self + _as_qpoly(other) * -1

    def __mul__(self, other) -> "QPoly":
        if isinstance(other, int):
            return QPoly([c * other for c in self.coeffs], self.den)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return QPoly()
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return QPoly(out, self.den * other.den)

    __rmul__ = __mul__

    @staticmethod
    def sum(polys) -> "QPoly":
        """The sum of many polynomials over one common denominator."""
        polys = list(polys)
        den = math.lcm(1, *(f.den for f in polys))
        out = [0] * max((len(f.coeffs) for f in polys), default=0)
        for f in polys:
            scale = den // f.den
            for i, c in enumerate(f.coeffs):
                out[i] += c * scale
        return QPoly(out, den)

    def __truediv__(self, k: int) -> "QPoly":
        return QPoly(self.coeffs, self.den * k)

    def shift(self, k: int) -> "QPoly":
        """q^k times self."""
        return QPoly((0,) * k + self.coeffs, self.den)

    def mul_q_power_minus_one(self, k: int) -> "QPoly":
        """self * (q^k - 1)."""
        c = self.coeffs
        out = [0] * k + list(c)
        for i, x in enumerate(c):
            out[i] -= x
        return QPoly(out, self.den)

    def div_q_power_minus_one(self, k: int) -> "QPoly":
        """self / (q^k - 1), which must be exact."""
        c = self.coeffs
        quot = [0] * max(len(c) - k, 0)
        for j in range(len(quot) - 1, -1, -1):
            quot[j] = c[j + k] + (quot[j + k] if j + k < len(quot) else 0)
        # q^k * quot - quot must give back the k lowest coefficients
        for i in range(min(k, len(c))):
            if c[i] != -(quot[i] if i < len(quot) else 0):
                raise MathCheckFailed("%s is not divisible by q^%d-1" % (self, k))
        return QPoly(quot, self.den)

    def __call__(self, q: int):
        """The value at q: an int, or a Fraction if it is not integral."""
        total = 0
        for c in reversed(self.coeffs):
            total = total * q + c
        return _int_or_fraction(Fraction(total, self.den))

    @property
    def degree(self) -> int | None:
        """The degree, or None for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    @property
    def leading_coefficient(self):
        return _int_or_fraction(Fraction(self.coeffs[-1] if self.coeffs else 0, self.den))

    def __eq__(self, other):
        return (
            isinstance(other, QPoly)
            and self.coeffs == other.coeffs
            and self.den == other.den
        )

    def __str__(self) -> str:
        """Highest power first, like "q^6+q^5-q^3"; "0" for zero."""
        terms = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = Fraction(self.coeffs[i], self.den)
            if not c:
                continue
            power = "" if i == 0 else "q" if i == 1 else "q^%d" % i
            if abs(c) == 1 and power:
                term = ("-" if c < 0 else "") + power
            else:
                term = str(c) + ("*" + power if power else "")
            terms.append(term if term.startswith("-") or not terms else "+" + term)
        return "".join(terms) or "0"

    def __repr__(self) -> str:
        return "QPoly(%r)" % str(self)


def _as_qpoly(x) -> QPoly:
    return x if isinstance(x, QPoly) else QPoly((x,))


def _int_or_fraction(x: Fraction):
    return x.numerator if x.denominator == 1 else x


def _q_power(k: int) -> QPoly:
    return QPoly((0,) * k + (1,))


@functools.lru_cache(maxsize=None)
def _gl_order_poly(n: int) -> QPoly:
    """|GL_n(F_q)| = q^(n(n-1)/2) prod_{i=1..n} (q^i - 1)."""
    out = _q_power(n * (n - 1) // 2)
    for i in range(1, n + 1):
        out = out.mul_q_power_minus_one(i)
    return out


def _class_size_poly(n: int, factors) -> QPoly:
    """|GL_n(F_q)| / |C| from the centralizer factors (a, ks) of |C|.

    |GL_n| = q^(n(n-1)/2) prod_{i=1..n} (q^i - 1) and |C| = q^a prod (q^k - 1).
    Factors q^k - 1 common to both cancel; each one left in |C| must divide
    exactly.
    """
    c_power, ks = factors
    power = n * (n - 1) // 2 - c_power
    if power < 0:
        raise MathCheckFailed("q^%d in |C| does not divide |GL_%d|" % (c_power, n))
    left = Counter(range(1, n + 1))  # multiplicity of q^k - 1 in |GL_n| / |C|
    left.subtract(ks)
    size = _q_power(power)
    for k, mult in sorted(left.items()):
        for _ in range(mult):
            size = size.mul_q_power_minus_one(k)
    for k, mult in sorted(left.items()):
        for _ in range(-mult):
            size = size.div_q_power_minus_one(k)
    return size


@functools.lru_cache(maxsize=None)
def _lie_polynomial(n: int, p: int) -> QPoly:
    """#{(A, B) : AB - BA = cI} over F_q as a polynomial in q.

    p = 0 gives c = 0, the commuting pairs, for every q (Feit-Fine): C_n is
    entry n of the o-fold over part sizes i of the series |GL_ik| g(k), with
    g(k) = q^(k + k(k+1)/2) / prod_{j<=k} (q^j - 1) for k parts of size i.
    Otherwise c != 0 in characteristic p, where cI is in the image of ad_A
    iff every partition part of A's class is divisible by p; that keeps the
    Feit-Fine factors at u^p, so L_{pr} = |GL_pr| / |GL_r| C_r.
    """
    if p:
        r = n // p
        out = _lie_polynomial(r, 0).shift((n * (n - 1) - r * (r - 1)) // 2)
        for i in range(r + 1, n + 1):
            out = out.mul_q_power_minus_one(i)
        return out
    return _part_fold(n, _feit_fine_term, _gl_binomial)


def _feit_fine_term(m: int, k: int) -> QPoly:
    """|GL_m| g(k) for k parts of size m/k; every division must be exact."""
    term = _gl_order_poly(m).shift(k + k * (k + 1) // 2)
    for j in range(1, k + 1):
        term = term.div_q_power_minus_one(j)
    return term


@functools.lru_cache(maxsize=None)
def _twist_fixed_count_poly(m: int, s: int) -> QPoly:
    """#{monic irreducible f = g(t^s) of degree m*s, g != t} for s | q - 1.

    By Kummer theory:
    (1/m) sum_{k|m, gcd(m/k, rad s) = 1} mu(m/k) (q^k - 1) prod_{l|s} (1 - 1/l).
    These are exactly the f != t of degree m*s fixed by the twists by mu_s.
    """
    primes = _prime_divisors(s)
    out = QPoly()
    for k in range(1, m + 1):
        if m % k == 0 and all((m // k) % ell for ell in primes):
            out += (_q_power(k) - 1) * polyring._moebius(m // k)
    for ell in primes:
        out = out * (ell - 1) / ell
    return out / m


def _twist_kinds(n: int, d: int) -> list[tuple[int, int]]:
    """Orbit kinds (e, s) whose d/s members fit in n, in (e, s) order: s | d, s | e."""
    return sorted((e, s) for s in range(1, d + 1) if d % s == 0 for e in range(s, n * s // d + 1, s))


@functools.lru_cache(maxsize=None)
def _twist_orbit_count(e: int, s: int, d: int) -> QPoly:
    """mu_d-orbits of monic irreducibles f != t of degree e with stabiliser mu_s.

    f is fixed by mu_s' exactly when s' divides the order of its
    stabiliser, so Moebius inversion over s | s' | d turns the fixed counts
    into exact stabiliser counts; each such orbit has d/s members.
    """
    exact = QPoly()
    for s2 in range(s, d + 1, s):
        if d % s2 == 0 and e % s2 == 0:
            exact += _twist_fixed_count_poly(e // s2, s2) * polyring._moebius(s2 // s)
    return exact * s / d


@functools.lru_cache(maxsize=None)
def _group_polynomial(n: int, d: int) -> QPoly:
    """#{(x, y) in GL_n^2 : x^-1 y^-1 x y = zeta I} for zeta of order d, q = 1 (mod d).

    |GL_n| times the zeta-fixed invertible classes: one partition per twist
    orbit of irreducibles f != t, whose product is h(t^d) for exactly one
    irreducible h != t.  So they are the classes of GL_{n/d} (none if d does
    not divide n), and k(GL_m) is the u^m coefficient of Macdonald's
    prod_i (1 - u^i) / (1 - q u^i) = prod_i (1 + sum_k q^(k-1) (q - 1) u^(ik)).
    """
    term = lambda m, k: _q_power(k - 1).mul_q_power_minus_one(1)
    return _gl_order_poly(n) * _part_fold(n // d, term, lambda c, a: 1)


@functools.lru_cache(maxsize=None)
def _gl_binomial(c: int, a: int) -> QPoly:
    """K(c, a) = |GL_c| / (|GL_a| |GL_(c-a)|): the class size of diag(x I_a, y I_(c-a))."""
    return _class_size_poly(c, _centralizer_factors([(1, (1,) * a), (1, (1,) * (c - a))]))


def _sums(x, y, n: int, least: int = 1) -> tuple[int, dict]:
    """(pairs, {c: [a, ...]}): the a in x with c - a in y that a product up to n
    multiplies; no c with 0 < n - c < least, as every later part is >= least."""
    sums = {}
    for a, b in itertools.product(x, y):
        if a + b == n or a + b <= n - least:
            sums.setdefault(a + b, []).append(a)
    return sum(map(len, sums.values())), sums


def _product(x: dict, y: dict, n: int, weight, least: int = 1) -> dict:
    """(xy)_c = sum_a weight(c, a) x_a y_(c-a) over _sums, x, y mapping sizes to
    terms: x o y for weight _gl_binomial, the plain product for weight 1."""
    return {
        c: QPoly.sum(weight(c, a) * (x[a] * y[c - a]) for a in sizes)
        for c, sizes in _sums(x, y, n, least)[1].items()
    }


def _part_fold(n: int, term, weight) -> QPoly:
    """Entry n of the _product by weight over part sizes i = 1..n, in
    ascending order, of the series 1 + sum_k term(ik, k) u^(ik)."""
    total = {0: _q_power(0)}
    for i in range(1, n + 1):
        part = {0: _q_power(0)} | {i * k: term(i * k, k) for k in range(1, n // i + 1)}
        total = _product(total, part, n, weight, i + 1)
    return total[n]


def _part_fold_pairs(n: int, budget=math.inf) -> int:
    """How many term pairs _part_fold(n, ...) multiplies: its loop on supports
    alone, cut short once the count passes budget."""
    pairs, total = 0, {0}
    for i in range(1, n + 1):
        if pairs > budget:
            break
        count, total = _sums(total, range(0, n + 1, i), n, i + 1)
        pairs += count
    return pairs


@functools.lru_cache(maxsize=None)
def _w_polynomial(n: int, d: int) -> QPoly:
    """#{x in GL_n : x ~ zeta x} for zeta of order d, q = 1 (mod d).

    x ~ zeta x iff the twist permutes x's primary components, that is, iff
    the d/s irreducibles of degree e in a twist orbit of kind (e, s) all
    carry one partition lam.  A class whose components split F_q^n into
    blocks of sizes m_i has size |GL_n| / prod |GL_(m_i)| times the blocks'
    class sizes in GL_(m_i), so class sizes multiply under x o y.  One orbit
    of kind (e, s) gives G_(j w) = sum_{lam |- j} (class size of d/s
    components (e, lam)) at w = (d/s) e, and k of the N orbits of that kind
    give binom(N, k) G^(o k).  W_n is the size-n entry of the o-product over
    kinds of sum_k binom(N, k) G^(o k): Green's class-type sum (Trans. AMS
    80, 1955) grouped by kind.
    """
    one = _q_power(0)
    total = {0: one}
    for e, s in _twist_kinds(n, d):
        w = (d // s) * e
        orbits = _twist_orbit_count(e, s, d)
        one_orbit = {
            j * w: QPoly.sum(
                _class_size_poly(j * w, _centralizer_factors([(e, lam)] * (d // s)))
                for lam in partitions(j)
            )
            for j in range(1, n // w + 1)
        }
        series, power, binomial = {0: one}, {0: one}, one
        for k in range(1, n // w + 1):
            power = _product(power, one_orbit, n, _gl_binomial)
            binomial = binomial * (orbits - (k - 1)) / k
            for c, g in power.items():
                series[c] = series.get(c, QPoly()) + binomial * g
        total = _product(total, series, n, _gl_binomial)
    return total.get(n, QPoly())


def _w_product_pairs(n: int, d: int, budget=math.inf) -> int:
    """How many term pairs _w_polynomial(n, d) multiplies: its loops on
    supports alone, cut short once the count passes budget."""
    pairs, total = 0, {0}
    for e, s in _twist_kinds(n, d):
        w = (d // s) * e
        one_orbit = range(w, n + 1, w)
        series = power = {0}
        for _ in one_orbit:
            if pairs > budget:
                return pairs
            count, power = _sums(power, one_orbit, n)
            pairs += count
            series = series | power.keys()
        count, total = _sums(total, series, n)
        pairs += count
    return pairs


def point_count_polynomial(
    variety: str,
    n: int,
    p: int = 0,
    d: int = 1,
    limits: CensusLimits = DEFAULT_LIMITS,
) -> QPoly:
    """The exact point count of a variety over F_q as a polynomial in q.

    "lie": [A, B] = cI with c != 0 in characteristic p, for every q = p^k;
    "commuting": AB = BA, for every q; "group": x^-1 y^-1 x y = zeta I and
    "W": x conjugate to zeta x, for zeta of order d and every q = 1 (mod d).
    Its degree is the dimension of the variety, and its leading coefficient
    counts the components of that dimension.  limits.max_classes bounds the
    steps of the build (_check_build_steps), which do not depend on q.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if variety == "lie" and not _is_prime(p):
        raise ValueError("the lie polynomial needs the characteristic p")
    if variety in ("group", "W") and d < 1:
        raise ValueError("d must be positive")
    divisor = {"lie": p, "commuting": 1, "group": d, "W": d}.get(variety)
    if divisor is None:
        raise ValueError("unknown variety %r" % variety)
    if n % divisor:
        return QPoly()  # tr [A, B] = 0 = nc, and det x = zeta^n det x
    _check_build_steps(variety, n, divisor, limits)
    if variety == "W":
        return _w_polynomial(n, d)
    if variety == "group":
        return _group_polynomial(n, d)
    return _lie_polynomial(n, p if variety == "lie" else 0)


def _check_build_steps(variety: str, n: int, divisor: int, limits: CensusLimits) -> None:
    """Refuse a build over limits.max_classes steps, counted on supports alone
    at its own size m (n for W, n / divisor otherwise): m^4 / 10^5 per term
    pair it multiplies (_sums), one pair at n for the factor |GL_n| / |GL_m|
    of Lie and group pairs.  Steps do not decrease with m, so the smaller
    sizes a build passes through need no check; the pair count stops once
    it passes the limit's budget, so a large n is refused at once."""
    m = n if variety == "W" else n // divisor
    factor = n**4 if variety in ("lie", "group") else 0
    budget = (limits.max_classes * 10**5 - factor) // m**4
    pairs = _w_product_pairs(m, divisor, budget) if variety == "W" else _part_fold_pairs(m, budget)
    if pairs > budget:
        raise LimitExceeded(
            "%s product steps at n=%d exceed limit %d" % (variety, n, limits.max_classes)
        )


def _value_at(poly: QPoly, q: int) -> int:
    """poly(q), which must be an integer: it counts points."""
    value = poly(q)
    if not isinstance(value, int):
        raise MathCheckFailed("point-count polynomial %s gives %s at q=%d" % (poly, value, q))
    return value


# -- F_p-digit lanes and the brute Lie scan --------------------------------------

def _repeat(x: int, span: int, count: int) -> int:
    """count copies of x, span bits apart, built by doubling."""
    out = shift = 0
    while count:
        if count & 1:
            out |= x << shift
            shift += span
        x |= x << span
        span *= 2
        count >>= 1
    return out


class _Lanes:
    """SWAR arithmetic mod p on count lanes of one int, lane 0 lowest.

    Over characteristic 2 a lane is one bit and adding is XOR; otherwise a
    lane is wide enough for the sum of two digits, and add and sub reduce
    every lane mod p at once.  ones has bit 0 of every lane set and full
    every bit; nonzero(x) is the full mask of the lanes where x is nonzero.
    """

    def __init__(self, p: int, count: int):
        self.p = p
        self.width = width = 1 if p == 2 else p.bit_length() + 1
        self.ones = _repeat(1, width, count)
        self.full = (self.ones << width) - self.ones
        if p == 2:
            self.add = self.sub = operator.xor
            return
        self._p_lanes = p * self.ones
        self._high = self.ones << (width - 1)
        self._bias = self._high - self._p_lanes  # 2^(width-1) - p in every lane
        self._nonzero_bias = self._high - self.ones  # 2^(width-1) - 1 in every lane

    def _reduce(self, s: int) -> int:
        """Lanes in [0, 2p) to their residues mod p."""
        return s - (((s + self._bias) & self._high) >> (self.width - 1)) * self.p

    def add(self, x: int, y: int) -> int:
        return self._reduce(x + y)

    def sub(self, x: int, y: int) -> int:
        return self._reduce(x + self._p_lanes - y)

    def nonzero(self, x: int) -> int:
        if self.p == 2:
            return x
        low = ((x + self._nonzero_bias) & self._high) >> (self.width - 1)
        return (low << self.width) - low


@functools.lru_cache(maxsize=None)
def _digit_table(spec: FieldSpec) -> list[list[tuple[int, ...]]]:
    """table[t][x]: the F_p-digits of x * e_t, e_t the element with packed
    index p^t; digit t' is the place p^t' of the packed index."""
    p, k = spec.p, spec.k
    digits = [tuple((x // p**t) % p for t in range(k)) for x in range(spec.q)]
    return [[digits[spec.mul(x, p**t)] for x in range(spec.q)] for t in range(k)]


def _map_digits(m: Mat) -> list[list[int]]:
    """The F_p-digits of the F_q-linear map m on the F_p-basis, lane order.

    Lane c*k + t is the coordinate of e_t times basis vector c (E_c for an
    ad_matrix).  Row c*k + t holds the digits of its image: column c of m
    scaled by e_t, with digit t' of entry r in lane r*k + t'.
    """
    table = _digit_table(m.spec)
    return [[d for x in col for d in scaled[x]] for col in zip(*m.rows) for scaled in table]


def _ad_mod_scalars(a: Mat) -> Mat:
    """ad_a on the matrices with entry (n-1, n-1) = 0: a complement of F_q I,
    which ad_a kills, so it has the rank and the image of ad_a."""
    return Mat(a.spec, [row[:-1] for row in ad_matrix(a).rows])


def _span_member(spec: FieldSpec, n: int, vectors, digits) -> Mat:
    """The n x n matrix with F_p-coordinates digits on the F_p-basis e_t b_j
    of the F_q-span of the row-major vectors b_j, coordinate j*k + t; e_t has
    packed index p^t, so for the unit vectors that is the lane order e*k + t."""
    add, _, mul = spec._tables()
    entries = [0] * (n * n)
    for c, d in enumerate(digits):
        if d:
            scaled = mul[d * spec.p ** (c % spec.k)]  # times d e_t, of that packed index
            for e, y in enumerate(vectors[c // spec.k]):
                entries[e] = add[entries[e]][scaled[y]]
    return _unvec(spec, entries, n)


# bits per int in a block of a brute lane scan: p^s matrices, one per lane
_BLOCK_BITS = 1 << 15


def _block_exponent(p: int, walked: int) -> int:
    """The largest s <= walked whose p^s lanes fit in _BLOCK_BITS bits."""
    s, width = 0, _Lanes(p, 1).width
    while s < walked and p ** (s + 1) * width <= _BLOCK_BITS:
        s += 1
    return s


def _digit_planes(lanes: _Lanes, s: int) -> list[int]:
    """Plane j holds in lane l the base-p digit j of l, for l < p^s."""
    p, w = lanes.p, lanes.width
    planes = []
    for j in range(s):
        run = _repeat(1, w, p**j)  # p^j lanes of 1
        period = sum(d * run << (d * p**j * w) for d in range(p))
        planes.append(_repeat(period, p ** (j + 1) * w, p ** (s - j - 1)))
    return planes


def _ad_blocks(spec: FieldSpec, n: int, s: int, maps, vectors):
    """The images of F_p-linear maps of A for blocks of p^s matrices A, one A per lane.

    A walks the span of vectors, row-major n x n matrices over F_q: each
    block is (outer, images), and lane l of the block is the A whose
    F_p-coordinates (_span_member) are the base-p digits of l, lowest
    first, followed by the block's outer digits.  images[i][r][c] holds in
    lane l digit c of row r of _map_digits(maps[i](A)).
    Each map is F_p-linear in A, so the first s coordinates contribute the
    digit planes times the images of their basis matrices, built once, and
    each block adds the images of its outer part a as lane broadcasts.
    Blocks come lazily, so memory does not grow with the matrices.
    """
    p = spec.p
    lanes = _Lanes(p, p**s)
    add = lanes.add

    def images(a):
        return [_map_digits(f(a)) for f in maps]

    def plus(rows, image, lane_digits):  # rows + lane_digits[d], d the digits of image
        return [
            [add(x, lane_digits[d]) if d else x for x, d in zip(row, digits)]
            for row, digits in zip(rows, image)
        ]

    inner = images(Mat.zeros(spec, n, n))  # every digit 0, so every lane 0
    for j, plane in enumerate(_digit_planes(lanes, s)):
        multiples = [0, plane]
        while len(multiples) < p:
            multiples.append(add(multiples[-1], plane))
        b = _span_member(spec, n, vectors, [0] * j + [1])
        inner = [plus(rows, image, multiples) for rows, image in zip(inner, images(b))]
    broadcast = [d * lanes.ones for d in range(p)]
    for outer in itertools.product(range(p), repeat=len(vectors) * spec.k - s):
        a = _span_member(spec, n, vectors, (0,) * s + outer)
        yield outer, [plus(rows, image, broadcast) for rows, image in zip(inner, images(a))]


def _eliminate(lanes: _Lanes, rows, goal=None) -> tuple[list[int], list[int] | None]:
    """(counter, goal): each lane's F_p-rank of rows, and goal reduced by
    them.  rows and goal are lists of lane ints, cleared in place.

    The elimination runs column by column on every lane at once: every lane
    takes as pivot its first row that is nonzero there, the pivot rows are
    masked together into one pivot vector, and masked subtractions of it
    clear the column in every row of each lane; a subtraction moves a digit
    by the unit of the pivot, so at most p - 1 clear it.  That also clears
    each pivot row in its own lanes, so no row is a pivot twice.  The
    bit-sliced counter keeps each lane's pivot count: counter[i] holds its
    bit i at bit 0 of the lane.  goal rides along as one more row that is
    never a pivot; it ends at 0 exactly in the lanes whose rows span it.
    """
    sub, nonzero, ones, full = lanes.sub, lanes.nonzero, lanes.ones, lanes.full
    cleared = rows if goal is None else rows + [goal]
    counter = []
    for col in range(len(rows[0]) if rows else 0):
        free = full  # the lanes without a pivot in this column yet
        pivot = None
        for row in rows:
            chosen = nonzero(row[col]) & free
            if chosen:
                free ^= chosen
                part = [x & chosen for x in row[col:]]
                pivot = part if pivot is None else list(map(operator.or_, pivot, part))
        if pivot is None:
            continue
        taken = full ^ free
        pivot = [(i, x) for i, x in enumerate(pivot, col) if x]
        for row in cleared:
            mask = nonzero(row[col]) & taken
            while mask:
                for i, x in pivot:
                    row[i] = sub(row[i], x & mask)
                mask = nonzero(row[col]) & taken
        carry = taken & ones
        for i, bit in enumerate(counter):
            counter[i], carry = bit ^ carry, bit & carry
        if carry:
            counter.append(carry)
    return counter, goal


def _lanes_at(counter: list[int], value: int, ones: int) -> int:
    """The lanes, as bits of ones, whose bit-sliced counter equals value."""
    at = 0 if value >> len(counter) else ones
    for i, bit in enumerate(counter):
        at &= bit if value >> i & 1 else ~bit
    return at


def _ad_rank_histogram(spec: FieldSpec, n: int, c: Fe) -> tuple[list[int], list[int]]:
    """(walked, consistent): per rank of ad_A over F_q, how many A with entry
    (n-1, n-1) = 0 have it, and how many of those have cI in im ad_A.

    Each block eliminates the F_p-images of all its lanes at once
    (_eliminate), an F_p-rank of k * rank; the digits of cI ride along as
    the goal, so cI is in the image exactly where the goal ends at 0.
    """
    p, k = spec.p, spec.k
    s = _block_exponent(p, n * n * k - k)
    lanes = _Lanes(p, p**s)
    ones = lanes.ones
    goal_digits = [
        (c.idx // p**t) % p * ones if e % (n + 1) == 0 else 0  # cI: c on the diagonal
        for e in range(n * n)
        for t in range(k)
    ]
    walked = [0] * (n * n + 1)
    consistent = [0] * (n * n + 1)
    units = Mat.identity(spec, n * n).rows[:-1]  # entry (n-1, n-1) stays 0
    for _, (rows,) in _ad_blocks(spec, n, s, (_ad_mod_scalars,), units):
        counter, goal = _eliminate(lanes, rows, list(goal_digits))
        missed = 0
        for x in goal:
            missed |= lanes.nonzero(x)
        for rank in range(1 << len(counter)):
            at = _lanes_at(counter, rank, ones)
            if not at:
                continue
            if rank % k:
                raise MathCheckFailed("ad_A has F_p-rank %d, not a multiple of k=%d" % (rank, k))
            walked[rank // k] += at.bit_count()
            consistent[rank // k] += (at & ~missed).bit_count()
    if sum(walked) != spec.q ** (n * n - 1):
        raise MathCheckFailed(
            "the brute Lie scan walked %d matrices, not q^%d" % (sum(walked), n * n - 1)
        )
    return walked, consistent


def _w_blocks(spec: FieldSpec, n: int, zeta: Fe):
    """(outer, members, ad) per block of _ad_blocks over all q^(n^2) x, as W
    is not invariant under x + F_q I: the lanes, as bits of the lane ones,
    where x is invertible, v -> xv of F_p-rank nk, and x ~ zeta x,
    rank(Y -> xY - zeta Yx) = rank ad_x (C. I. Byrnes and M. A. Gauger,
    Linear and Multilinear Algebra 5, 1977); ad counts the F_p-rank of ad_x."""
    s = _block_exponent(spec.p, n * n * spec.k)
    lanes = _Lanes(spec.p, spec.p**s)
    maps = (_ad_mod_scalars, lambda a: ad_matrix(a, a * zeta), lambda a: a)
    walked = 0
    for outer, images in _ad_blocks(spec, n, s, maps, Mat.identity(spec, n * n).rows):
        ad, twisted, x = (_eliminate(lanes, rows)[0] for rows in images)
        differ = 0
        for ad_bit, twisted_bit in itertools.zip_longest(ad, twisted, fillvalue=0):
            differ |= ad_bit ^ twisted_bit
        walked += spec.p**s
        yield outer, _lanes_at(x, n * spec.k, lanes.ones) & ~differ, ad
    if walked != spec.q ** (n * n):
        raise MathCheckFailed("the brute W scan walked %d matrices, not q^%d" % (walked, n * n))


# -- counting ------------------------------------------------------------------

def _all_matrices(spec: FieldSpec, n: int):
    """Every n x n matrix, in product order of the row-major entries."""
    for entries in itertools.product(range(spec.q), repeat=n * n):
        yield _unvec(spec, entries, n)


def _count(variety: str, n: int, spec: FieldSpec, strategy: str, limits, scan, p=0, d=1) -> int:
    """The counters' one dispatch.  class: variety's point-count polynomial
    (characteristic p, zeta of order d, so q = 1 mod d) at q; brute: scan(),
    once the q^(n^2) matrices fit in limits.max_brute."""
    if n < 1:
        raise ValueError("n must be positive")
    if strategy == "class":
        return _value_at(point_count_polynomial(variety, n, p, d, limits), spec.q)
    if strategy != "brute":
        raise ValueError("unknown strategy %r" % strategy)
    matrices = spec.q ** (n * n)
    if matrices > limits.max_brute:
        raise LimitExceeded(
            "brute scan of %d matrices exceeds limit %d" % (matrices, limits.max_brute)
        )
    return scan()


def _lie_scan(n: int, spec: FieldSpec, c: Fe) -> int:
    """#{AB - BA = cI} by brute scan: A walks M_n(F_q) mod F_q I, and each A
    solves ad_A(B) = cI exactly, with q^(n^2 - rank) solutions or none for
    each of the q matrices of its coset."""
    q, nn = spec.q, n * n
    _, consistent = _ad_rank_histogram(spec, n, c)
    return q * sum(count * q ** (nn - rank) for rank, count in enumerate(consistent))


def _w_scan(n: int, spec: FieldSpec, zeta: Fe) -> int:
    """#{x in GL_n : x ~ zeta x} by brute scan: the member lanes of _w_blocks."""
    return sum(members.bit_count() for _, members, _ in _w_blocks(spec, n, zeta))


def _unit(spec: FieldSpec, zeta) -> Fe:
    zeta = spec.el(zeta)
    if not zeta:
        raise ValueError("zeta must be a unit")
    return zeta


def count_lie_pairs(
    n: int,
    spec: FieldSpec,
    c,
    strategy: str = "class",
    limits: CensusLimits = DEFAULT_LIMITS,
) -> int:
    """#{(A, B) in M_n(F_q)^2 : AB - BA = cI}."""
    c = spec.el(c)
    scan = functools.partial(_lie_scan, n, spec, c)
    return _count("lie" if c else "commuting", n, spec, strategy, limits, scan, p=spec.p)


def count_commuting_pairs(
    n: int,
    spec: FieldSpec,
    strategy: str = "class",
    limits: CensusLimits = DEFAULT_LIMITS,
) -> int:
    """#{(A, B) in M_n(F_q)^2 : AB = BA}; the c = 0 commutator count."""
    return count_lie_pairs(n, spec, 0, strategy, limits)


def count_group_pairs(
    n: int,
    spec: FieldSpec,
    zeta,
    strategy: str = "class",
    limits: CensusLimits = DEFAULT_LIMITS,
) -> int:
    """#{(x, y) in GL_n(F_q)^2 : x^-1 y^-1 x y = zeta I}."""
    zeta = _unit(spec, zeta)
    scan = functools.partial(_group_scan, n, spec, zeta, limits)
    return _count("group", n, spec, strategy, limits, scan, d=zeta.multiplicative_order())


def _group_scan(n: int, spec: FieldSpec, zeta: Fe, limits: CensusLimits) -> int:
    """#{(x, y) : y^-1 x y = zeta x} by brute scan: q - 1 times the solutions
    of the x in W's lanes (_w_blocks) whose first nonzero entry is 1, one per
    orbit of F_q^x.  The gate adds q^(dim ker) per such x, dim ker = n^2 -
    rank ad_x on W, read off the ad counters before any solution walk."""
    p, q, k, nn = spec.p, spec.q, spec.k, n * n
    width = _Lanes(p, 1).width
    units = Mat.identity(spec, nn).rows
    walked, solutions, reps = q**nn, 0, []  # solutions: q^(dim ker) over the members
    for outer, members, ad in _w_blocks(spec, n, zeta):
        for rank in range(1 << len(ad)):
            solutions += _lanes_at(ad, rank, members).bit_count() * q ** (nn - rank // k)
        walked = q**nn + solutions // (q - 1)
        inner = range(nn * k - len(outer))  # the digits a lane's index gives
        for lane, bit in enumerate(bin(members)[:1:-1][::width]):  # lane l at bit l * width
            if bit == "1" and walked <= limits.max_brute:  # keep no x for a refused scan
                x = _span_member(spec, n, units, [lane // p**j % p for j in inner] + list(outer))
                if next(filter(None, itertools.chain(*x.rows))) == spec.one_idx:
                    reps.append(x)
    if walked > limits.max_brute:
        raise LimitExceeded(
            "group brute scan of %d matrices exceeds limit %d" % (walked, limits.max_brute)
        )
    return (q - 1) * sum(_group_solutions(x, zeta) for x in reps)


def _group_solutions(x: Mat, zeta: Fe) -> int:
    """#{y in GL_n(F_q) : y^-1 x y = zeta x}, over the solution space only.

    y^-1 x y = zeta x  <=>  x y - y (zeta x) = 0, which is linear in y: the
    solutions are the span of the kernel of B -> xB - B(zeta x).  _ad_blocks
    walks it, one y per lane, and counts the y where v -> yv has F_p-rank
    nk, that is, the invertible y.
    """
    spec, n = x.spec, x.n_rows
    kernel = kernel_basis(ad_matrix(x, x * zeta))
    s = _block_exponent(spec.p, len(kernel) * spec.k)
    lanes = _Lanes(spec.p, spec.p**s)
    count = walked = 0
    for _, (rows,) in _ad_blocks(spec, n, s, (lambda y: y,), kernel):
        count += _lanes_at(_eliminate(lanes, rows)[0], n * spec.k, lanes.ones).bit_count()
        walked += spec.p**s
    if walked != spec.q ** len(kernel):
        raise MathCheckFailed(
            "the group solution walk covered %d matrices, not q^%d" % (walked, len(kernel))
        )
    return count


def count_w(
    n: int,
    spec: FieldSpec,
    zeta,
    strategy: str = "class",
    limits: CensusLimits = DEFAULT_LIMITS,
) -> int:
    """#{x in GL_n(F_q) : x is conjugate to zeta x}."""
    zeta = _unit(spec, zeta)
    scan = functools.partial(_w_scan, n, spec, zeta)
    return _count("W", n, spec, strategy, limits, scan, d=zeta.multiplicative_order())


# -- dimension estimation --------------------------------------------------------

class DimensionFit(Record):
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
    lc1, lc2, lq1, lq2 = (Decimal(x).ln(_DEC) for x in (c1, c2, q1, q2))
    raw = _DEC.divide(_DEC.subtract(lc2, lc1), _DEC.subtract(lq2, lq1))
    # 30 decimal places: far beyond what the fit needs, and exact power laws
    # come out with residual exactly zero
    raw = raw.quantize(Decimal("1E-30"), context=_DEC)
    fitted = int(raw.to_integral_value(rounding="ROUND_HALF_EVEN", context=_DEC))
    residual = _DEC.abs(_DEC.subtract(raw, Decimal(fitted)))
    return DimensionFit(fitted, raw, residual)


class CountReport(Record, frozen=False):
    """Per-q counts for one variety, the fitted growth exponent (a
    diagnostic), and the exact point-count polynomial, whose degree is the
    dimension that `match` compares with the expected one."""

    variety: str
    n: int
    p: int
    counts: list  # of (q, count, strategy)
    fit: DimensionFit | None
    expected_dimension: int | None
    extra: dict = Fresh(dict)
    point_count_polynomial: QPoly | None = None

    @property
    def exact_dimension(self) -> int | None:
        """The degree of the point-count polynomial; None without one or for 0."""
        poly = self.point_count_polynomial
        return poly.degree if poly is not None else None

    def to_json_dict(self) -> dict:
        doc = {
            "variety": self.variety,
            "n": self.n,
            "p": self.p,
            "counts": [
                {"q": q, "count": str(Decimal(count)), "strategy": strategy}
                for q, count, strategy in self.counts
            ],
            "fitted_dimension": self.fit.fitted if self.fit else None,
            "raw_exponent": _dec_str(self.fit.raw) if self.fit else None,
            "residual": _dec_str(self.fit.residual) if self.fit else None,
            "point_count_polynomial": (
                str(self.point_count_polynomial)
                if self.point_count_polynomial is not None
                else None
            ),
            "exact_dimension": self.exact_dimension,
            "expected_dimension": self.expected_dimension,
            "match": (
                self.exact_dimension == self.expected_dimension
                if self.point_count_polynomial is not None
                and self.expected_dimension is not None
                else None
            ),
        }
        doc.update(self.extra)
        return doc


def _dec_str(x: Decimal) -> str:
    return str(x.quantize(Decimal("1E-20"), context=_DEC))
