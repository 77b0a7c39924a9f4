"""Univariate polynomial algebra over a field instance.

Polynomials are dense coefficient tuples (packed element indices, constant
term first, no trailing zeros).  Provides exact arithmetic, gcd, full
factorization (squarefree split + distinct-degree + equal-degree
splitting), an irreducibility test that is the same distinct-degree split
finding no factor of degree <= d/2, and
enumeration of the monic irreducibles of a given degree by an affine sieve
that strikes out the multiples of each lower-degree irreducible.

Text form: comma-separated element tokens, constant term first,
e.g. "1,0,1" for 1 + t^2 over a prime field.
"""

from __future__ import annotations

import itertools
import random

from .errors import LimitExceeded
from .gf import Fe, FieldSpec, _fe_text, _power, _prime_divisors

DEFAULT_ENUM_LIMIT = 1 << 22


# -- tuple-level helpers (shared with the matrix module's hot paths) --------

def pnormalize(coeffs) -> tuple[int, ...]:
    n = len(coeffs)
    while n > 0 and coeffs[n - 1] == 0:
        n -= 1
    return tuple(coeffs[:n])


def padd(spec: FieldSpec, f, g):
    add = spec._tables()[0]
    return pnormalize([add[a][b] for a, b in itertools.zip_longest(f, g, fillvalue=0)])


def psub(spec: FieldSpec, f, g):
    sub = spec._tables()[1]
    return pnormalize([sub[a][b] for a, b in itertools.zip_longest(f, g, fillvalue=0)])


def pscale(spec: FieldSpec, f, c: int):
    if c == 0:
        return ()
    mc = spec._tables()[2][c]
    return pnormalize([mc[x] for x in f])


def pmul(spec: FieldSpec, f, g):
    if not f or not g:
        return ()
    add, _, mul = spec._tables()
    out = [0] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        if x:
            mx = mul[x]
            for j, y in enumerate(g, i):
                out[j] = add[out[j]][mx[y]]
    return pnormalize(out)


def pdivmod(spec: FieldSpec, f, g):
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    if len(f) < len(g):
        return (), tuple(f)
    _, sub, mul = spec._tables()
    scale = mul[spec.inv(g[-1])]
    rem = list(f)
    dg = len(g) - 1
    quo = [0] * (len(f) - dg)
    for i in range(len(f) - 1, dg - 1, -1):
        c = rem[i]
        if c:
            c = quo[i - dg] = scale[c]
            mc = mul[c]
            for j, y in enumerate(g, i - dg):
                rem[j] = sub[rem[j]][mc[y]]
    return pnormalize(quo), pnormalize(rem)


def pmonic(spec: FieldSpec, f):
    if not f or f[-1] == spec.one_idx:
        return tuple(f)
    return pscale(spec, f, spec.inv(f[-1]))


def pgcd(spec: FieldSpec, f, g):
    while g:
        f, g = g, pdivmod(spec, f, g)[1]
    return pmonic(spec, f)


def ppowmod(spec: FieldSpec, f, e: int, m):
    def mulmod(g, h):
        return pdivmod(spec, pmul(spec, g, h), m)[1]

    return _power(pdivmod(spec, f, m)[1], e, mulmod, (spec.one_idx,))


def peval(spec: FieldSpec, f, x: int) -> int:
    acc = 0
    mul, add = spec.mul, spec.add
    for c in reversed(f):
        acc = add(mul(acc, x), c)
    return acc


def pderiv(spec: FieldSpec, f):
    out = []
    for i in range(1, len(f)):
        out.append(spec.mul(f[i], spec.el(i).idx))
    return pnormalize(out)


class Poly:
    """A univariate polynomial over a fixed field instance."""

    __slots__ = ("spec", "coeffs")

    def __init__(self, spec: FieldSpec, coeffs):
        self.spec = spec
        self.coeffs = pnormalize(tuple(coeffs))

    @classmethod
    def from_coeffs(cls, spec: FieldSpec, coeffs) -> "Poly":
        return cls(spec, [spec.el(c).idx for c in coeffs])

    @classmethod
    def zero(cls, spec: FieldSpec) -> "Poly":
        return cls(spec, ())

    @classmethod
    def one(cls, spec: FieldSpec) -> "Poly":
        return cls(spec, (spec.one_idx,))

    @classmethod
    def x(cls, spec: FieldSpec) -> "Poly":
        return cls(spec, (0, spec.one_idx))

    @classmethod
    def from_text(cls, spec: FieldSpec, text: str) -> "Poly":
        return cls(spec, [spec.parse(tok).idx for tok in split_tokens(text)])

    @property
    def degree(self) -> int:
        """Degree; -1 marks the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == self.spec.one_idx

    def leading(self) -> Fe:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return Fe(self.spec, self.coeffs[-1])

    def monic(self) -> "Poly":
        return Poly(self.spec, pmonic(self.spec, self.coeffs))

    def _check(self, other: "Poly"):
        if other.spec != self.spec:
            raise ValueError("mismatched fields")

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        return Poly(self.spec, padd(self.spec, self.coeffs, other.coeffs))

    def __sub__(self, other: "Poly") -> "Poly":
        self._check(other)
        return Poly(self.spec, psub(self.spec, self.coeffs, other.coeffs))

    def __mul__(self, other):
        if isinstance(other, Poly):
            self._check(other)
            return Poly(self.spec, pmul(self.spec, self.coeffs, other.coeffs))
        c = self.spec.el(other).idx
        return Poly(self.spec, pscale(self.spec, self.coeffs, c))

    __rmul__ = __mul__

    def __neg__(self) -> "Poly":
        neg = self.spec.neg
        return Poly(self.spec, [neg(c) for c in self.coeffs])

    def __divmod__(self, other: "Poly"):
        self._check(other)
        q, r = pdivmod(self.spec, self.coeffs, other.coeffs)
        return Poly(self.spec, q), Poly(self.spec, r)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def __pow__(self, e: int) -> "Poly":
        return _power(self, e, Poly.__mul__, Poly.one(self.spec))

    def __call__(self, x: Fe) -> Fe:
        if x.spec != self.spec:
            raise ValueError("mismatched fields")
        return Fe(self.spec, peval(self.spec, self.coeffs, x.idx))

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.spec == other.spec
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.spec.p, self.spec.k, self.coeffs))

    def __lt__(self, other: "Poly"):
        return (self.degree, self.coeffs) < (other.degree, other.coeffs)

    def to_text(self) -> str:
        if self.is_zero:
            return str(self.spec.zero)
        return ",".join(str(Fe(self.spec, c)) for c in self.coeffs)

    def pretty(self, var: str = "t") -> str:
        """Human-readable form, descending powers, e.g. "t^4" or "t^2+2*t+2"."""
        if self.is_zero:
            return "0"
        spec = self.spec
        one = spec.one_idx
        terms = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                terms.append(_fe_text(spec, c))
            else:
                power = var if i == 1 else "%s^%d" % (var, i)
                if c == one:
                    terms.append(power)
                else:
                    terms.append("%s*%s" % (_fe_text(spec, c), power))
        return "+".join(terms)

    def __str__(self):
        return self.pretty()

    def __repr__(self):
        return "Poly(%r, %s)" % (self.spec, self.pretty())


def split_tokens(text: str) -> list[str]:
    """Split a comma-separated token list, respecting [...] groups."""
    out, depth, cur = [], 0, []
    for ch in text:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        if ch == "," and depth == 0:
            out.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    out.append("".join(cur).strip())
    return out


def gcd(f: Poly, g: Poly) -> Poly:
    """Monic greatest common divisor; gcd(0, 0) = 0."""
    if f.spec != g.spec:
        raise ValueError("mismatched fields")
    return Poly(f.spec, pgcd(f.spec, f.coeffs, g.coeffs))


def is_irreducible(f: Poly) -> bool:
    """True iff f is irreducible over its field (degree >= 1 required): the
    distinct-degree split finds no factor of degree <= deg f / 2."""
    if f.degree < 1:
        raise ValueError("irreducibility is undefined for constants")
    m = pmonic(f.spec, f.coeffs)
    return _ddf(f.spec, m) == [(m, f.degree)]


def _mix_seed(coeffs) -> int:
    """The equal-degree split's random seed: an FNV-1a hash of coeffs."""
    h = 0xCBF29CE484222325
    for c in coeffs:
        h = ((h ^ (c + 1)) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def _pth_root(spec: FieldSpec, f):
    """The p-th root of f(t) = g(t)^p (valid when f' = 0)."""
    p, k = spec.p, spec.k
    # inverse Frobenius on each coefficient: c^(p^(k-1))
    return pnormalize([spec.pow(f[i], p ** (k - 1)) for i in range(0, len(f), p)])


def _ddf(spec: FieldSpec, f):
    """Distinct-degree split of a squarefree monic f: list of (product, d)."""
    out = []
    t = (0, spec.one_idx)
    h = t
    d = 0
    while len(f) - 1 > 0:
        d += 1
        if 2 * d > len(f) - 1:
            out.append((f, len(f) - 1))
            break
        h = ppowmod(spec, h, spec.q, f)
        g = pgcd(spec, psub(spec, h, t), f)
        if len(g) > 1:
            out.append((g, d))
            f = pdivmod(spec, f, g)[0]
            h = pdivmod(spec, h, f)[1]
    return out


def _edf(spec: FieldSpec, f, d: int):
    """Split a product of degree-d irreducibles into its factors."""
    if len(f) - 1 == d:
        return [f]
    q = spec.q
    rng = random.Random(_mix_seed(f))
    out = []
    while True:
        r = pnormalize([rng.randrange(q) for _ in range(len(f) - 1)])
        if len(r) <= 1:
            continue
        if spec.p == 2:
            # trace map sum r^(2^i), i < k*d
            acc = pdivmod(spec, r, f)[1]
            cur = acc
            for _ in range(spec.k * d - 1):
                cur = ppowmod(spec, cur, 2, f)
                acc = padd(spec, acc, cur)
            split = pgcd(spec, acc, f)
        else:
            s = ppowmod(spec, r, (q**d - 1) // 2, f)
            split = pgcd(spec, psub(spec, s, (spec.one_idx,)), f)
        if 1 <= len(split) - 1 < len(f) - 1:
            out.extend(_edf(spec, split, d))
            out.extend(_edf(spec, pdivmod(spec, f, split)[0], d))
            return out


def factor(f: Poly):
    """Full factorization into monic irreducibles.

    Returns a sorted tuple of (factor, multiplicity); the product of
    factor^multiplicity times the leading coefficient reassembles f.
    Factorization into monic irreducibles is unique, so the result depends
    on f alone; the equal-degree split seeds its random draws from f.
    """
    if f.is_zero:
        raise ValueError("cannot factor the zero polynomial")
    spec = f.spec
    work = pmonic(spec, f.coeffs)
    found: dict[tuple, int] = {}
    scale = 1
    while len(work) - 1 > 0:
        deriv = pderiv(spec, work)
        if not deriv:
            work = _pth_root(spec, work)
            scale *= spec.p
            continue
        rad = pdivmod(spec, work, pgcd(spec, work, deriv))[0]
        for part, d in _ddf(spec, rad):
            for g in _edf(spec, part, d):
                mult = 0
                while True:
                    quo, rem = pdivmod(spec, work, g)
                    if rem:
                        break
                    work = quo
                    mult += 1
                found[g] = found.get(g, 0) + mult * scale
    out = [(Poly(spec, g), m) for g, m in found.items()]
    out.sort(key=lambda gm: (gm[0].degree, gm[0].coeffs))
    return tuple(out)


def roots(f: Poly) -> list[Fe]:
    """Roots of f in its own field, sorted in canonical order."""
    out = []
    for g, _ in factor(f):
        if g.degree == 1:
            out.append(Fe(f.spec, f.spec.neg(g.coeffs[0])))
    out.sort(key=lambda a: a.idx)
    return out


def _moebius(n: int) -> int:
    primes = _prime_divisors(n)
    if any(n % (ell * ell) == 0 for ell in primes):
        return 0
    return (-1) ** len(primes)


def irreducibles_of_degree(spec: FieldSpec, d: int):
    """All monic irreducibles of degree d, in canonical order.

    An affine sieve strikes out every multiple of each monic irreducible f
    of degree e <= d/2.  Those multiples are h = t^e U + L with U any monic
    of degree d - e and L = -(t^e U mod f), so each coefficient L_j is an
    affine function of U's coefficients: weights -(t^(e+i) mod f)_j, constant
    -(t^d mod f)_j.  The sieve evaluates L_j for every U at once and marks
    h's position rank(U) + sum_j L_j q^(d-1-j) in canonical order.
    """
    if d < 1:
        raise ValueError("degree must be positive")
    if spec.q**d > DEFAULT_ENUM_LIMIT:
        raise LimitExceeded(
            "enumeration too large: %d candidates exceed limit %d"
            % (spec.q**d, DEFAULT_ENUM_LIMIT)
        )
    q, one = spec.q, spec.one_idx
    add, mul, neg = spec.add, spec.mul, spec.neg
    field = range(q)
    reducible = bytearray(q**d)  # flags by position in canonical order
    for e in range(1, d // 2 + 1):
        for f in irreducibles_of_degree(spec, e):
            # affine[i][j] = -(t^(e+i) mod f)_j; row d - e is the constant
            affine = []
            for i in range(d - e + 1):
                rem = pdivmod(spec, (0,) * (e + i) + (one,), f.coeffs)[1]
                affine.append([neg(c) for c in rem] + [0] * (e - len(rem)))
            ranks = range(q ** (d - e))  # rank(U), U_0 most significant
            for j in range(e):
                coord = [affine[d - e][j]]
                for i in range(d - e):
                    multiples = [mul(affine[i][j], u) for u in field]
                    coord = [add(c, m) for c in coord for m in multiples]
                weight = q ** (d - 1 - j)
                ranks = [r + c * weight for r, c in zip(ranks, coord)]
            for r in ranks:
                reducible[r] = 1
    monics = itertools.product(field, repeat=d)  # (c0, ..., c_{d-1}) lexicographic
    return [Poly(spec, low + (one,)) for low, r in zip(monics, reducible) if not r]
