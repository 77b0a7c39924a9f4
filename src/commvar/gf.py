"""Exact arithmetic in prime fields F_p and extensions GF(p^k).

A field is specified by (p, k) and a deterministic modulus: the
lexicographically smallest monic irreducible polynomial of degree k over
F_p, with coefficient tuples compared constant term first.  Elements are
stored as packed integer indices whose base-p digits are the coefficients
(c0, c1, ..., c_{k-1}) with the constant term c0 in the most significant
position, so that integer order on indices equals the canonical
coefficient-tuple order.  All arithmetic is exact.  Every field with
q <= 256, prime fields included, builds its addition, subtraction,
negation, multiplication and inverse tables when it is constructed; larger
fields compute on coefficients.  The matrix and polynomial kernels read
(add, sub, mul) through FieldSpec._tables() as t[a][b], on the tables or,
for q > 256, on row views over the scalar methods.

Text form of an element: a decimal residue for k = 1, and a bracketed
coefficient tuple "[c0,c1,...]" (constant term first) for k > 1.
"""

from __future__ import annotations

import functools
import itertools

from .errors import MathCheckFailed

_TABLE_MAX_Q = 256  # build full lookup tables only for small fields


def _is_prime(n: int) -> bool:
    return n > 1 and _prime_divisors(n) == [n]


def _prime_divisors(n: int):
    """The distinct primes dividing n, ascending, by trial division."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _power(x, e: int, mul, one):
    """x^e by square-and-multiply with the product mul, for e >= 0."""
    if e < 0:
        raise ValueError("negative exponent %d" % e)
    result = one
    while e:
        if e & 1:
            result = mul(result, x)
        x = mul(x, x)
        e >>= 1
    return result


class FieldSpec:
    """A finite field GF(p^k) with a fixed monic irreducible modulus.

    Instances are obtained through :func:`field` and are cached, so two
    specs with equal (p, k) are the same object with the same modulus.
    """

    __slots__ = (
        "p", "k", "modulus", "q", "_hash", "_add_t", "_sub_t", "_mul_t", "_inv_t", "_neg_t"
    )

    def __init__(self, p: int, k: int, modulus: tuple[int, ...]):
        self.p = p
        self.k = k
        self.modulus = modulus
        self.q = p**k
        # specs are immutable and key the lru_caches of every element text
        self._hash = hash((p, k, modulus))
        self._add_t = None
        self._sub_t = None
        self._mul_t = None
        self._inv_t = None
        self._neg_t = None
        self.ensure_tables()

    # -- packing -----------------------------------------------------------

    def idx_to_coeffs(self, a: int) -> tuple[int, ...]:
        p, k = self.p, self.k
        out = [0] * k
        for i in range(k - 1, -1, -1):
            a, out[i] = divmod(a, p)
        return tuple(out)

    def coeffs_to_idx(self, coeffs) -> int:
        p = self.p
        a = 0
        for c in coeffs:
            a = a * p + c % p
        return a

    # -- integer-level arithmetic on packed indices -------------------------

    def add(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a + b) % self.p
        t = self._add_t
        if t is not None:
            return t[a][b]
        p = self.p
        ca, cb = self.idx_to_coeffs(a), self.idx_to_coeffs(b)
        return self.coeffs_to_idx((x + y) % p for x, y in zip(ca, cb))

    def neg(self, a: int) -> int:
        if self.k == 1:
            return -a % self.p
        t = self._neg_t
        if t is not None:
            return t[a]
        p = self.p
        return self.coeffs_to_idx(-x % p for x in self.idx_to_coeffs(a))

    def sub(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a - b) % self.p
        t = self._sub_t
        if t is not None:
            return t[a][b]
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.k == 1:
            return a * b % self.p
        t = self._mul_t
        if t is not None:
            return t[a][b]
        return self._mul_slow(a, b)

    def _mul_slow(self, a: int, b: int) -> int:
        p, k = self.p, self.k
        ca, cb = self.idx_to_coeffs(a), self.idx_to_coeffs(b)
        prod = [0] * (2 * k - 1)
        for i, x in enumerate(ca):
            if x:
                for j, y in enumerate(cb):
                    prod[i + j] = (prod[i + j] + x * y) % p
        m = self.modulus
        for i in range(2 * k - 2, k - 1, -1):
            c = prod[i]
            if c:
                prod[i] = 0
                for j in range(k):
                    prod[i - k + j] = (prod[i - k + j] - c * m[j]) % p
        return self.coeffs_to_idx(prod[:k])

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("division by zero in %r" % self)
        if self.k == 1:
            return pow(a, self.p - 2, self.p)
        t = self._inv_t
        if t is not None:
            return t[a]
        return self.pow(a, self.q - 2)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            a, e = self.inv(a), -e
        return _power(a, e, self.mul, self.one_idx)

    def frob(self, a: int) -> int:
        return self.pow(a, self.p)

    @property
    def one_idx(self) -> int:
        # coeffs (1, 0, ..., 0)
        return self.p ** (self.k - 1)

    def _tables(self):
        """(add, sub, mul), each read as t[a][b] on packed indices: the
        lookup tables, or for q > 256 row views over the scalar methods."""
        if self._mul_t is not None:
            return self._add_t, self._sub_t, self._mul_t
        return _ScalarRows(self.add), _ScalarRows(self.sub), _ScalarRows(self.mul)

    def ensure_tables(self) -> None:
        """Build the lookup tables if q <= 256; the constructor calls it.

        Sums come digit by digit mod p, differences by negating the second
        argument (p = 2 shares the sum table), products and inverses from
        the q - 2 powers of the smallest primitive element.
        """
        if self._mul_t is not None or self.q > _TABLE_MAX_Q:
            return
        p, q = self.p, self.q
        add = [[0]]
        for _ in range(self.k):  # append one base-p digit to every index
            add = [[s * p + (u + v) % p for s in row for v in range(p)]
                   for row in add for u in range(p)]
        g = _smallest_primitive_idx(self)
        power = [self.one_idx]
        for _ in range(q - 2):
            power.append(self._mul_slow(power[-1], g))
        logs = sorted(range(q - 1), key=power.__getitem__)  # logs[a - 1] = log_g(a)
        power += power  # exponents up to 2(q - 2) index without reduction
        neg = [row.index(0) for row in add]
        self._add_t = add
        self._sub_t = add if p == 2 else [[row[b] for b in neg] for row in add]
        self._neg_t = neg
        self._mul_t = [[0] * q] + [[0] + [power[i + j] for j in logs] for i in logs]
        self._inv_t = [0] + [power[q - 1 - i] for i in logs]

    # -- element construction ------------------------------------------------

    def el(self, x) -> "Fe":
        """Coerce x (Fe, integer, coefficient sequence, or text) to an element."""
        if isinstance(x, Fe):
            if x.spec is not self and x.spec != self:
                raise ValueError("mismatched fields: %r vs %r" % (x.spec, self))
            return x
        if isinstance(x, int):
            # image of the integer: constant c0 = x mod p
            return Fe(self, (x % self.p) * self.p ** (self.k - 1))
        if isinstance(x, str):
            return self.parse(x)
        return Fe(self, self.coeffs_to_idx(x))

    @property
    def zero(self) -> "Fe":
        return Fe(self, 0)

    @property
    def one(self) -> "Fe":
        return Fe(self, self.one_idx)

    def elements(self):
        """All field elements in canonical (coefficient-tuple) order."""
        return (Fe(self, a) for a in range(self.q))

    def parse(self, text: str) -> "Fe":
        text = text.strip()
        if self.k == 1:
            return self.el(int(text))
        if not (text.startswith("[") and text.endswith("]")):
            # accept a bare residue as the constant, for input convenience
            try:
                return self.el(int(text))
            except ValueError:
                raise ValueError(
                    "expected bracketed coefficient tuple, got %r" % text
                ) from None
        parts = text[1:-1].split(",")
        if len(parts) != self.k:
            raise ValueError("expected %d coefficients, got %d" % (self.k, len(parts)))
        return self.el([int(s) for s in parts])

    def __repr__(self):
        if self.k == 1:
            return "GF(%d)" % self.p
        return "GF(%d^%d)" % (self.p, self.k)

    def __eq__(self, other):
        return self is other or (
            isinstance(other, FieldSpec)
            and (self.p, self.k, self.modulus) == (other.p, other.k, other.modulus)
        )

    def __hash__(self):
        return self._hash


class _ScalarRows:
    """fn(a, b) read as rows[a][b], the tables' access pattern, for q > 256."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        self.fn = fn

    def __getitem__(self, a):
        return _ScalarRow(self.fn, a)


class _ScalarRow:
    __slots__ = ("fn", "a")

    def __init__(self, fn, a):
        self.fn = fn
        self.a = a

    def __getitem__(self, b):
        return self.fn(self.a, b)


class Fe:
    """An element of a finite field, immutable and hashable."""

    __slots__ = ("spec", "idx")

    def __init__(self, spec: FieldSpec, idx: int):
        self.spec = spec
        self.idx = idx

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self.spec.idx_to_coeffs(self.idx)

    def _coerce(self, other):
        if isinstance(other, Fe):
            if other.spec != self.spec:
                raise ValueError("mismatched fields: %r vs %r" % (self.spec, other.spec))
            return other.idx
        if isinstance(other, int):
            return self.spec.el(other).idx
        return NotImplemented

    def __add__(self, other):
        b = self._coerce(other)
        if b is NotImplemented:
            return NotImplemented
        return Fe(self.spec, self.spec.add(self.idx, b))

    __radd__ = __add__

    def __sub__(self, other):
        b = self._coerce(other)
        if b is NotImplemented:
            return NotImplemented
        return Fe(self.spec, self.spec.sub(self.idx, b))

    def __rsub__(self, other):
        b = self._coerce(other)
        if b is NotImplemented:
            return NotImplemented
        return Fe(self.spec, self.spec.sub(b, self.idx))

    def __mul__(self, other):
        b = self._coerce(other)
        if b is NotImplemented:
            return NotImplemented
        return Fe(self.spec, self.spec.mul(self.idx, b))

    __rmul__ = __mul__

    def __truediv__(self, other):
        b = self._coerce(other)
        if b is NotImplemented:
            return NotImplemented
        return Fe(self.spec, self.spec.div(self.idx, b))

    def __rtruediv__(self, other):
        b = self._coerce(other)
        if b is NotImplemented:
            return NotImplemented
        return Fe(self.spec, self.spec.div(b, self.idx))

    def __pow__(self, e: int):
        return Fe(self.spec, self.spec.pow(self.idx, e))

    def __neg__(self):
        return Fe(self.spec, self.spec.neg(self.idx))

    def __eq__(self, other):
        if isinstance(other, Fe):
            return self.spec == other.spec and self.idx == other.idx
        if isinstance(other, int):
            return self.idx == self.spec.el(other).idx
        return NotImplemented

    def __hash__(self):
        return hash((self.spec.p, self.spec.k, self.idx))

    def __bool__(self):
        return self.idx != 0

    def multiplicative_order(self) -> int:
        if self.idx == 0:
            raise ValueError("zero has no multiplicative order")
        n = self.spec.q - 1
        order = n
        for ell in _prime_divisors(n):
            while order % ell == 0 and self.spec.pow(self.idx, order // ell) == self.spec.one_idx:
                order //= ell
        return order

    def __str__(self):
        return _fe_text(self.spec, self.idx)

    def __repr__(self):
        return "Fe(%r, %s)" % (self.spec, self)


@functools.lru_cache(maxsize=None)
def _fe_text(spec: FieldSpec, idx: int) -> str:
    """Element text: the index over a prime field, else "[c0,c1,...]"."""
    if spec.k == 1:
        return str(idx)
    return "[" + ",".join(str(c) for c in spec.idx_to_coeffs(idx)) + "]"


def field(p: int, k: int = 1) -> FieldSpec:
    """The field GF(p^k) with the deterministic modulus.

    The modulus is the lexicographically smallest monic irreducible
    polynomial of degree k over F_p, coefficient tuples ordered from the
    constant term up.  Idempotent: equal (p, k) give the identical spec.
    """
    return _field(p, k)


@functools.lru_cache(maxsize=None)
def _field(p: int, k: int) -> FieldSpec:
    if not _is_prime(p):
        raise ValueError("p must be prime, got %d" % p)
    if k < 1:
        raise ValueError("extension degree must be >= 1, got %d" % k)
    if k == 1:
        return FieldSpec(p, 1, (0, 1))
    from . import polyring  # deferred: polyring depends on gf

    prime = _field(p, 1)
    # candidates in lexicographic coefficient order; constant term 0 is
    # divisible by t, so start at c0 = 1
    for c0 in range(1, p):
        for rest in itertools.product(range(p), repeat=k - 1):
            low = (c0,) + rest
            if (sum(low) + 1) % p == 0:
                continue  # root at 1
            coeffs = low + (1,)
            if polyring.is_irreducible(polyring.Poly(prime, coeffs)):
                return FieldSpec(p, k, coeffs)
    raise MathCheckFailed("unreachable: irreducible polynomial of every degree exists")


def frobenius(a: Fe) -> Fe:
    """The Frobenius map a -> a^p (an automorphism fixing the prime subfield)."""
    return Fe(a.spec, a.spec.frob(a.idx))


@functools.lru_cache(maxsize=None)
def _smallest_primitive_idx(spec: FieldSpec) -> int:
    n = spec.q - 1
    primes = _prime_divisors(n)
    for a in range(1, spec.q):
        if all(spec.pow(a, n // ell) != spec.one_idx for ell in primes):
            return a
    raise MathCheckFailed("unreachable: the multiplicative group is cyclic")


def root_of_unity(spec: FieldSpec, d: int) -> Fe:
    """An element of multiplicative order exactly d.

    Deterministic: the (q-1)/d power of the smallest primitive element in
    canonical element order.  Requires d | q - 1.
    """
    if d < 1:
        raise ValueError("order must be positive")
    n = spec.q - 1
    if n % d != 0:
        raise ValueError(
            "order unavailable in this field: %d does not divide %d" % (d, n)
        )
    g = _smallest_primitive_idx(spec)
    return Fe(spec, spec.pow(g, n // d))


@functools.lru_cache(maxsize=None)
def _embedding_root_idx(src: FieldSpec, target: FieldSpec) -> int:
    """Smallest root of src.modulus inside target (packed index)."""
    from . import polyring  # deferred: polyring depends on gf

    lifted = polyring.Poly.from_coeffs(
        target, [target.el(c) for c in src.modulus]
    )
    roots = polyring.roots(lifted)
    if len(roots) != src.k:
        raise MathCheckFailed("modulus must split in the target field")
    return roots[0].idx


def embed(a: Fe, target: FieldSpec) -> Fe:
    """Ring-homomorphic embedding GF(p^k) -> GF(p^(k*m)).

    Deterministic: the source modulus root is the smallest one in the
    target's canonical element order.
    """
    src = a.spec
    if src.p != target.p:
        raise ValueError("incompatible characteristic: %d vs %d" % (src.p, target.p))
    if target.k % src.k != 0:
        raise ValueError(
            "no embedding: target degree %d is not a multiple of %d" % (target.k, src.k)
        )
    if src == target:
        return Fe(target, a.idx)
    if src.k == 1:
        return target.el(a.idx)
    root = _embedding_root_idx(src, target)
    acc = 0
    power = target.one_idx
    for c in a.coeffs:
        if c:
            acc = target.add(acc, target.mul(target.el(c).idx, power))
        power = target.mul(power, root)
    return Fe(target, acc)
