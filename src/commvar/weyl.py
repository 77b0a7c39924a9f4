"""Matrix pairs with Lie commutator equal to the identity in characteristic p.

Constructs the p x p generator pairs A = C(t^p - alpha^p), B = beta I plus
a superdiagonal, the block matrices X(a_1..a_r) = diag(A0 + a_i I) +
J_r (x) B0^(p-1) and Y = diag(B0, ..., B0) of size n = p*r (J_r the r x r
matrix of 1s on the superdiagonal, (x) the Kronecker product), the affine
family of all solutions Y' of [X, Y'] = I, the generic split pairs, and the
closed-form component-dimension arithmetic for the associated varieties.

Sign convention: the superdiagonal of B carries -1, -2, ..., -(p-1) so that
[A, B] = +I exactly for every p (with entries +1, ..., p-1 the commutator
is -I when p is odd; the two conventions differ by (A, B) -> (A, -B)).
"""

from __future__ import annotations

import functools
import random

from .errors import MathCheckFailed, Record
from .gf import Fe, FieldSpec, _is_prime
from .matgf import (
    AffineMatSpace,
    Mat,
    block_diag,
    commutator_solutions,
    companion,
    is_regular,
    kron,
    lie_commutator,
    poly_at_matrix,
    random_matrix,
    rank,
    solve_affine,
    vec,
)
from .polyring import Poly


class WeylPair(Record):
    """A p x p pair with [A, B] = I, A^p and B^p scalar."""

    p: int
    alpha: Fe
    beta: Fe
    a: Mat
    b: Mat

    def algebra_dimension(self) -> int:
        """Dimension of the unital algebra generated by {A, B}.

        The span of the products A^i B^j for 0 <= i, j < p; the Weyl
        relation rewrites every word into this span.
        """
        spec = self.a.spec
        p = self.p
        rows = []
        apow = Mat.identity(spec, p)
        for _ in range(p):
            cur = apow
            for _ in range(p):
                rows.append([x for row in cur.rows for x in row])
                cur = cur @ self.b
            apow = apow @ self.a
        return rank(Mat(spec, rows))

    def central_scalars(self) -> tuple[Fe, Fe]:
        """(alpha^p, beta^p): the scalars by which A^p and B^p act."""
        return self.alpha**self.p, self.beta**self.p


def weyl_pair(spec: FieldSpec, alpha, beta) -> WeylPair:
    """The standard p x p pair over a field of characteristic p.

    A = C(t^p - alpha^p) has 1s on the subdiagonal and alpha^p in the
    top-right corner; B is beta I plus the superdiagonal -1, -2, ..., -(p-1).
    """
    p = spec.p
    alpha = spec.el(alpha)
    beta = spec.el(beta)
    a = companion(Poly.x(spec) ** p - Poly.from_coeffs(spec, [alpha**p]))
    b = Mat.scalar(spec, p, beta) + Mat(
        spec, [[spec.el(-j).idx if j == i + 1 else 0 for j in range(p)] for i in range(p)]
    )
    pair = WeylPair(p, alpha, beta, a, b)
    ident = Mat.identity(spec, p)
    if lie_commutator(a, b) != ident:
        raise MathCheckFailed("construction violates [A,B] = I")
    if a**p != Mat.scalar(spec, p, alpha**p) or b**p != Mat.scalar(spec, p, beta**p):
        raise MathCheckFailed("construction violates the scalar action of A^p, B^p")
    return pair


@functools.lru_cache(maxsize=None)
def nilpotent_generators(spec: FieldSpec) -> tuple[Mat, Mat]:
    """(A0, B0): the alpha = beta = 0 pair; both regular nilpotent.  Built
    and checked once per field: Mat is immutable."""
    pair = weyl_pair(spec, 0, 0)
    return pair.a, pair.b


@functools.lru_cache(maxsize=None)
def _superdiagonal(spec: FieldSpec, r: int) -> Mat:
    """J_r: the r x r matrix of 1s on the superdiagonal, C(t^r) transposed."""
    return companion(Poly.x(spec) ** r).transpose()


class BlockPair(Record):
    """The n = p*r block pair: [X, Y] = I with X regular."""

    p: int
    r: int
    scalars: tuple[Fe, ...]
    x: Mat
    y: Mat


def build_block_pair(spec: FieldSpec, r: int, scalars=None) -> BlockPair:
    """X(a_1..a_r) = diag(A0 + a_i I) + J_r (x) B0^(p-1), with J_r the r x r
    matrix of 1s on the superdiagonal; Y = diag(B0, ..., B0).  Scalars
    default to zero."""
    p = spec.p
    if r < 1:
        raise ValueError("r must be positive")
    if scalars is None:
        scalars = [spec.zero] * r
    scalars = tuple(spec.el(s) for s in scalars)
    if len(scalars) != r:
        raise ValueError("expected %d scalars, got %d" % (r, len(scalars)))
    a0, b0 = nilpotent_generators(spec)
    x = block_diag(spec, [a0 + Mat.scalar(spec, p, s) for s in scalars]) + kron(
        _superdiagonal(spec, r), b0 ** (p - 1)
    )
    y = block_diag(spec, [b0] * r)
    if lie_commutator(x, y) != Mat.identity(spec, p * r):
        raise MathCheckFailed("construction violates [X,Y] = I")
    if r >= 2 and (x**p).is_zero:
        raise MathCheckFailed("X^p vanished; it must not for r >= 2")
    return BlockPair(p, r, scalars, x, y)


class KernelActionRecord(Record):
    """Outcome of the nilpotent two-block kernel computation."""

    p: int
    l_matrix: Mat
    multiplier: Fe
    multiplier_ok: bool
    xp_matches_l: bool
    xp_nonzero: bool

    @property
    def ok(self) -> bool:
        return self.multiplier_ok and self.xp_matches_l and self.xp_nonzero


def kernel_action_check(pair: BlockPair) -> KernelActionRecord:
    """For the r = 2 nilpotent pair: L = sum A0^k B0^(p-1) A0^(p-1-k) maps
    e_p to a nonzero multiple of itself, and X^p = J_2 (x) L != 0.

    The multiple is (-1)^(p-1) (p-1)!, which is -1 for every p by the
    Wilson congruence under this module's sign convention.
    """
    if pair.r != 2 or any(s != s.spec.zero for s in pair.scalars):
        raise ValueError("kernel action check requires r = 2 with zero scalars")
    spec = pair.x.spec
    p = pair.p
    a0, b0 = nilpotent_generators(spec)
    bp = b0 ** (p - 1)
    l = Mat.zeros(spec, p, p)
    for k in range(p):
        l = l + (a0**k) @ bp @ (a0 ** (p - 1 - k))
    e_last = tuple([0] * (p - 1) + [spec.one_idx])
    image = l.apply(e_last)
    mult = Fe(spec, image[p - 1])
    eigen_ok = bool(mult) and image[: p - 1] == tuple([0] * (p - 1))
    xp = pair.x**p
    return KernelActionRecord(
        p=p,
        l_matrix=l,
        multiplier=mult,
        multiplier_ok=eigen_ok and mult == spec.el(-1),
        xp_matches_l=xp == kron(_superdiagonal(spec, 2), l),
        xp_nonzero=not (xp.is_zero),
    )


class SolutionFamily(Record):
    """All solutions of [X, Y'] = I as {Y + f(X) : deg f <= n - 1}."""

    x: Mat
    y: Mat
    degree_bound: int
    space: AffineMatSpace

    @property
    def dim(self) -> int:
        return self.space.dim

    def member(self, f: Poly) -> Mat:
        if f.degree > self.degree_bound:
            raise ValueError("polynomial degree exceeds the family bound")
        return self.y + poly_at_matrix(f, self.x)

    def decompose(self, candidate: Mat):
        """Recover f with candidate = Y + f(X), or None if not in the family."""
        spec = self.x.spec
        n = self.x.n_rows
        cols = []
        cur = Mat.identity(spec, n)
        for _ in range(n):
            cols.append(vec(cur))
            cur = cur @ self.x
        system = Mat.from_cols(spec, cols)
        sol = solve_affine(system, vec(candidate - self.y))
        if sol is None:
            return None
        return Poly(spec, sol[0])

    def sample(self, count: int, seed: int = 0) -> list[Mat]:
        """Seeded members drawn from the affine solution space."""
        spec = self.x.spec
        rng = random.Random(seed)
        return [
            self.space.member([Fe(spec, rng.randrange(spec.q)) for _ in range(self.space.dim)])
            for _ in range(count)
        ]


def solution_family(x: Mat, y: Mat) -> SolutionFamily:
    """The family of all Y' with [X, Y'] = I, verified against the linear system.

    Checks that the affine space of solutions has dimension exactly n, that
    Y is a member, and that the kernel of ad_X is spanned by I, X, ..., X^(n-1).
    """
    spec = x.spec
    n = x.n_rows
    if lie_commutator(x, y) != Mat.identity(spec, n):
        raise ValueError("[X, Y] = I is required")
    if not is_regular(x):
        raise ValueError("X must be regular")
    space = commutator_solutions(x, Mat.identity(spec, n))
    if space is None or space.dim != n:
        raise MathCheckFailed("solution space of a regular X must have dimension n")
    if not space.contains(y):
        raise MathCheckFailed("Y must lie in the computed solution space")
    # kernel of ad_X equals the span of the powers of X
    powers = [Mat.identity(spec, n)]
    for _ in range(n - 1):
        powers.append(powers[-1] @ x)
    for power in powers:
        probe = space.particular + power  # particular + kernel member stays a solution
        if lie_commutator(x, probe) != Mat.identity(spec, n):
            raise MathCheckFailed("powers of X must centralize X")
        if not space.contains(probe):
            raise MathCheckFailed("X powers must lie in the kernel of ad_X")
    powers_space = AffineMatSpace(Mat.zeros(spec, n, n), tuple(powers))
    for b in space.basis:
        if not powers_space.contains(b):
            raise MathCheckFailed("kernel of ad_X must consist of polynomials in X")
    return SolutionFamily(x, y, n - 1, space)


def generic_split_pair(spec: FieldSpec, a_scalars, b_scalars) -> tuple[Mat, Mat]:
    """Block-diagonal pair A = diag(A0 + a_i I), B = diag(B0 + b_i I)."""
    a_scalars = [spec.el(s) for s in a_scalars]
    b_scalars = [spec.el(s) for s in b_scalars]
    if len(a_scalars) != len(b_scalars) or not a_scalars:
        raise ValueError("scalar lists must be nonempty and of equal length")
    a0, b0 = nilpotent_generators(spec)
    a = block_diag(spec, [a0 + Mat.scalar(spec, spec.p, s) for s in a_scalars])
    b = block_diag(spec, [b0 + Mat.scalar(spec, spec.p, s) for s in b_scalars])
    if lie_commutator(a, b) != Mat.identity(spec, a.n_rows):
        raise MathCheckFailed("construction violates [A,B] = I")
    return a, b


class ComponentDims(Record):
    """Closed-form dimensions of the commutator varieties at n = p*r."""

    p: int
    n: int
    r: int
    dim_scalar_commutator: int  # pairs with [A,B] = I
    dim_commuting: int  # commuting pairs of n x n matrices
    pgl_components: tuple[int, int]
    sl_dimension: int
    psl_times_k_components: tuple[int, int]
    psl_times_k_applicable: bool
    equal_dimension_exception: bool  # the (n, p) = (2, 2) coincidence

    def as_dict(self) -> dict:
        return {
            "p": self.p,
            "n": self.n,
            "r": self.r,
            "dim_C": self.dim_scalar_commutator,
            "dim_U1": self.dim_commuting,
            "dims_pgl": list(self.pgl_components),
            "dim_sl": self.sl_dimension,
            "dims_psl_times_k": list(self.psl_times_k_components),
            "psl_times_k_applicable": self.psl_times_k_applicable,
            "equal_dimension_exception": self.equal_dimension_exception,
        }


def component_dimensions(p: int, n: int) -> ComponentDims:
    """Dimension arithmetic for the variety families at n = p*r."""
    if not _is_prime(p):
        raise ValueError("p must be prime")
    if n < 1:
        raise ValueError("n must be positive")
    if n % p != 0:
        raise ValueError("p must divide n")
    r = n // p
    return ComponentDims(
        p=p,
        n=n,
        r=r,
        dim_scalar_commutator=n * n + r,
        dim_commuting=n * n + n,
        pgl_components=(n * n + n - 2, n * n + r - 1),
        sl_dimension=n * n + n - 2,
        psl_times_k_components=(n * n + r - 1, n * n + n - 4),
        psl_times_k_applicable=(n % (p * p) == 0),
        equal_dimension_exception=((n, p) == (2, 2)),
    )


def sample_solution_pairs(spec: FieldSpec, r: int, count: int, seed: int = 0):
    """Seeded conjugates of family members: pairs (A, B) with [A, B] = I.

    Draws random scalars for X, a random polynomial member of the solution
    family, and conjugates by a random invertible matrix.
    """
    rng = random.Random(seed)
    p = spec.p
    n = p * r
    out = []
    for _ in range(count):
        scalars = [Fe(spec, rng.randrange(spec.q)) for _ in range(r)]
        pair = build_block_pair(spec, r, scalars)
        f = Poly(spec, tuple(rng.randrange(spec.q) for _ in range(n)))
        y2 = pair.y + poly_at_matrix(f, pair.x)
        g = random_matrix(spec, n, rng, invertible=True)
        gi = g.inverse()
        out.append((g @ pair.x @ gi, g @ y2 @ gi))
    return out
