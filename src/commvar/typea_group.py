"""Invertible matrix pairs whose group commutator is a central root of unity.

Builds the canonical block form D = diag(A, zeta A, ..., zeta^(d-1) A), the
cyclic block permutation rho with [D, rho] = zeta I, tests whether a matrix
is conjugate to its zeta-multiple, and describes the full solution set of
[x, y] = zeta I over a fixed x as a centralizer coset.

Conjugacy testing works with invariant factors over the base field; the
solution coset over x, its witness and its size come from one rational
canonical form of x.  No eigenvalue data in extensions is needed for any
of these operations.
"""

from __future__ import annotations

from . import census
from .errors import MathCheckFailed, Record
from .gf import Fe, FieldSpec, root_of_unity
from .matgf import (
    Mat,
    _primary_data,
    block_diag,
    group_commutator,
    invariant_factors,
    rcf_transform,
)


class ZetaInstance(Record):
    """Size n, order d | n, and a root of unity zeta of order exactly d."""

    spec: FieldSpec
    n: int
    d: int
    zeta: Fe


def zeta_instance(spec: FieldSpec, n: int, d: int) -> ZetaInstance:
    """Instance constructor; enforces the determinant obstruction d | n."""
    if n < 1 or d < 1:
        raise ValueError("n and d must be positive")
    if n % d != 0:
        raise ValueError("d must divide n (zeta^n = det of a commutator = 1)")
    zeta = root_of_unity(spec, d)
    return ZetaInstance(spec, n, d, zeta)


def build_d_matrix(inst: ZetaInstance, a: Mat) -> Mat:
    """Block diagonal diag(A, zeta A, ..., zeta^(d-1) A) for invertible A."""
    m = inst.n // inst.d
    if a.spec != inst.spec or a.n_rows != m or a.n_cols != m:
        raise ValueError("block seed must be %d x %d over %r" % (m, m, inst.spec))
    if not a.is_invertible():
        raise ValueError("singular block seed")
    return block_diag(inst.spec, [a * inst.zeta**i for i in range(inst.d)])


def build_rho(spec: FieldSpec, n: int, d: int) -> Mat:
    """The permutation matrix with identity blocks on the first subdiagonal
    and in the top-right corner; rho^d = I."""
    if n % d != 0:
        raise ValueError("d must divide n")
    m = n // d
    one = spec.one_idx
    rows = [[0] * n for _ in range(n)]
    for blk in range(d):
        src = blk * m  # block column
        dst = ((blk + 1) % d) * m  # block row below it, wrapping to the top
        for i in range(m):
            rows[dst + i][src + i] = one
    return Mat(spec, rows)


class CentralCommutatorRecord(Record):
    d_matrix: Mat
    rho: Mat
    commutator: Mat
    expected: Mat
    rho_order_ok: bool

    @property
    def ok(self) -> bool:
        return self.commutator == self.expected and self.rho_order_ok


def verify_central_commutator(inst: ZetaInstance, a: Mat) -> CentralCommutatorRecord:
    """[D, rho] = zeta I holds for every invertible block seed A."""
    d_mat = build_d_matrix(inst, a)
    rho = build_rho(inst.spec, inst.n, inst.d)
    comm = group_commutator(d_mat, rho)
    expected = Mat.scalar(inst.spec, inst.n, inst.zeta)
    rho_ok = rho**inst.d == Mat.identity(inst.spec, inst.n)
    return CentralCommutatorRecord(d_mat, rho, comm, expected, rho_ok)


def is_conjugate_to_zeta_x(x: Mat, zeta) -> bool:
    """True iff x and zeta x share their invariant factors: those of zeta x
    are the twists of x's, so the twist must fix each of them."""
    if not x.is_invertible():
        raise ValueError("x must be invertible")
    zeta = x.spec.el(zeta)
    return all(census.twist_poly(f, zeta) == f for f in invariant_factors(x))


class SolutionCoset(Record):
    """The solutions of [x, y] = zeta I: the coset C_GL(x) . witness."""

    x: Mat
    zeta: Fe
    witness: Mat
    centralizer_order: int

    @property
    def count(self) -> int:
        """Number of solutions over the finite field."""
        return self.centralizer_order

    def contains(self, y: Mat) -> bool:
        if y.spec != self.x.spec or y.n_rows != self.x.n_rows:
            return False
        # y solves  y^-1 x y = zeta x  iff  x y = y (zeta x), y invertible
        return y.is_invertible() and self.x @ y == y @ (self.x * self.zeta)


def solution_set_for_x(x: Mat, zeta):
    """Solution set of [x, y] = zeta I, or None when empty.

    One rational canonical form P^-1 x P = C(d_1) + ... + C(d_s) answers
    everything.  zeta C(d) = S C(d') S^-1 with S = diag(1, zeta, ...,
    zeta^(deg d - 1)) and d' = twist_poly(d, zeta), so x ~ zeta x iff the
    twist fixes every d_i, and then y = P S^-1 P^-1, with S the direct sum
    over the blocks, carries x onto zeta x.  The full set is the
    centralizer coset C_GL(x) . y, of size |C_GL(x)|, read off the primary
    data of the same factors.
    """
    spec = x.spec
    zeta = spec.el(zeta)
    if not zeta:
        raise ValueError("zeta must be a unit")
    if not x.is_invertible():
        raise ValueError("x must be invertible")
    p, factors = rcf_transform(x)
    if any(census.twist_poly(f, zeta) != f for f in factors):
        return None
    s_inv = block_diag(
        spec, [Mat.scalar(spec, 1, zeta**-i) for f in factors for i in range(f.degree)]
    )
    witness = p @ s_inv @ p.inverse()
    order = census.centralizer_order_from_primary(_primary_data(factors), spec.q)
    coset = SolutionCoset(x, zeta, witness, order)
    if group_commutator(x, witness) != Mat.scalar(spec, x.n_rows, zeta):
        raise MathCheckFailed("transport witness fails the commutator identity")
    return coset


class GroupDims(Record):
    n: int
    d: int
    dim_pairs: int  # pairs (x, y) with [x, y] = zeta I
    dim_twisted_classes: int  # {x : x conjugate to zeta x}

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "d": self.d,
            "dim_V": self.dim_pairs,
            "dim_W": self.dim_twisted_classes,
        }


def group_dims(n: int, d: int) -> GroupDims:
    """Closed-form dimensions n^2 + n/d and n^2 + n/d - n."""
    if n < 1 or d < 1:
        raise ValueError("n and d must be positive")
    if n % d != 0:
        raise ValueError("d must divide n")
    return GroupDims(n, d, n * n + n // d, n * n + n // d - n)
