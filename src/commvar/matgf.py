"""Exact dense matrix algebra over a field instance.

Covers commutators (Lie and group), row reduction and linear solving (one
forward elimination behind det, rank, inverse, kernels and solves; one RREF
per solve), the commutator linear system ad_A, and the similarity
invariants read off one Smith normal form of tI - A over F_q[t] (invariant
factors; the minimal polynomial is the last, regularity means there is just
one).  Tracking that SNF's row transform gives the rational canonical form
with its transport (rcf_transform), from which typea_group's zeta-solution
witnesses and regular commuting elements are both built.  Only Jordan type
uses a splitting field.

Matrix text format: rows separated by ';', entries by ',', entries in
element text form, e.g. "0,0;1,0".
"""

from __future__ import annotations

import math

from . import polyring
from .errors import LimitExceeded, MathCheckFailed, Record
from .gf import Fe, FieldSpec, _power, embed, field
from .polyring import (
    Poly,
    padd,
    pdivmod,
    pgcd,
    pmul,
    pnormalize,
    pscale,
    psub,
    split_tokens,
)

MAX_SPLITTING_DEGREE = 32


class Mat:
    """Immutable dense matrix with entries in a fixed field."""

    __slots__ = ("spec", "rows")

    def __init__(self, spec: FieldSpec, rows):
        self.spec = spec
        self.rows = tuple(tuple(r) for r in rows)

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_rows(cls, spec: FieldSpec, rows) -> "Mat":
        return cls(spec, [[spec.el(x).idx for x in row] for row in rows])

    @classmethod
    def zeros(cls, spec: FieldSpec, n_rows: int, n_cols: int) -> "Mat":
        return cls(spec, [[0] * n_cols for _ in range(n_rows)])

    @classmethod
    def identity(cls, spec: FieldSpec, n: int) -> "Mat":
        one = spec.one_idx
        return cls(spec, [[one if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def scalar(cls, spec: FieldSpec, n: int, c) -> "Mat":
        ci = spec.el(c).idx
        return cls(spec, [[ci if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def from_cols(cls, spec: FieldSpec, cols) -> "Mat":
        n = len(cols[0])
        return cls(spec, [[col[i] for col in cols] for i in range(n)])

    @classmethod
    def from_text(cls, spec: FieldSpec, text: str) -> "Mat":
        rows = []
        for row_text in text.strip().split(";"):
            rows.append([spec.parse(tok).idx for tok in split_tokens(row_text)])
        if len({len(r) for r in rows}) != 1:
            raise ValueError("ragged matrix text")
        return cls(spec, rows)

    def to_text(self) -> str:
        return ";".join(
            ",".join(str(Fe(self.spec, x)) for x in row) for row in self.rows
        )

    # -- shape and access ----------------------------------------------------

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @property
    def n_cols(self) -> int:
        return len(self.rows[0])

    @property
    def is_square(self) -> bool:
        return self.n_rows == self.n_cols

    def at(self, i: int, j: int) -> Fe:
        return Fe(self.spec, self.rows[i][j])

    def col(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.rows)

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other: "Mat"):
        if other.spec != self.spec:
            raise ValueError("mismatched fields")

    def _entrywise(self, other: "Mat", op: int) -> "Mat":
        """self and other combined entry by entry with spec._tables()[op]."""
        self._check(other)
        if (self.n_rows, self.n_cols) != (other.n_rows, other.n_cols):
            raise ValueError("shape mismatch")
        t = self.spec._tables()[op]
        return Mat(
            self.spec, [[t[a][b] for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)]
        )

    def __add__(self, other: "Mat") -> "Mat":
        return self._entrywise(other, 0)

    def __sub__(self, other: "Mat") -> "Mat":
        return self._entrywise(other, 1)

    def __neg__(self) -> "Mat":
        neg = self.spec.neg
        return Mat(self.spec, [[neg(a) for a in row] for row in self.rows])

    def __matmul__(self, other: "Mat") -> "Mat":
        self._check(other)
        if self.n_cols != other.n_rows:
            raise ValueError("shape mismatch")
        # column j of the product is self applied to column j of other
        return Mat(self.spec, zip(*[self.apply(col) for col in zip(*other.rows)]))

    def __mul__(self, other) -> "Mat":
        # scalar multiplication
        mc = self.spec._tables()[2][self.spec.el(other).idx]
        return Mat(self.spec, [[mc[a] for a in row] for row in self.rows])

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "Mat":
        if not self.is_square:
            raise ValueError("power of a non-square matrix")
        if e < 0:
            return self.inverse() ** (-e)
        return _power(self, e, Mat.__matmul__, Mat.identity(self.spec, self.n_rows))

    def apply(self, v) -> tuple[int, ...]:
        """Matrix-vector product on a packed index vector."""
        add, _, mul = self.spec._tables()
        # products by the entries of v, column by column, summed per row
        cols = [(mul[b], j) for j, b in enumerate(v) if b]
        out = []
        for row in self.rows:
            acc = 0
            for mb, j in cols:
                acc = add[acc][mb[row[j]]]
            out.append(acc)
        return tuple(out)

    def transpose(self) -> "Mat":
        return Mat(self.spec, zip(*self.rows))

    def trace(self) -> Fe:
        add = self.spec._tables()[0]
        acc = 0
        for i in range(self.n_rows):
            acc = add[acc][self.rows[i][i]]
        return Fe(self.spec, acc)

    @property
    def is_zero(self) -> bool:
        return all(all(a == 0 for a in row) for row in self.rows)

    def __eq__(self, other):
        return (
            isinstance(other, Mat)
            and self.spec == other.spec
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.spec.p, self.spec.k, self.rows))

    def __repr__(self):
        return "Mat(%r, %s)" % (self.spec, self.to_text())

    def det(self) -> Fe:
        if not self.is_square:
            raise ValueError("determinant of a non-square matrix")
        return Fe(self.spec, _echelon_rows(self.spec, [list(r) for r in self.rows])[3])

    def inverse(self) -> "Mat":
        if not self.is_square:
            raise ValueError("inverse of a non-square matrix")
        n = self.n_rows
        one = self.spec.one_idx
        aug = [
            list(row) + [one if i == j else 0 for j in range(n)]
            for i, row in enumerate(self.rows)
        ]
        reduced, _, pivots = _rref_rows(self.spec, aug)
        if pivots[:n] != tuple(range(n)):
            raise ValueError("singular matrix")
        return Mat(self.spec, [row[n:] for row in reduced])

    def is_invertible(self) -> bool:
        return self.is_square and bool(self.det())


def block_diag(spec: FieldSpec, blocks) -> Mat:
    """Direct sum of square blocks."""
    n = sum(b.n_rows for b in blocks)
    rows, off = [], 0
    for b in blocks:
        rows += [(0,) * off + row + (0,) * (n - off - b.n_cols) for row in b.rows]
        off += b.n_rows
    return Mat(spec, rows)


def companion(f: Poly) -> Mat:
    """Companion matrix of a monic polynomial (subdiagonal 1s, last column)."""
    if not f.is_monic or f.degree < 1:
        raise ValueError("companion matrix requires a monic polynomial of degree >= 1")
    spec = f.spec
    m = f.degree
    one = spec.one_idx
    rows = [[0] * m for _ in range(m)]
    for i in range(1, m):
        rows[i][i - 1] = one
    for i in range(m):
        rows[i][m - 1] = spec.neg(f.coeffs[i])
    return Mat(spec, rows)


def kron(a: Mat, b: Mat) -> Mat:
    """Kronecker product: the block matrix (a_ij b)."""
    mul = a.spec._tables()[2]
    return Mat(a.spec, [[mul[x][y] for x in ra for y in rb] for ra in a.rows for rb in b.rows])


def random_matrix(spec: FieldSpec, n: int, rng, invertible: bool = False) -> Mat:
    """An n x n matrix of rng.randrange(q) entries drawn in row-major order;
    with invertible, redrawn until it is invertible."""
    while True:
        m = Mat(spec, [[rng.randrange(spec.q) for _ in range(n)] for _ in range(n)])
        if not invertible or m.is_invertible():
            return m


# -- commutators -------------------------------------------------------------

def lie_commutator(a: Mat, b: Mat) -> Mat:
    """AB - BA; its trace is always zero."""
    if not (a.is_square and b.is_square and a.n_rows == b.n_rows):
        raise ValueError("shape mismatch")
    return a @ b - b @ a


def group_commutator(x: Mat, y: Mat) -> Mat:
    """x^-1 y^-1 x y; the determinant of the result is 1."""
    return x.inverse() @ y.inverse() @ x @ y


# -- row reduction and linear solving ----------------------------------------

def _echelon_rows(spec: FieldSpec, rows):
    """In-place row echelon form of a list of row lists; returns
    (rows, rank, pivots, det).

    Forward elimination only: each pivot is scaled to 1 and cleared below,
    and the entries above it are left as they are.  Pivoting is
    deterministic: columns scanned left to right, first row with a nonzero
    entry wins.  For square input det is the determinant: the product of
    the pivots before scaling, negated once per row swap, and 0 below full
    rank.
    """
    n_rows = len(rows)
    n_cols = len(rows[0]) if n_rows else 0
    _, sub, mul = spec._tables()
    one = spec.one_idx
    pivots = []
    det = one
    r = 0
    for c in range(n_cols):
        if r == n_rows:
            break
        piv = next((i for i in range(r, n_rows) if rows[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            det = sub[0][det]  # -det
        lead = rows[r][c]
        if lead != one:
            det = mul[det][lead]
            scale = mul[spec.inv(lead)]
            rows[r] = [scale[a] for a in rows[r]]
        prow = rows[r]
        for i in range(r + 1, n_rows):
            f = rows[i][c]
            if f:
                mf = mul[f]
                rows[i] = [sub[a][mf[b]] for a, b in zip(rows[i], prow)]
        pivots.append(c)
        r += 1
    return rows, r, tuple(pivots), det if r == n_rows else 0


def _rref_rows(spec: FieldSpec, rows):
    """In-place RREF of a list of row lists; returns (rows, rank, pivots).

    The row echelon form with every pivot column then cleared above its
    pivot, so the pivots are those of _echelon_rows.
    """
    rows, _, pivots, _ = _echelon_rows(spec, rows)
    _, sub, mul = spec._tables()
    for r, c in enumerate(pivots):
        prow = rows[r]
        for i in range(r):
            f = rows[i][c]
            if f:
                mf = mul[f]
                rows[i] = [sub[a][mf[b]] for a, b in zip(rows[i], prow)]
    return rows, len(pivots), pivots


class RrefResult(Record):
    matrix: Mat
    rank: int
    pivots: tuple[int, ...]


def rref(m: Mat) -> RrefResult:
    rows, rank, pivots = _rref_rows(m.spec, [list(r) for r in m.rows])
    return RrefResult(Mat(m.spec, rows), rank, pivots)


def rank(m: Mat) -> int:
    return _echelon_rows(m.spec, [list(r) for r in m.rows])[1]


def _kernel_from_rref(spec: FieldSpec, rows, pivots, n_cols: int):
    """Right-kernel basis of the first n_cols columns of an RREF, one vector
    per free column in column order."""
    pivot_set = set(pivots)
    basis = []
    for free in range(n_cols):
        if free in pivot_set:
            continue
        v = [0] * n_cols
        v[free] = spec.one_idx
        for r, pc in enumerate(pivots):
            v[pc] = spec.neg(rows[r][free])
        basis.append(tuple(v))
    return basis


def kernel_basis(m: Mat) -> list[tuple[int, ...]]:
    """Basis of the right kernel as packed index vectors (deterministic)."""
    rows, _, pivots = _rref_rows(m.spec, [list(r) for r in m.rows])
    return _kernel_from_rref(m.spec, rows, pivots, m.n_cols)


def solve_affine(m: Mat, b):
    """Full solution set of m x = b.

    Returns None when inconsistent, else (particular, kernel_basis) with
    packed index vectors, both read off one RREF of the augmented matrix
    [m | b]: its first n columns are the RREF of m.
    """
    spec = m.spec
    b = [spec.el(x).idx if not isinstance(x, int) else x for x in b]
    if len(b) != m.n_rows:
        raise ValueError("shape mismatch")
    aug = [list(row) + [bv] for row, bv in zip(m.rows, b)]
    rows, _, pivots = _rref_rows(spec, aug)
    n_cols = m.n_cols
    if pivots and pivots[-1] == n_cols:
        return None
    particular = [0] * n_cols
    for r, pc in enumerate(pivots):
        particular[pc] = rows[r][n_cols]
    return tuple(particular), _kernel_from_rref(spec, rows, pivots, n_cols)


# -- the commutator linear system --------------------------------------------

def ad_matrix(a: Mat, b: Mat | None = None) -> Mat:
    """Matrix of B -> aB - Bb (b = a by default: ad_a) acting on row-major
    vectorized matrices."""
    if not a.is_square:
        raise ValueError("ad of a non-square matrix")
    spec = a.spec
    n = a.n_rows
    b = a if b is None else b
    if (b.n_rows, b.n_cols) != (n, n):
        raise ValueError("shape mismatch")
    sub = spec._tables()[1]
    rows = []
    for i in range(n):
        for j in range(n):
            row = [0] * (n * n)
            for k in range(n):
                row[k * n + j] = a.rows[i][k]
            for l in range(n):
                row[i * n + l] = sub[row[i * n + l]][b.rows[l][j]]
            rows.append(row)
    return Mat(spec, rows)


def vec(m: Mat) -> tuple[int, ...]:
    """Row-major vectorization, the coordinates ad_matrix acts on."""
    return tuple(x for row in m.rows for x in row)


def _unvec(spec: FieldSpec, v, n: int) -> Mat:
    return Mat(spec, [v[i * n : (i + 1) * n] for i in range(n)])


class AffineMatSpace(Record):
    """An affine space of matrices: particular + span(basis)."""

    particular: Mat
    basis: tuple[Mat, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)

    def member(self, coeffs) -> Mat:
        spec = self.particular.spec
        out = self.particular
        for c, b in zip(coeffs, self.basis):
            out = out + b * spec.el(c)
        return out

    def contains(self, m: Mat) -> bool:
        diff = m - self.particular
        if not self.basis:
            return diff.is_zero
        spec = m.spec
        cols = Mat.from_cols(spec, [vec(b) for b in self.basis])
        return solve_affine(cols, vec(diff)) is not None


def commutator_solutions(a: Mat, c: Mat):
    """The affine space of B with AB - BA = C, or None if inconsistent."""
    if not (a.is_square and c.is_square and a.n_rows == c.n_rows):
        raise ValueError("shape mismatch")
    n = a.n_rows
    sol = solve_affine(ad_matrix(a), vec(c))
    if sol is None:
        return None
    particular, kernel = sol
    return AffineMatSpace(
        _unvec(a.spec, particular, n),
        tuple(_unvec(a.spec, v, n) for v in kernel),
    )


def centralizer_dimension(a: Mat, *others: Mat) -> int:
    """dim of {Z : MZ = ZM for a and every M in others}: n^2 minus the rank
    of the stacked ad matrices."""
    if any((m.spec, m.n_rows) != (a.spec, a.n_rows) for m in others):
        raise ValueError("mismatched fields or shapes")
    return a.n_rows**2 - rank(Mat(a.spec, [r for m in (a, *others) for r in ad_matrix(m).rows]))


# -- Smith normal form over F_q[t], invariant factors, transports -------------

class InvariantFactors(Record):
    """Nontrivial invariant factors d_1 | d_2 | ... | d_s of tI - A."""

    factors: tuple[Poly, ...]

    @property
    def minimal(self) -> Poly:
        return self.factors[-1]

    def __iter__(self):
        return iter(self.factors)


def _char_matrix(a: Mat):
    """tI - A as a polynomial matrix (entries are coefficient tuples)."""
    if not a.is_square:
        raise ValueError("invariant factors of a non-square matrix")
    spec = a.spec
    n = a.n_rows
    neg, one = spec.neg, spec.one_idx
    m = []
    for i in range(n):
        row = []
        for j in range(n):
            c0 = neg(a.rows[i][j])
            if i == j:
                row.append(pnormalize((c0, one)))
            else:
                row.append(pnormalize((c0,)))
        m.append(row)
    return m


def _snf_diag(spec: FieldSpec, m, track: bool):
    """Smith normal form of polynomial matrix m (mutated).

    Returns (diag, uinv) where diag are monic diagonal entries in
    divisibility order and uinv is the inverse of the product of the row
    transforms (or None), so that column i of uinv generates the i-th
    cyclic summand of the cokernel.
    """
    n = len(m)
    one = (spec.one_idx,)
    uinv = None
    if track:
        uinv = [[one if i == j else () for j in range(n)] for i in range(n)]

    def uinv_col_addmul(dst: int, src: int, q):
        # row_src -= q * row_dst on m  <=>  col_dst += q * col_src on uinv
        for r in range(n):
            x = uinv[r][src]
            if x and q:
                uinv[r][dst] = padd(spec, uinv[r][dst], pmul(spec, q, x))

    for d in range(n):
        while True:
            # min-degree nonzero entry in the trailing submatrix
            best = None
            for i in range(d, n):
                for j in range(d, n):
                    e = m[i][j]
                    if e and (best is None or len(e) < len(m[best[0]][best[1]])):
                        best = (i, j)
            if best is None:
                return _snf_finish(spec, m, uinv, d)
            bi, bj = best
            if bi != d:
                m[bi], m[d] = m[d], m[bi]
                if track:
                    for r in range(n):
                        uinv[r][bi], uinv[r][d] = uinv[r][d], uinv[r][bi]
            if bj != d:
                for row in m:
                    row[bj], row[d] = row[d], row[bj]
            pivot = m[d][d]
            dirty = False
            for i in range(d + 1, n):
                if m[i][d]:
                    q, r = pdivmod(spec, m[i][d], pivot)
                    if q:
                        for jj in range(d, n):
                            if m[d][jj]:
                                m[i][jj] = psub(spec, m[i][jj], pmul(spec, q, m[d][jj]))
                        if track:
                            uinv_col_addmul(d, i, q)
                    if r:
                        dirty = True
            for j in range(d + 1, n):
                if m[d][j]:
                    q, r = pdivmod(spec, m[d][j], pivot)
                    if q:
                        for ii in range(d, n):
                            if m[ii][d]:
                                m[ii][j] = psub(spec, m[ii][j], pmul(spec, q, m[ii][d]))
                    if r:
                        dirty = True
            if dirty:
                continue
            # row d and column d are clear; enforce divisibility of the rest
            bad = None
            for i in range(d + 1, n):
                for j in range(d + 1, n):
                    if m[i][j] and pdivmod(spec, m[i][j], pivot)[1]:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            # fold the offending row into the pivot row and reduce again
            for jj in range(d, n):
                if m[bad][jj]:
                    m[d][jj] = padd(spec, m[d][jj], m[bad][jj])
            if track:
                # row_d += row_bad  <=>  col_bad -= col_d on uinv
                for r in range(n):
                    x = uinv[r][d]
                    if x:
                        uinv[r][bad] = psub(spec, uinv[r][bad], x)
    return _snf_finish(spec, m, uinv, n)


def _snf_finish(spec: FieldSpec, m, uinv, filled: int):
    n = len(m)
    diag = []
    for i in range(n):
        e = m[i][i] if i < filled else ()
        if e and e[-1] != spec.one_idx:
            lead_inv = spec.inv(e[-1])
            e = pscale(spec, e, lead_inv)
            if uinv is not None:
                # scaling row i by u  <=>  scaling col i of uinv by u^-1
                lead = spec.inv(lead_inv)
                for r in range(n):
                    if uinv[r][i]:
                        uinv[r][i] = pscale(spec, uinv[r][i], lead)
        diag.append(e)
    return diag, uinv


def invariant_factors(a: Mat) -> InvariantFactors:
    """Invariant factors of A from the SNF of tI - A; similarity invariant."""
    diag, _ = _snf_diag(a.spec, _char_matrix(a), track=False)
    facs = [Poly(a.spec, e) for e in diag if len(e) > 1]
    if not facs:
        raise MathCheckFailed("tI - A always has a nontrivial factor")
    return InvariantFactors(tuple(facs))


def min_poly(a: Mat) -> Poly:
    """Monic minimal polynomial: the last invariant factor of tI - A."""
    return invariant_factors(a).minimal


def rcf_transform(a: Mat):
    """(P, factors) with P^-1 A P the direct sum of companion(d_i).

    One tracked SNF of tI - A: column i of the row transform's inverse,
    evaluated at A, generates the i-th cyclic summand, annihilated by d_i,
    and P stacks the Krylov bases g, Ag, ... of these generators.
    """
    spec = a.spec
    n = a.n_rows
    diag, uinv = _snf_diag(spec, _char_matrix(a), track=True)
    add = spec._tables()[0]
    cols = []
    factors = []
    for i, e in enumerate(diag):
        if len(e) <= 1:
            continue
        factors.append(Poly(spec, e))
        # evaluate column i of uinv at A (Horner on vector coefficients)
        col = [uinv[r][i] for r in range(n)]
        maxdeg = max((len(c) - 1 for c in col if c), default=0)
        v = tuple([0] * n)
        for deg in range(maxdeg, -1, -1):
            v = a.apply(v)
            v = tuple(
                add[x][col[r][deg] if len(col[r]) > deg else 0]
                for r, x in enumerate(v)
            )
        for _ in range(len(e) - 1):
            cols.append(v)
            v = a.apply(v)
    return Mat.from_cols(spec, cols), factors


def primary_data(a: Mat):
    """Primary decomposition data: sorted tuple of (irreducible, partition).

    The partition entries are the multiplicities of the irreducible in the
    invariant factors, descending.
    """
    return _primary_data(invariant_factors(a).factors)


def _primary_data(factors):
    """primary_data from the invariant factors d_1 | ... | d_s themselves."""
    out = []
    for f, _ in polyring.factor(factors[-1]):
        parts = []
        for d in factors:
            mult = 0
            while True:
                q, r = divmod(d, f)
                if not r.is_zero:
                    break
                d = q
                mult += 1
            if mult:
                parts.append(mult)
        parts.sort(reverse=True)
        out.append((f, tuple(parts)))
    out.sort(key=lambda fp: (fp[0].degree, fp[0].coeffs))
    return tuple(out)


# -- Jordan type over a splitting field ----------------------------------------

class JordanType(Record):
    """Eigenvalues in a stated splitting field with descending block sizes."""

    spec: FieldSpec  # splitting field
    entries: tuple  # of (Fe eigenvalue, tuple block sizes descending)

    def all_sizes(self):
        return [s for _, sizes in self.entries for s in sizes]

    def total(self) -> int:
        return sum(self.all_sizes())


def embed_mat(a: Mat, target: FieldSpec) -> Mat:
    return Mat(target, [[embed(Fe(a.spec, x), target).idx for x in row] for row in a.rows])


def poly_at_matrix(f: Poly, a: Mat) -> Mat:
    """Evaluate a polynomial at a square matrix (Horner)."""
    if f.spec != a.spec:
        raise ValueError("mismatched fields")
    n = a.n_rows
    out = Mat.zeros(a.spec, n, n)
    for c in reversed(f.coeffs):
        out = out @ a + Mat.scalar(a.spec, n, Fe(a.spec, c))
    return out


def splitting_field(a: Mat):
    """The splitting field of char(A) and the irreducible factor data."""
    data = primary_data(a)
    k = a.spec.k * math.lcm(1, *(f.degree for f, _ in data))
    if k > MAX_SPLITTING_DEGREE:
        raise LimitExceeded(
            "splitting field degree %d exceeds limit %d" % (k, MAX_SPLITTING_DEGREE)
        )
    return field(a.spec.p, k), data


def jordan_type(a: Mat) -> JordanType:
    """Jordan type over the splitting field of the characteristic polynomial.

    Per eigenvalue, the block-size partition counts blocks of size >= j as
    rank((A - xI)^(j-1)) - rank((A - xI)^j); it is read off here from the
    multiplicities of the eigenvalue's irreducible in the invariant factors,
    which give the same partition.
    """
    ext, data = splitting_field(a)
    entries = []
    for f, parts in data:
        lifted = Poly.from_coeffs(
            ext, [embed(Fe(a.spec, c), ext) for c in f.coeffs]
        )
        for root in polyring.roots(lifted):
            entries.append((root, parts))
    entries.sort(key=lambda e: e[0].idx)
    return JordanType(ext, tuple(entries))


# -- regularity ----------------------------------------------------------------

def is_regular(a: Mat) -> bool:
    """True iff tI - A has exactly one invariant factor, that is, the
    minimal polynomial has degree n.

    Equivalently the centralizer has dimension n; the equivalence is
    exercised by the verification suites.
    """
    return len(invariant_factors(a).factors) == 1


def regular_commuting(a: Mat) -> Mat:
    """A regular matrix commuting with A, over the first field of degree
    k, 2k, ... over F_p (A's field has degree k) where the greedy pick below
    finds its s shifts.

    Construction: rcf_transform gives P with P^-1 A P = C_1 + ... + C_s,
    C_i = companion(d_i), d_1 | ... | d_s.  Each C_i becomes C_i + mu_i I,
    a polynomial in C_i, so R = P (sum of the shifted blocks) P^-1 commutes
    with A.  The mu_i are picked greedily in canonical element order with
    gcd(d_s(t), d_s(t + mu_i - mu_j)) = 1 for every pair.  Block i is cyclic
    with minimal polynomial d_i(t - mu_i), which divides d_s(t - mu_i), so
    the blocks' minimal polynomials are pairwise coprime; a direct sum of
    cyclic blocks with pairwise coprime minimal polynomials is cyclic, so R
    is regular.  A regular A is returned as it is (s = 1, mu_1 = 0).
    """
    p, factors = rcf_transform(a)
    spec = a.spec
    shifts, k = [], 0
    while len(shifts) < len(factors):
        k += spec.k
        ext = field(spec.p, k)
        lifted = [Poly(ext, [embed(Fe(spec, c), ext).idx for c in f.coeffs]) for f in factors]
        top = lifted[-1].coeffs
        shifts = []
        for mu in range(ext.q):
            if all(
                len(pgcd(ext, top, _taylor_shift(ext, top, ext.sub(mu, nu)))) == 1
                for nu in shifts
            ):
                shifts.append(mu)
                if len(shifts) == len(factors):
                    break
    blocks = [
        companion(f) + Mat.scalar(ext, f.degree, Fe(ext, mu))
        for f, mu in zip(lifted, shifts)
    ]
    p = embed_mat(p, ext)
    return p @ block_diag(ext, blocks) @ p.inverse()


def _taylor_shift(spec: FieldSpec, f, c: int):
    """f(t + c) on coefficient tuples (Horner)."""
    out = ()
    for x in reversed(f):
        out = padd(spec, pmul(spec, out, (c, spec.one_idx)), (x,))
    return out
