"""Reference: the brute counts as literal scans over every matrix.

The counters visit one matrix per scalar orbit (A mod F_q I for Lie and
commuting pairs, one x of W per orbit of F_q^x for group pairs) and
multiply by the orbit size, and every scan eliminates a whole block of
matrices at once, one per lane, on lane images read off matgf matrices.
These scans visit every A in M_n(F_q), each with its full list of ad
images eliminated on its own, and every invertible x, each with the same
walk over the solutions y of xy = y(zeta x) as the group counter or one
Smith normal form for W; the tests compare the two.  The per-matrix images come from a packed image builder of their
own (Packing), so they are a second derivation of ad_A as well.
scalar_orbit_reps lists one matrix per orbit of F_q^x by the rule that the
group counter applies to the lanes of W: the first nonzero entry is 1.
"""

import functools
import itertools
import operator

from commvar import census as cs
from commvar import typea_group as tg


class Packing:
    """n x n matrices over GF(p^k) packed into one int of F_p-digit lanes.

    Lane c = (i*n + j)*k + t holds digit t (the place p^t of the packed
    index) of entry (i, j), so it is the coordinate of the F_p-basis matrix
    E_ij * e_t, where e_t is the element with packed index p^t: the lane
    order of census._map_digits.  sub works on every lane at once
    (census._Lanes).
    """

    def __init__(self, spec, n: int):
        p, k = spec.p, spec.k
        self.spec = spec
        self.n = n
        lanes = cs._Lanes(p, n * n * k)
        self.width = lanes.width
        self.sub = lanes.sub
        bits = k * self.width  # per entry
        row_bits = n * bits
        spread = [
            sum((x // p**t) % p << (t * self.width) for t in range(k))
            for x in range(spec.q)
        ]
        self._spread = spread
        # _scaled[t][x]: the digits of entry x * e_t
        self._scaled = [[spread[spec.mul(x, p**t)] for x in range(spec.q)] for t in range(k)]
        self._entry_shifts = [e * bits for e in range(n * n)]
        self._col_shifts = self._entry_shifts[:n]
        self._row_shifts = self._entry_shifts[::n]
        self._col0 = sum(((1 << bits) - 1) << r for r in self._row_shifts)  # column 0
        self._row0 = (1 << row_bits) - 1  # row 0

    def digits(self, packed: int) -> list[int]:
        """The lanes of a packed matrix, lane 0 first."""
        mask = (1 << self.width) - 1
        return [(packed >> (c * self.width)) & mask for c in range(self.n**2 * self.spec.k)]

    def _pack(self, scaled: list[int], m) -> int:
        """m e_t packed, for the digit table scaled = _scaled[t]."""
        entries = map(scaled.__getitem__, itertools.chain(*m.rows))
        return sum(map(operator.lshift, entries, self._entry_shifts))

    def scalar(self, x: int) -> int:
        """The packed x I, for a packed field index x."""
        return sum(self._spread[x] << shift for shift in self._entry_shifts[:: self.n + 1])

    def images(self, a) -> list[int]:
        """The packed images of the F_p-basis matrices under ad_a: B -> aB - Ba.

        E_ij e_t goes to column i of a e_t placed in column j, minus row j
        of e_t a placed in row i; lane order as in the class docstring.
        """
        sub = self.sub
        col0, row0 = self._col0, self._row0
        by_digit = []
        for scaled in self._scaled:
            packed = self._pack(scaled, a)
            cols = [(packed >> shift) & col0 for shift in self._col_shifts]
            rows = [(packed >> shift) & row0 for shift in self._row_shifts]
            by_digit.append([
                sub(col << col_shift, row << row_shift)
                for col, row_shift in zip(cols, self._row_shifts)
                for row, col_shift in zip(rows, self._col_shifts)
            ])
        return [image for entry in zip(*by_digit) for image in entry]


@functools.lru_cache(maxsize=None)
def packing(spec, n: int) -> Packing:
    return Packing(spec, n)


@functools.lru_cache(maxsize=None)
def pivot_lanes(packing) -> list[range]:
    """lanes[t]: the bit lengths a packed vector can have when its leading
    lane holds bit t - 1."""
    width = packing.width
    span = (packing.spec.p - 1).bit_length()
    bits = packing.n**2 * packing.spec.k * width
    return [range(lo, lo + span) for lo in (t - (t - 1) % width for t in range(bits + 1))]


def ad_rank_consistency(packing, images: list[int], target: int) -> tuple[int, bool]:
    """rank(ad_A) and whether cI lies in the image of ad_A, for one A.

    Takes images = packing.images(A), whose F_p-span is im ad_A, of
    F_p-dimension k * rank, and target = packing.scalar(c.idx), and
    eliminates.  A nonzero vector's bit length lies in its leading lane, so
    a pivot is filed under every bit length its leading lane allows;
    subtracting it moves a vector's leading digit by a unit mod p, so at
    most p - 1 steps clear that lane.
    """
    sub, lanes = packing.sub, pivot_lanes(packing)
    pivots = [0] * len(lanes)
    found = 0
    for v in images:
        while v:
            pivot = pivots[v.bit_length()]
            if not pivot:
                for t in lanes[v.bit_length()]:
                    pivots[t] = v
                found += 1
                break
            v = sub(v, pivot)
    while target and pivots[target.bit_length()]:
        target = sub(target, pivots[target.bit_length()])
    return found // packing.spec.k, not target


def lie_count(n, spec, c) -> int:
    """#{(A, B) : AB - BA = cI}, one elimination per A in M_n(F_q)."""
    pk = packing(spec, n)
    target = pk.scalar(spec.el(c).idx)
    count = 0
    for a in cs._all_matrices(spec, n):
        rank, consistent = ad_rank_consistency(pk, pk.images(a), target)
        if consistent:
            count += spec.q ** (n * n - rank)
    return count


def group_count(n, spec, zeta) -> int:
    """#{(x, y) in GL_n^2 : y^-1 x y = zeta x}, one solution walk per invertible x."""
    zeta = spec.el(zeta)
    invertibles = filter(cs.Mat.is_invertible, cs._all_matrices(spec, n))
    return sum(cs._group_solutions(x, zeta) for x in invertibles)


def w_count(n, spec, zeta) -> int:
    """#{x in GL_n : x ~ zeta x}, one Smith normal form per invertible x."""
    zeta = spec.el(zeta)
    invertibles = filter(cs.Mat.is_invertible, cs._all_matrices(spec, n))
    return sum(tg.is_conjugate_to_zeta_x(x, zeta) for x in invertibles)


def scalar_orbit_reps(spec, n: int):
    """One matrix per orbit of F_q^x on the nonzero matrices: the first
    nonzero entry, in row-major order, is 1; (q^(n^2) - 1) / (q - 1) of them."""
    for lead in range(n * n):
        for tail in itertools.product(range(spec.q), repeat=n * n - lead - 1):
            entries = (0,) * lead + (spec.one_idx,) + tail
            yield cs.Mat(spec, [entries[i * n : (i + 1) * n] for i in range(n)])
