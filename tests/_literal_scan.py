"""Reference: the brute counts as literal scans over every matrix.

The counters visit one matrix per scalar orbit (A mod F_q I for Lie and
commuting pairs, x mod F_q^x for group pairs and W) and multiply by the
orbit size, and the Lie and commuting scan eliminates a whole block of A
at once, one A per lane.  These scans visit every A in M_n(F_q), each with
its full list of packed ad images eliminated on its own, and every
invertible x, each with the same walk over the solutions y of
xy = y(zeta x) as the counter; the tests compare the two.
"""

import functools

from commvar import census as cs


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
    packing = cs._packing(spec, n)
    target = packing.scalar(spec.el(c).idx)
    count = 0
    for a in cs._all_matrices(spec, n):
        rank, consistent = ad_rank_consistency(packing, packing.images(a), target)
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
    return sum(cs._twist_fixed(x, zeta) for x in invertibles)
