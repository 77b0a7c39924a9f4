"""Reference: the brute counts as literal scans over every matrix.

The counters visit one matrix per scalar orbit (A mod F_q I for Lie and
commuting pairs, x mod F_q^x for group pairs and W) and multiply by the
orbit size.  These scans visit every A in M_n(F_q), each with its full
list of packed ad images, and every invertible x; the tests compare the two.
"""

from commvar import census as cs


def lie_count(n, spec, c) -> int:
    """#{(A, B) : AB - BA = cI}, one elimination per A in M_n(F_q)."""
    packing = cs._packing(spec, n)
    target = packing.scalar(spec.el(c).idx)
    count = 0
    for a in cs._all_matrices(spec, n):
        rank, consistent = cs._ad_rank_consistency(packing, packing.images(a, a), target)
        if consistent:
            count += spec.q ** (n * n - rank)
    return count


def group_count(n, spec, zeta) -> int:
    """#{(x, y) in GL_n^2 : y^-1 x y = zeta x}, one y-walk per invertible x."""
    zeta = spec.el(zeta)
    invertibles = filter(cs.Mat.is_invertible, cs._all_matrices(spec, n))
    return sum(cs._group_solutions(x, zeta) for x in invertibles)


def w_count(n, spec, zeta) -> int:
    """#{x in GL_n : x ~ zeta x}, one Smith normal form per invertible x."""
    zeta = spec.el(zeta)
    invertibles = filter(cs.Mat.is_invertible, cs._all_matrices(spec, n))
    return sum(cs._twist_fixed(x, zeta) for x in invertibles)
