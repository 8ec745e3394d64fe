"""Reference rank and twisted-rank profile by elimination on field elements.

This is the element-wise Gaussian elimination that ascart.invariants used
for extension fields before it moved every field onto GF(p) matrices in the
regular representation.  It shares no code with that route: it pivots,
scales and subtracts FieldElement values directly, and twists by applying
pth_root to every entry.  Tests compare the two.
"""

from ascart.cartier import CartierMatrix
from ascart.finite_field import FieldElement


def echelon_elements(rows: list[list[FieldElement]]) -> list[list[FieldElement]]:
    """Nonzero echelon rows, by first-nonzero pivoting on field elements."""
    a = [list(row) for row in rows]
    if not a:
        return []
    ncols = len(a[0])
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, len(a)):
            if not a[i][c].is_zero():
                piv = i
                break
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = a[r][c].inverse()
        a[r] = [v * inv for v in a[r]]
        for i in range(r + 1, len(a)):
            f = a[i][c]
            if not f.is_zero():
                a[i] = [vi - f * vr for vi, vr in zip(a[i], a[r])]
        r += 1
        if r == len(a):
            break
    return a[:r]


def naive_rank(M: CartierMatrix) -> int:
    return len(echelon_elements([list(row) for row in M.entries]))


def naive_twisted_rank_profile(M: CartierMatrix, factors: int) -> list[int]:
    """Ranks of M, M*M^(sigma^-1), ... with sigma^-1 = pth_root entrywise."""
    g = M.dimension
    if g == 0 or factors == 0:
        return []
    rows = [list(row) for row in M.entries]
    V = echelon_elements(rows)
    profile = [len(V)]
    twisted = rows
    for _ in range(factors - 1):
        twisted = [[c.pth_root() for c in row] for row in twisted]
        W = [
            [
                sum(
                    (vi * twisted[l][j] for l, vi in enumerate(vrow) if not vi.is_zero()),
                    M.field.zero,
                )
                for j in range(g)
            ]
            for vrow in V
        ]
        V = echelon_elements(W)
        profile.append(len(V))
    return profile
