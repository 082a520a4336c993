"""Small exact linear algebra helpers over the package's coefficient rings.

Field elements only need +, -, *, inverse() and is_zero().
``rank_mod_p`` is the rank step of the independence certificate in
:mod:`ellhall.autoforms`: rows are given as residues mod p of exact
coefficients, and full rank of the reduced matrix implies full rank over
the characteristic-zero ring the entries were reduced from.
"""

from __future__ import annotations


def invert_matrix(rows, one):
    """Inverse of a square matrix given as list of lists of field elements."""
    n = len(rows)
    zero = one - one
    aug = [list(r) + [one if i == j else zero for j in range(n)]
           for i, r in enumerate(rows)]
    for col in range(n):
        piv = None
        for r in range(col, n):
            if not aug[r][col].is_zero():
                piv = r
                break
        if piv is None:
            raise ValueError("matrix is singular")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = aug[col][col].inverse()
        aug[col] = [v * inv for v in aug[col]]
        for r in range(n):
            if r != col and not aug[r][col].is_zero():
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def rank_mod_p(sparse_rows, ncols: int, p: int) -> int:
    """Rank over F_p of rows given as {column: residue} dicts."""
    pivots: dict[int, dict] = {}
    r = 0
    for row in sparse_rows:
        cur = {c: v % p for c, v in row.items() if v % p}
        while cur:
            c = min(cur)
            piv = pivots.get(c)
            if piv is None:
                inv = pow(cur[c], p - 2, p)
                cur = {cc: (vv * inv) % p for cc, vv in cur.items()}
                pivots[c] = cur
                r += 1
                break
            f = cur[c]
            nxt = dict(cur)
            for cc, vv in piv.items():
                w = (nxt.get(cc, 0) - f * vv) % p
                if w:
                    nxt[cc] = w
                else:
                    nxt.pop(cc, None)
            cur = nxt
    return r
