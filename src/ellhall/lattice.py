"""Integer-lattice geometry for the rank-2 lattice Z^2.

Points are plain (q, p) tuples of ints.  Directions are ordered by the
angle measured counterclockwise from the ray L0 through (0, -1); the order
is computed exactly from sector classification and cross products, no
floating point anywhere.

A convex path is represented as a tuple of nonzero lattice vectors sorted
by weakly decreasing angle; segments on a common ray are sorted by
decreasing length, so each equivalence class of paths (permutations of
equal-slope segments) has a unique canonical tuple.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd

from .curve import IdentityMismatch

Point = tuple


def delta(x: Point) -> int:
    """gcd grading of a nonzero lattice point."""
    if x == (0, 0):
        raise ValueError("delta undefined at the origin")
    return gcd(abs(x[0]), abs(x[1]))


def det(x: Point, y: Point) -> int:
    return x[0] * y[1] - x[1] * y[0]


def epsilon(x: Point, y: Point) -> int:
    """Orientation sign of the pair (x, y)."""
    d = det(x, y)
    if d == 0:
        raise ValueError("epsilon undefined for proportional points")
    return 1 if d > 0 else -1


def primitive(x: Point) -> Point:
    d = delta(x)
    return (x[0] // d, x[1] // d)


@lru_cache(maxsize=None)
def angle_key(x: Point):
    """Total preorder key for the angle from L0 = ray(0,-1), counterclockwise.

    Equal keys exactly for points on a common ray.  Sectors in increasing
    angle: (0,-), +-, (+,0), ++, (0,+), -+, (-,0), --.
    """
    q, p = x
    if q == 0:
        if p == 0:
            raise ValueError("angle undefined at the origin")
        return (0, Fraction(0)) if p < 0 else (4, Fraction(0))
    if q > 0:
        if p < 0:
            return (1, Fraction(p, q))
        if p == 0:
            return (2, Fraction(0))
        return (3, Fraction(p, q))
    if p > 0:
        return (5, Fraction(p, q))
    if p == 0:
        return (6, Fraction(0))
    return (7, Fraction(p, q))


def angle_compare(x: Point, y: Point) -> int:
    """-1, 0, +1 as the angle of x is smaller, equal, larger than y's."""
    kx, ky = angle_key(x), angle_key(y)
    return (kx > ky) - (kx < ky)


def interior_points_pick(x: Point, y: Point) -> int:
    """Interior lattice points of the triangle (0, x, x+y), via Pick."""
    d = det(x, y)
    if d == 0:
        raise ValueError("degenerate triangle")
    z = (x[0] + y[0], x[1] + y[1])
    boundary = delta(x) + delta(y) + delta(z)
    # Pick: I = A - B/2 + 1 with 2A = |det|
    twice_area = abs(d)
    if (twice_area - boundary) % 2:
        raise IdentityMismatch(f"Pick parity fails for {x}, {y}")
    return (twice_area - boundary + 2) // 2


def interior_points_scan(x: Point, y: Point) -> int:
    """Interior points counted column by column, independently of Pick.

    Each column strictly between the extreme abscissae meets the triangle
    in a segment [lo, hi] whose ends lie on the edges; its open part holds
    ceil(hi) - floor(lo) - 1 lattice points.
    """
    if det(x, y) == 0:
        raise ValueError("degenerate triangle")
    z = (x[0] + y[0], x[1] + y[1])
    edges = [(a, b) if a[0] < b[0] else (b, a)
             for a, b in (((0, 0), x), (x, z), (z, (0, 0))) if a[0] != b[0]]
    count = 0
    for q in range(min(0, x[0], z[0]) + 1, max(0, x[0], z[0])):
        lo = hi = None
        for (aq, ap), (bq, bp) in edges:
            if aq <= q <= bq:
                # the edge's ordinate at q is num / den, den > 0
                num, den = ap * (bq - aq) + (bp - ap) * (q - aq), bq - aq
                f, c = num // den, -(-num // den)
                if lo is None or f < lo:
                    lo = f
                if hi is None or c > hi:
                    hi = c
        count += hi - lo - 1
    return count


@lru_cache(maxsize=None)
def interior_points(x: Point, y: Point) -> int:
    """Strict interior count of the triangle spanned by o, x, x+y.

    Pick's theorem, cross-checked against the column count for small
    inputs.
    """
    n = interior_points_pick(x, y)
    if max(abs(x[0]), abs(x[1]), abs(y[0]), abs(y[1])) <= 12:
        scan = interior_points_scan(x, y)
        if n != scan:
            raise IdentityMismatch((x, y, n, scan))
    return n


def sl2_apply(g, x: Point) -> Point:
    """Apply an SL_2(Z) matrix ((a, b), (c, d)) to a lattice point."""
    (a, b), (c, d) = g
    if a * d - b * c != 1:
        raise ValueError("matrix must have determinant 1")
    return (a * x[0] + b * x[1], c * x[0] + d * x[1])


# ---------------------------------------------------------------------------
# convex paths


def canonical_path(segments) -> tuple:
    """Canonical representative: angle weakly decreasing, runs by length."""
    segs = [tuple(s) for s in segments]
    for s in segs:
        if s == (0, 0):
            raise ValueError("path segments must be nonzero")
    segs.sort(key=lambda s: (angle_key(s), delta(s)), reverse=True)
    return tuple(segs)


def is_canonical_path(path) -> bool:
    return tuple(path) == canonical_path(path)


def path_class(path) -> Point:
    """Total class (the endpoint) of the path."""
    return (sum(s[0] for s in path), sum(s[1] for s in path))


def in_cone(x: Point, cone: str) -> bool:
    q, p = x
    if cone == "all":
        return True
    if cone == "positive":
        return q > 0 or (q == 0 and p > 0)
    if cone == "negative":
        return q < 0 or (q == 0 and p < 0)
    raise ValueError(f"unknown cone {cone!r}")


def enumerate_convex_paths(target: Point, cone: str = "positive",
                           bound: int | None = None) -> list[tuple]:
    """All canonical convex paths with segment sum = target.

    The graded pieces are infinite without a cutoff, so segments are
    restricted to L1-norm total <= bound (default: the L1 norm of the
    target).  Deterministic order of results.
    """
    if target == (0, 0):
        raise ValueError("target must be nonzero")
    if bound is None:
        bound = abs(target[0]) + abs(target[1])
    if not in_cone(target, cone):
        return []

    dirs = []
    seen = set()
    for q in range(-bound, bound + 1):
        for p in range(-bound, bound + 1):
            v = (q, p)
            if v == (0, 0) or not in_cone(v, cone):
                continue
            d = primitive(v)
            if d not in seen:
                seen.add(d)
                dirs.append(d)
    dirs.sort(key=angle_key, reverse=True)

    results = []

    def l1(v):
        return abs(v[0]) + abs(v[1])

    def ray_partitions(d, budget):
        """Weakly decreasing multiple lists k1 >= k2 >= ... on ray d."""
        unit = l1(d)
        kmax = budget // unit

        def rec(prefix, maxpart, rem_budget):
            yield prefix
            for k in range(min(maxpart, rem_budget // unit), 0, -1):
                yield from rec(prefix + [k], k, rem_budget - k * unit)

        yield from rec([], kmax, budget)

    # iterative DFS over the direction list (can be long on the full plane)
    stack = [(0, target[0], target[1], bound, ())]
    while stack:
        idx, remq, remp, budget, acc = stack.pop()
        if remq == 0 and remp == 0 and idx == len(dirs):
            results.append(acc)
            continue
        if idx >= len(dirs) or abs(remq) + abs(remp) > budget:
            continue
        d = dirs[idx]
        if l1(d) > budget:
            stack.append((idx + 1, remq, remp, budget, acc))
            continue
        for parts in ray_partitions(d, budget):
            used = sum(parts)
            segs = tuple((k * d[0], k * d[1]) for k in parts)
            stack.append((idx + 1, remq - used * d[0], remp - used * d[1],
                          budget - used * l1(d), acc + segs))
    results.sort()
    return results
