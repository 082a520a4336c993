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
