"""Oracles for convex paths on Z^2: the brute-force enumeration of the
canonical paths to a class, the class of a path, and SL_2(Z) acting on
lattice points.

The algebra stores its normal forms on canonical paths
(``ellhall.lattice.canonical_path``); these oracles list what a normal
form may contain, without the straightening engine.
"""

from ellhall.lattice import angle_key, primitive


def sl2_apply(g, x):
    """Apply an SL_2(Z) matrix ((a, b), (c, d)) to a lattice point."""
    (a, b), (c, d) = g
    if a * d - b * c != 1:
        raise ValueError("matrix must have determinant 1")
    return (a * x[0] + b * x[1], c * x[0] + d * x[1])


def path_class(path):
    """Total class (the endpoint) of the path."""
    return (sum(s[0] for s in path), sum(s[1] for s in path))


def classes(element):
    """The classes of the paths an algebra element is supported on."""
    return {path_class(p) for p in element.terms}


def in_cone(x, cone):
    q, p = x
    if cone == "all":
        return True
    if cone == "positive":
        return q > 0 or (q == 0 and p > 0)
    if cone == "negative":
        return q < 0 or (q == 0 and p < 0)
    raise ValueError(f"unknown cone {cone!r}")


def enumerate_convex_paths(target, cone="positive", bound=None):
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
