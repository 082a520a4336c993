import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from ellhall.lattice import (angle_key, canonical_path, delta, det, epsilon,
                             interior_points, interior_points_pick,
                             interior_points_scan)
from paths import enumerate_convex_paths, in_cone, path_class, sl2_apply

SRC = str(Path(__file__).resolve().parent.parent / "src")

points = st.tuples(st.integers(-12, 12), st.integers(-12, 12)).filter(
    lambda v: v != (0, 0))


def test_delta_examples():
    assert delta((2, 4)) == 2
    assert delta((1, 0)) == 1
    assert delta((-6, 9)) == 3
    with pytest.raises(ValueError):
        delta((0, 0))


def test_epsilon_examples():
    assert epsilon((1, 0), (0, 1)) == 1
    assert epsilon((0, 1), (1, 0)) == -1
    assert epsilon((1, 2), (2, 1)) == -1
    with pytest.raises(ValueError):
        epsilon((1, 2), (2, 4))


@given(points, points)
def test_epsilon_antisymmetric(x, y):
    if det(x, y) != 0:
        assert epsilon(x, y) == -epsilon(y, x)


def test_interior_point_examples():
    assert interior_points((1, 0), (0, 1)) == 0
    assert interior_points((1, 0), (0, 4)) == 0
    assert interior_points((3, 0), (0, 3)) == 1
    with pytest.raises(ValueError):
        interior_points((1, 1), (2, 2))


@given(points, points)
def test_pick_equals_scan(x, y):
    if det(x, y) != 0:
        assert interior_points_pick(x, y) == interior_points_scan(x, y)


def interior_points_walk(x, y):
    """Oracle: test every lattice point of the bounding box."""
    z = (x[0] + y[0], x[1] + y[1])
    verts = ((0, 0), x, z)
    count = 0
    for q in range(min(v[0] for v in verts), max(v[0] for v in verts) + 1):
        for p in range(min(v[1] for v in verts), max(v[1] for v in verts) + 1):
            s1 = det(x, (q, p))
            s2 = det((z[0] - x[0], z[1] - x[1]), (q - x[0], p - x[1]))
            s3 = det((-z[0], -z[1]), (q - z[0], p - z[1]))
            if (s1 > 0 and s2 > 0 and s3 > 0) or (s1 < 0 and s2 < 0 and s3 < 0):
                count += 1
    return count


def test_column_count_equals_walk():
    box = [(q, p) for q in range(-6, 7) for p in range(-6, 7) if (q, p) != (0, 0)]
    pairs = [(x, y) for x in box for y in box if det(x, y) != 0]
    assert len(pairs) == 27248
    for x, y in pairs:
        assert interior_points_scan(x, y) == interior_points_walk(x, y), (x, y)


def test_angle_examples():
    assert angle_key((0, 1)) > angle_key((1, 0))     # pi vs pi/2
    assert angle_key((1, 1)) < angle_key((1, 2))
    assert angle_key((3, 3)) == angle_key((1, 1))


@given(points, points, points)
def test_angle_total_preorder(x, y, z):
    if angle_key(x) <= angle_key(y) and angle_key(y) <= angle_key(z):
        assert angle_key(x) <= angle_key(z)


@given(points, points)
def test_angle_ties_are_rays(x, y):
    if angle_key(x) == angle_key(y):
        assert det(x, y) == 0 and (x[0] * y[0] >= 0 and x[1] * y[1] >= 0)


def test_sl2_examples():
    ident = ((1, 0), (0, 1))
    assert sl2_apply(ident, (5, -3)) == (5, -3)
    assert sl2_apply(((0, -1), (1, 0)), (1, 0)) == (0, 1)
    assert sl2_apply(((1, 1), (0, 1)), (0, 1)) == (1, 1)
    with pytest.raises(ValueError):
        sl2_apply(((1, 0), (0, 2)), (1, 1))


class TestPaths:
    def test_enumeration_examples(self):
        assert enumerate_convex_paths((0, 1)) == [((0, 1),)]
        got = set(enumerate_convex_paths((1, 1)))
        assert got == {((1, 1),), ((0, 1), (1, 0))}
        got2 = set(enumerate_convex_paths((0, 2)))
        assert got2 == {((0, 2),), ((0, 1), (0, 1))}

    def test_partition_count_on_ray(self):
        # pure torsion class: one path per partition of the degree
        for d in (1, 2, 3, 4, 5):
            paths = enumerate_convex_paths((0, d))
            from ellhall.dvr_hall import partitions
            assert len(paths) == len(list(partitions(d)))

    def test_canonicalization(self):
        assert canonical_path([(1, 0), (0, 1)]) == ((0, 1), (1, 0))
        assert canonical_path([(0, 1), (0, 2), (1, 3)]) == ((0, 2), (0, 1), (1, 3))
        assert canonical_path(((0, 2), (0, 1), (1, 3))) == ((0, 2), (0, 1), (1, 3))
        assert canonical_path(((0, 1), (0, 2))) != ((0, 1), (0, 2))
        with pytest.raises(ValueError):
            canonical_path([(0, 0)])

    def test_all_emitted_paths_canonical_and_on_target(self):
        for target in [(2, 1), (1, 2), (2, 2), (-1, 1)]:
            for cone in ("positive", "all"):
                if not in_cone(target, cone):
                    continue
                for p in enumerate_convex_paths(target, cone):
                    assert canonical_path(p) == p
                    assert path_class(p) == target
                    assert all(in_cone(s, cone) for s in p)

    def test_deterministic_order(self):
        assert enumerate_convex_paths((2, 1)) == enumerate_convex_paths((2, 1))

    @pytest.mark.parametrize("g", [((1, 1), (0, 1)), ((0, -1), (1, 0)),
                                   ((2, 1), (1, 1))])
    def test_sl2_invariance_full_plane(self, g):
        target = (1, 2)
        bound = 4
        paths = enumerate_convex_paths(target, "all", bound)
        image_target = sl2_apply(g, target)
        mapped = {canonical_path([sl2_apply(g, s) for s in p]) for p in paths}
        assert len(mapped) == len(paths)
        img_bound = max(sum(abs(s[0]) + abs(s[1]) for s in p) for p in mapped)
        # images are valid convex paths to the transformed target
        big = enumerate_convex_paths(image_target, "all", img_bound)
        assert mapped <= set(big)
        # and the count is preserved pulling back
        ginv = ((g[1][1], -g[0][1]), (-g[1][0], g[0][0]))
        back = {canonical_path([sl2_apply(ginv, s) for s in p]) for p in mapped}
        assert back == set(paths)


SCAN_FAULT_SCRIPT = """
import ellhall.lattice as lattice
from ellhall.curve import IdentityMismatch
lattice.interior_points_scan = lambda x, y: lattice.interior_points_pick(x, y) + 1
try:
    lattice.interior_points((2, 1), (1, 3))
except IdentityMismatch:
    print("mismatch")
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_pick_scan_mismatch_raises_under_optimize(flags):
    # the cross-check raises explicitly, so python -O must not turn it off
    proc = subprocess.run(
        [sys.executable, *flags, "-c", SCAN_FAULT_SCRIPT],
        capture_output=True, text=True,
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["mismatch"]
