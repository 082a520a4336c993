"""The universal spherical loop algebra on the rank-2 lattice.

For a twist level n >= 1 and an exact coefficient backend (formal or
curve-specialized), this is the algebra generated by one generator t_x per
nonzero lattice point, subject to:

  (1) generators on a common line through the origin commute;
  (2) for delta(x) = 1 and the triangle (o, x, x+y) free of interior
      lattice points,
          [t_y, t_x] = eps(x, y) * c_{n delta(y)} * theta_{x+y} / kappa,
      where kappa = n (nu^-1 - nu) and the theta elements on a ray are cut
      out of exp(kappa * sum_i t_{i z0} s^i).

Normal forms live on canonical convex paths (angle weakly decreasing from
the downward ray, equal-slope runs by decreasing length).  Products are
computed by a straightening rewrite: adjacent out-of-order generators are
swapped against their commutator.

An SL_2(Z) action permutes the generators through the linear action on
the lattice; it is an automorphism fixing both relations, so commutators
outside the defining relations are resolved once per orbit of pairs
(a, b) with det(a, b) > 0 (the reversed pairs are negated).  The orbit's
representative ((delta(a), 0), (r, b2)), 0 <= r < b2, is resolved
recursively by splitting a factor z = x + (z - x) at a lattice point on
the positively oriented side of the segment [o, z], which re-expresses
t_z through an interior-free commutator plus lower theta corrections.
The best admissible split (smallest determinants in the Jacobi brackets,
then x closest to [o, z]) is chosen once; the PBW basis is unique, so no
other choice is ever tried.  Every other pair of the orbit is the image
of the representative: its normal form with each segment relabelled,
straightened again only where a relabelled path leaves the canonical
order (a path crossing the cut ray L0).  Likewise theta is built only on
the ray of (1, 0), and theta_{k z0} relabels it.  There theta_k / kappa is
kept per k, from the recurrence of E = exp(F), which satisfies E' = F' E
because the generators of one ray commute:
    theta_k / kappa = (1/k) sum_{i=1..k} i t_{(i,0)} theta_{(k-i)(1,0)},
and theta_k is kappa times it.

Each algebra memoizes, in tables confined to the instance: the theta
elements per (direction, index), the commutators [t_a, t_b] per ordered
pair (orbit representatives and their images alike), the straightened
products of pairs of normal-form paths, and the interior-free splits of
each lattice point.  Relation (2) depends on a basic pair only through
k = delta(x + y), delta(y) and its sign, so one scaled series
+-theta_{k (1,0)} c_{n delta(y)} / kappa is kept per (k, delta(y), sign),
and its relabelling onto the ray of x + y per (x + y, delta(y), sign):
values are stored with their sign, so no lookup negates an element.
Each path's coefficient is summed once.  ``multiply``, ``_bracket`` and the
word rewrite (``_accumulate_word``) collect, per canonical path, the pairs
(c, cc) whose products c cc add up to its coefficient, and hand each path's
pairs to the ring's ``sum_of_products`` in one call: over the formal backend
that is one packed multiply-accumulate (see ``ratfunc``), over the curve
backend the plain sum of products.  A path reached once with a coefficient
that needs no product (c or cc the ring's one) takes it at once, and a
word of two letters, swapped at most once, adds its products at once.  The
products formed outside the kernel (the rewrite's running coefficients, a
path's lone pair, and sums too small to pack) go through ``_times``, which
keys a product by the values of its operands and stores it at its first
sighting; a product by the ring's one is never stored.
Relation (2) divides by c_{n delta(y)} and kappa, element by element, once
per (k, delta(y), sign); a split divides by c_{n delta(y)} only, since its
theta correction (theta_z - kappa t_z) / kappa is theta_k / kappa relabelled
less t_z.  Over the formal backend these are exact divisions, which raise
ArithmeticError where a wrong constant leaves a remainder.
Elements are immutable values, so share algebras read-mostly or keep one
per worker.
"""

from __future__ import annotations

from fractions import Fraction

from .lattice import (angle_key, canonical_path, delta, det, epsilon,
                      interior_points, primitive)
from .ratfunc import FormalRing
from .scalars import LinearCombination


class StraighteningError(RuntimeError):
    """Internal guard tripped: indicates an engine bug, not bad input."""


_IN_PROGRESS = object()

_WORD_GUARD = 2_000_000


def _orbit_frame(a, b):
    """(g, a', b'): g in SL_2(Z) with g a' = a and g b' = b, where (a', b')
    represents the SL_2(Z)-orbit of a pair with det(a, b) > 0.

    With a0 = a / delta(a) and b = b1 a0 + b2 u, det(a0, u) = 1: a' =
    (delta(a), 0) and b' = (r, b2), where r is the invariant b1 mod b2 in
    [0, b2).  Both lie in the closed upper half-plane, off L0.
    """
    d = delta(a)
    aq, ap = a[0] // d, a[1] // d
    # u = (uq, up) with det((aq, ap), u) = 1
    if ap == 0:
        uq, up = 0, aq
    else:
        up = pow(aq, -1, abs(ap))
        uq = (aq * up - 1) // ap
    b2 = aq * b[1] - ap * b[0]
    r = (b[0] * up - b[1] * uq) % b2
    return ((aq, (b[0] - r * aq) // b2), (ap, (b[1] - r * ap) // b2)), (d, 0), (r, b2)


class EllipticHallAlgebra:
    def __init__(self, n: int, ring):
        if n < 1:
            raise ValueError("twist level n must be >= 1")
        self.n = n
        self.ring = ring
        self.kappa = ring.kappa(n)
        self.one = AlgebraElement._of_nonzero(self, {(): ring.one})
        self.zero = AlgebraElement._of_nonzero(self, {})
        self._c_cache: dict[int, object] = {}
        self._theta_cache: dict[tuple, "AlgebraElement"] = {}
        self._theta_kappa_cache: dict[int, "AlgebraElement"] = {}
        self._comm_cache: dict[tuple, "AlgebraElement"] = {}
        self._basic_cache: dict[tuple, "AlgebraElement"] = {}
        self._ray_cache: dict[tuple, "AlgebraElement"] = {}
        self._pair_cache: dict[tuple, dict] = {}
        self._split_cache: dict[tuple, tuple] = {}
        self._products: dict[tuple, object] = {}

    # -- scalars --------------------------------------------------------

    def c(self, i: int):
        v = self._c_cache.get(i)
        if v is None:
            v = self.ring.c_coefficient(i)
            self._c_cache[i] = v
        return v

    def _times(self, a, b):
        """a b, kept in ``_products`` by the values of the pair (a, b) from
        its first sighting on; a product by the ring's one is never kept."""
        one = self.ring.one
        if a is one:
            return b
        if b is one:
            return a
        key = (a, b)
        v = self._products.get(key)
        if v is None:
            v = self._products[key] = a * b
        return v

    def _finish(self, done, sums):
        """done with the paths of sums added: a path's pairs (c, cc) summed
        once, a lone pair through ``_times``, and zero sums dropped."""
        if sums:
            times, dot = self._times, self.ring.sum_of_products
            for p, pairs in sums.items():
                v = times(*pairs[0]) if len(pairs) == 1 else dot(pairs, (), times)
                if v:
                    done[p] = v
        return done

    # -- basic elements ---------------------------------------------------

    def generator(self, x) -> "AlgebraElement":
        x = (int(x[0]), int(x[1]))
        if x == (0, 0):
            raise ValueError("no generator at the origin")
        return AlgebraElement._of_nonzero(self, {(x,): self.ring.one})

    def from_word(self, word) -> "AlgebraElement":
        """Straighten a single product of generators."""
        # into an empty dict, the rewrite drops each zero where it forms
        return AlgebraElement._of_nonzero(self, self._accumulate_word(
            tuple(tuple(v) for v in word), self.ring.one, {}))

    # -- theta series -----------------------------------------------------

    def theta_ray(self, z0, k: int) -> "AlgebraElement":
        """theta_{k z0} for a primitive direction z0 (theta_0 = 1)."""
        z0 = (int(z0[0]), int(z0[1]))
        if delta(z0) != 1:
            raise ValueError("theta direction must be primitive")
        if k < 0:
            raise ValueError("theta index must be >= 0")
        key = (z0, k)
        cached = self._theta_cache.get(key)
        if cached is not None:
            return cached
        if k == 0:
            val = self.one
        elif z0 == (1, 0):
            val = self._theta_over_kappa(k).scale(self.kappa)
        else:
            val = self._relabel(self.theta_ray((1, 0), k), z0)
        self._theta_cache[key] = val
        return val

    def _theta_over_kappa(self, k: int) -> "AlgebraElement":
        """theta_{k (1,0)} / kappa for k >= 1, by the recurrence of exp:

            theta_k / kappa = (1/k) sum_{i=1..k} i t_{(i,0)} theta_{(k-i)(1,0)}.

        The generators of one ray commute (relation (1)), so E = exp(F)
        satisfies E' = F' E; its i = k term is t_{(k,0)}."""
        val = self._theta_kappa_cache.get(k)
        if val is None:
            val = self.generator((k, 0))
            for i in range(1, k):
                step = self.generator((i, 0)) * self.theta_ray((1, 0), k - i)
                val = val + step.scale(Fraction(i, k))
            self._theta_kappa_cache[k] = val
        return val

    def _relabel(self, A, z0):
        """A, supported on the ray of (1, 0), with each segment (m, 0) read
        as m z0: a path on one ray stays canonical when relabelled."""
        q, p = z0
        return AlgebraElement._of_nonzero(
            self, {tuple((m * q, m * p) for m, _ in path): c for path, c in A.terms.items()})

    def theta(self, z) -> "AlgebraElement":
        """theta_z for arbitrary nonzero z (class-z homogeneous)."""
        k = delta(z)
        return self.theta_ray(primitive(z), k)

    # -- commutators ---------------------------------------------------------

    def commutator_basic(self, x, y) -> "AlgebraElement":
        """[t_y, t_x] for primitive x with interior-free triangle (o,x,x+y)."""
        x, y = tuple(x), tuple(y)
        if delta(x) != 1:
            raise ValueError("commutator_basic needs delta(x) = 1")
        if det(x, y) == 0:
            raise ValueError("proportional pair: use relation (1)")
        if interior_points(x, y) != 0:
            raise ValueError("triangle has interior points: not a basic case")
        return self._basic(x, y, 1)

    def _basic(self, x, y, sign):
        """sign [t_y, t_x] for a basic pair (x, y), by relation (2).

        The value depends on the pair only through delta(x + y), delta(y)
        and its sign: it is the per-ray series of (delta(x + y), delta(y))
        relabelled onto the ray of x + y.
        """
        z = (x[0] + y[0], x[1] + y[1])
        dy = delta(y)
        sign *= epsilon(x, y)
        key = (z, dy, sign)
        val = self._basic_cache.get(key)
        if val is None:
            k = delta(z)
            val = self._relabel(self._ray_basic(k, dy, sign), (z[0] // k, z[1] // k))
            self._basic_cache[key] = val
        return val

    def _ray_basic(self, k, dy, sign):
        """sign theta_{k (1,0)} c_{n dy} / kappa, built once per algebra."""
        key = (k, dy, sign)
        val = self._ray_cache.get(key)
        if val is None:
            if sign > 0:
                val = self.theta_ray((1, 0), k).scale(self.c(self.n * dy)) / self.kappa
            else:
                val = -self._ray_basic(k, dy, 1)
            self._ray_cache[key] = val
        return val

    def commutator(self, a, b) -> "AlgebraElement":
        """[t_a, t_b] in normal form."""
        a, b = tuple(a), tuple(b)
        if det(a, b) == 0:
            return self.zero
        cached = self._comm_cache.get((a, b))
        if cached is not None:
            if cached is _IN_PROGRESS:
                raise StraighteningError(f"commutator cycle at {(a, b)}")
            return cached
        self._comm_cache[(a, b)] = _IN_PROGRESS
        try:
            res = self._commutator_impl(a, b)
        except BaseException:
            self._comm_cache.pop((a, b), None)
            raise
        self._comm_cache[(a, b)] = res
        return res

    def _commutator_impl(self, a, b):
        if delta(b) == 1 and interior_points(b, a) == 0:
            return self._basic(b, a, 1)
        if delta(a) == 1 and interior_points(a, b) == 0:
            return self._basic(a, b, -1)
        # one resolution per SL_2(Z)-orbit: [t_a, t_b] = g [t_a', t_b']
        if det(a, b) < 0:
            return -self.commutator(b, a)
        g, ra, rb = _orbit_frame(a, b)
        if (ra, rb) != (a, b):
            return self.sl2_act(g, self.commutator(ra, rb))
        return self.jacobi_step(a, b)

    def jacobi_step(self, a, b):
        """[t_a, t_b] by one Jacobi step, through the best admissible split.

        The brackets of the step are read from ``commutator``.
        """
        # Resolve one factor through an interior-free split z = x + y and
        # Jacobi.  A candidate split is admissible against the other factor
        # o when det(x,o) and det(y,o) do not have opposite signs (so the
        # child triangles split the original area).  The best admissible
        # split is chosen once, by the least key: splits whose Jacobi
        # brackets can only produce pairs with strictly smaller determinant
        # first, then the least such largest determinant, then x closest to
        # [o, z].  The PBW basis is unique, so any sound resolution gives
        # the same normal form.
        d0 = abs(det(a, b))
        best = None
        for z, o, flip in ((a, b, False), (b, a, True)):
            for dist2, x, y in self._splits(z):
                dxo, dyo = det(x, o), det(y, o)
                if dxo * dyo < 0:
                    continue
                worst = max(abs(dxo), abs(dyo),
                            abs(det(y, (x[0] + o[0], x[1] + o[1]))),
                            abs(det(x, (y[0] + o[0], y[1] + o[1]))))
                key = (worst >= d0, worst, dist2, delta(z), z, x)
                if best is None or key < best[0]:
                    best = (key, z, o, flip, x, y)
        if best is None:
            raise StraighteningError(f"no admissible resolution for {(a, b)}")
        _, z, o, flip, x, y = best
        res = self._resolve_through(z, o, x, y)
        return -res if flip else res

    def _resolve_through(self, z, o, x, y):
        """[t_z, t_o] via t_z = [t_y, t_x] / c - theta corrections.

        The correction is (theta_z - kappa t_z) / kappa, read off
        theta_k / kappa on the ray of z (k = delta(z); zero at k = 1), so
        no division by kappa is left here."""
        e1 = self.commutator(x, o)
        e2 = self.commutator(y, o)
        term1 = self._bracket(self.generator(y), e1)
        term2 = self._bracket(self.generator(x), e2)
        res = (term1 - term2) / self.c(self.n * delta(y))
        k = delta(z)
        if k > 1:
            corr = (self._relabel(self._theta_over_kappa(k), (z[0] // k, z[1] // k))
                    - self.generator(z))
            res = res - self._bracket(corr, self.generator(o))
        return res

    def _bracket(self, A: "AlgebraElement", B: "AlgebraElement") -> "AlgebraElement":
        """A B - B A, with the products of both sides summed once per path."""
        one = self.ring.one
        sides = []
        for X, Y in ((A, B), (B, A)):
            done, sums = self._collect(X, Y)
            for p, v in done.items():
                sums[p] = [(v, one)]
            sides.append(sums)
        plus, minus = sides
        times, dot = self._times, self.ring.sum_of_products
        out = {}
        for p, pairs in plus.items():
            if v := dot(pairs, minus.pop(p, ()), times):
                out[p] = v
        for p, pairs in minus.items():
            if v := dot((), pairs, times):
                out[p] = v
        return AlgebraElement._of_nonzero(self, out)

    def _splits(self, z):
        """All interior-free decompositions z = x + y with det(x, z) > 0 and
        delta(x) = 1, each with the squared distance of x to [o, z].
        """
        cached = self._split_cache.get(z)
        if cached is not None:
            return cached
        zq, zp = z
        norm2 = zq * zq + zp * zp
        out = []
        bq = abs(zq) + 1
        bp = abs(zp) + 1
        for q in range(-bq, bq + 1):
            for p in range(-bp, bp + 1):
                x = (q, p)
                if x == (0, 0):
                    continue
                d = det(x, z)
                if d <= 0:
                    continue
                y = (zq - q, zp - p)
                if y == (0, 0) or delta(x) != 1:
                    continue
                if interior_points(x, y) != 0:
                    continue
                proj = q * zq + p * zp
                if proj <= 0:
                    d2 = Fraction(q * q + p * p)
                elif proj >= norm2:
                    d2 = Fraction((q - zq) ** 2 + (p - zp) ** 2)
                else:
                    d2 = Fraction(d * d, norm2)
                out.append((d2, x, y))
        if not out:
            raise StraighteningError(f"no admissible split found for {z}")
        self._split_cache[z] = out
        return out

    # -- straightening ------------------------------------------------------

    def _accumulate_word(self, word, coeff, out):
        """out with coeff times the normal form of word added: out, or a
        new dict in its place when out is empty.

        A stack entry (w, c, cc) stands for c cc times w: the product is
        formed only where w is rewritten further.  A canonical path reached
        once without a product to form takes its value at once; one reached
        again, or with a product, collects its pairs (c, cc), summed once at
        the end.  A word of two letters is swapped at most once, so each of
        its paths gets one product, added at once."""
        if coeff.is_zero():
            return out
        if len(word) == 2:
            a, b = word
            if angle_key(a) < angle_key(b):
                for path, cc in self.commutator(a, b).terms.items():
                    v = self._times(coeff, cc)
                    if not v.is_zero():
                        out[path] = out[path] + v if path in out else v
                a, b = b, a
            p = ((a, b) if a[0] * b[1] != a[1] * b[0] or abs(a[0]) + abs(a[1]) >= abs(b[0]) + abs(b[1])
                 else canonical_path((a, b)))
            v = out[p] + coeff if p in out else coeff
            if v:
                out[p] = v
            else:
                del out[p]
            return out
        one = self.ring.one
        stack = [(word, coeff, one)]
        done, sums = {}, {}
        guard = 0
        while stack:
            guard += 1
            if guard > _WORD_GUARD:
                raise StraighteningError("word rewrite budget exceeded")
            w, c, cc = stack.pop()
            idx = -1
            runs_sorted = True  # parallel neighbours by decreasing length
            for i in range(len(w) - 1):
                a, b = w[i], w[i + 1]
                if angle_key(a) < angle_key(b):
                    idx = i
                    break
                if (a[0] * b[1] == a[1] * b[0]
                        and abs(a[0]) + abs(a[1]) < abs(b[0]) + abs(b[1])):
                    runs_sorted = False
            if idx < 0:
                # an angle-ordered word with sorted runs is its canonical path
                p = w if runs_sorted and len(w) > 1 else canonical_path(w)
                pairs = sums.get(p)
                if pairs is not None:
                    pairs.append((c, cc))
                elif p in done:
                    sums[p] = [(done.pop(p), one), (c, cc)]
                elif cc is one:
                    done[p] = c
                elif c is one:
                    done[p] = cc
                else:
                    sums[p] = [(c, cc)]
                continue
            if cc is not one:
                c = self._times(c, cc)
                if c.is_zero():
                    continue
            a, b = w[idx], w[idx + 1]
            head, tail = w[:idx], w[idx + 2:]
            stack.append((head + (b, a) + tail, c, one))
            for path, k in self.commutator(a, b).terms.items():
                stack.append((head + path + tail, c, k))
        if not out:
            return self._finish(done, sums)
        for p, v in self._finish(done, sums).items():
            out[p] = out[p] + v if p in out else v
        return out

    def _collect(self, A, B):
        """(done, sums): the coefficients of the paths of A B, collected as
        ``_accumulate_word`` collects its leaves.  A path reached once
        without a product to form has its value in done, any other path its
        pairs (c, cc) in sums; cc is read from the normal form of the pair
        of paths, kept in ``_pair_cache``."""
        one, times = self.ring.one, self._times
        pair_cache = self._pair_cache
        done, sums = {}, {}
        for p1, c1 in A.terms.items():
            for p2, c2 in B.terms.items():
                c = c2 if c1 is one else c1 if c2 is one else times(c1, c2)
                if c.is_zero():
                    continue
                reduced = pair_cache.get((p1, p2))
                if reduced is None:
                    reduced = pair_cache[p1, p2] = self._accumulate_word(p1 + p2, one, {})
                for path, cc in reduced.items():
                    pairs = sums.get(path)
                    if pairs is not None:
                        pairs.append((c, cc))
                    elif path in done:
                        sums[path] = [(done.pop(path), one), (c, cc)]
                    elif c is one:
                        done[path] = cc
                    elif cc is one:
                        done[path] = c
                    else:
                        sums[path] = [(c, cc)]
        return done, sums

    def multiply(self, A: "AlgebraElement", B: "AlgebraElement") -> "AlgebraElement":
        if A.owner is not B.owner:
            raise ValueError("elements of different algebras")
        done, sums = self._collect(A, B)
        return AlgebraElement._of_nonzero(self, self._finish(done, sums) if sums else done)

    # -- SL_2(Z) action ----------------------------------------------------

    def sl2_act(self, g, A: "AlgebraElement") -> "AlgebraElement":
        (ga, gb), (gc, gd) = g
        if ga * gd - gb * gc != 1:
            raise ValueError("matrix must have determinant 1")
        out = {}
        for path, c in A.terms.items():
            w = tuple((ga * q + gb * p, gc * q + gd * p) for q, p in path)
            keys = [angle_key(s) for s in w]
            if all(k1 >= k2 for k1, k2 in zip(keys, keys[1:])):
                # g keeps each ray and each length, so a canonical path
                # whose image is in angle order maps to a canonical path
                out[w] = out[w] + c if w in out else c
            else:
                out = self._accumulate_word(w, c, out)
        return AlgebraElement(self, out)

    # -- relation verification ----------------------------------------------

    def chi_coefficients(self):
        """Coefficients of (z - s^2n w)(z - sb^2n w)(z - (s sb)^-2n w).

        Returns {(i, j): scalar} over z^i w^j, i + j = 3.  Formal backend
        only (the curve tower does not contain the parameters themselves).
        """
        if not isinstance(self.ring, FormalRing):
            raise ValueError("functional relations need the formal backend")
        n = self.n
        A = self.ring.monomial(2 * n, 0)
        B = self.ring.monomial(0, 2 * n)
        C = self.ring.monomial(-2 * n, -2 * n)
        one = self.ring.one
        return {
            (3, 0): one,
            (2, 1): -(A + B + C),
            (1, 2): A * B + A * C + B * C,
            (0, 3): -one,
        }

    def verify_quadratic_relations(self, window: int):
        """Coefficient identities of the quadratic functional relations.

        Checks, for all bidegrees in the window, that
        chi_n(z,w) T1(z) T1(w) = chi_-n(z,w) T1(w) T1(z) and the same with
        the theta series in the z slot; returns a list of report rows.

        The torsion-free series slots carry a global normalization constant
        in the eigenform picture; both identities are homogeneous in those
        slots, so the constant cancels bidegree by bidegree and the bare
        generators t_(1,d) can stand in for the normalized coefficients.

        Each product of two series coefficients is formed once per call, and
        each path's coefficient of lhs - rhs is one ``sum_of_products``.
        """
        cc = self.chi_coefficients()
        dd = {(j, i): -c for (i, j), c in cc.items()}  # chi_{-n}(z,w) = -chi_n(w,z)
        dot = self.ring.sum_of_products
        products = {}

        def factor(kind, d):
            if kind == "u":
                return self.generator((1, d))
            return self.theta_ray((0, 1), d) if d >= 0 else self.zero

        def collect(sides, key1, key2, c):
            """Each path's pairs (c, coefficient of the product) into sides."""
            prod = products.get((key1, key2))
            if prod is None:
                prod = products[key1, key2] = factor(*key1) * factor(*key2)
            for p, v in prod.terms.items():
                pairs = sides.get(p)
                if pairs is None:
                    sides[p] = [(c, v)]
                else:
                    pairs.append((c, v))

        rows = []
        for name, kind, alphas in (("T1T1", "u", range(-window, window + 1)),
                                   ("T0T1", "th", range(0, window + 1))):
            for alpha in alphas:
                for beta in range(-window, window + 1):
                    plus, minus = {}, {}
                    for (i, j), c in cc.items():
                        collect(plus, (kind, alpha - i), ("u", beta - j), c)
                    for (i, j), c in dd.items():
                        collect(minus, ("u", beta - j), (kind, alpha - i), c)
                    ok = (all(not dot(pairs, minus.pop(p, ())) for p, pairs in plus.items())
                          and all(not dot((), pairs) for pairs in minus.values()))
                    rows.append({"relation": name, "bidegree": (alpha, beta), "ok": ok})
        return rows

    def verify_cubic_relation(self, m: int) -> bool:
        """Residue relation in three torsion-free series slots, one m at a time.

        Res_{z,y,w} [(zyw)^m (z+w)(y^2 - zw) T1(z) T1(y) T1(w)] must be the
        zero element.
        """

        def u(d):
            return self.generator((1, d))

        # (zyw)^m (z+w)(y^2 - zw) expands into four monomials z^a y^b w^c
        monos = [
            (m + 1, m + 2, m, 1),
            (m, m + 2, m + 1, 1),
            (m + 2, m, m + 1, -1),
            (m + 1, m, m + 2, -1),
        ]
        total = self.zero
        for (ea, eb, ec, sign) in monos:
            term = u(-1 - ea) * u(-1 - eb) * u(-1 - ec)
            total = total + term.scale(sign)
        return total.is_zero()


class AlgebraElement(LinearCombination):
    """Finite linear combination of canonical convex paths."""

    __slots__ = ()

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            return self.owner.multiply(self, other)
        return self.scale(other)

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for p in sorted(self.terms):
            c = self.terms[p]
            word = "*".join(f"t{list(s)}" for s in p) if p else "1"
            bits.append(f"({c})*{word}")
        return " + ".join(bits)
