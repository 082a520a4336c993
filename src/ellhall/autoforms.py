"""Curve-side automorphic data built on the global torsion Hall algebra.

The torsion Hall algebra of a curve is the restricted tensor product of
the local module Hall algebras at the closed points, with local parameter
u_x = q_x^(-1/2).  This module provides:

* point-supported generators T_{(0,r),x} and their character-twisted
  averages over closed points,
* the Green pairing of twisted averages (brute force against the closed
  form),
* Hecke eigenvalue formulas for the cusp eigenforms labeled by primitive
  character orbits: elementary and power-sum eigenvalues, and the
  eigenvalue of the full twisted torsion average,
* the grouplike theta series appearing in the cusp eigenform coproduct,
* truncated Rankin-Selberg products and character L-functions,
* the cusp form census and an exact independence certificate for
  monomials in the twisted averages.

Everything is exact: scalars live in Q(zeta_M)[u]/(u^2 - q).  Each local
Hall algebra is the ring of symmetric functions, with F_k sent to the
power sum p_k, so a twisted average is a linear form in the free
variables P(x, k) = F_k at x.  The independence certificate multiplies
those linear forms after reducing their exact coefficients mod p, and
certifies full rank over F_p, which implies full rank over
Q(zeta_M)[u].
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .curve import (CharacterOrbit, ClosedPoint, CurveData, IdentityMismatch,
                    character_orbits, primitive_orbits)
from .cyclotomic import get_curve_ring
from .dvr_hall import DvrHallAlgebra, aut_count, hall_products, partitions
from .linalg import rank_mod_p
from .scalars import LinearCombination, TruncatedSeries, series_exp

MAX_POINT_DEGREE = 8  # the largest closed-point degree a context enumerates


class AutoformContext:
    """Shared exact environment: curve, scalar ring, local Hall algebras.

    The scalar ring is Q(zeta_M)[u]/(u^2 - q), M the lcm of the Picard
    exponents at ``char_levels``.  The power sums p_k(orbit, x) of the
    eigenvalues, and their conjugates, are kept once computed.
    """

    def __init__(self, curve: CurveData, char_levels=(1,)):
        self.curve = curve
        m = 1
        for lv in char_levels:
            m = lcm(m, curve.picard(lv).exponent)
        self.ring = get_curve_ring(curve.q, m, curve.trace)
        self._local: dict[tuple, DvrHallAlgebra] = {}
        self._points: dict[int, list[ClosedPoint]] = {}
        # (orbit.rep, x.key(), k, conjugate) -> p_k or its conjugate, or None
        self._power_sums: dict[tuple, object] = {}

    def closed_points_dividing(self, N: int) -> list[ClosedPoint]:
        if N > MAX_POINT_DEGREE:
            raise ValueError(f"closed-point degree {N} over context budget "
                             f"{MAX_POINT_DEGREE}")
        pts = self._points.get(N)
        if pts is None:
            all_pts = self.curve.closed_points(N)
            pts = [x for x in all_pts if N % x.degree == 0]
            self._points[N] = pts
        return pts

    def local_algebra(self, x: ClosedPoint) -> DvrHallAlgebra:
        alg = self._local.get(x.key())
        if alg is None:
            q_x = self.curve.q ** x.degree
            alg = DvrHallAlgebra(q_x, ring=self.ring,
                                 u_loc=self.ring.nu ** x.degree)
            self._local[x.key()] = alg
        return alg

    def zero_elem(self) -> "GlobalTorsionElement":
        return GlobalTorsionElement(self, {})

    def one_elem(self) -> "GlobalTorsionElement":
        return GlobalTorsionElement(self, {(): self.ring.one})

    def monomial(self, pairs, coeff=None) -> "GlobalTorsionElement":
        """pairs: iterable of (ClosedPoint, partition)."""
        key = _mono_key(pairs)
        return GlobalTorsionElement(
            self, {key: self.ring.one if coeff is None else coeff})


def _mono_key(pairs):
    items = [((x.key()), tuple(lam)) for x, lam in pairs if lam]
    items.sort()
    return tuple(items)


class GlobalTorsionElement(LinearCombination):
    """Linear combination of multi-point torsion monomials.

    A monomial is a sorted tuple of ((degree, index), partition) entries;
    the component at each closed point lives in the local Hall algebra at
    residue cardinality q^degree.  The owner is the AutoformContext.
    """

    __slots__ = ()

    def __mul__(self, other):
        if isinstance(other, GlobalTorsionElement):
            return _global_multiply(self, other)
        return self.scale(other)

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for mono, c in sorted(self.terms.items()):
            if not mono:
                bits.append(f"({c})*1")
                continue
            word = "*".join(f"O[x{list(k)}]^{list(lam)}" for k, lam in mono)
            bits.append(f"({c})*{word}")
        return " + ".join(bits)


def _global_multiply(A: GlobalTorsionElement, B: GlobalTorsionElement):
    """Product point by point: where both monomials meet at a closed point of
    degree d, each lam enters with the Hall number g^lam_{lam1 lam2}(q^d)."""
    ctx = A.owner
    out: dict = {}
    for m1, c1 in A.terms.items():
        d1 = dict(m1)
        for m2, c2 in B.terms.items():
            c = c1 * c2
            if c.is_zero():
                continue
            d2 = dict(m2)
            # expand point by point
            partials = [((), ctx.ring.one)]
            for key in sorted(set(d1) | set(d2)):
                lam1 = d1.get(key, ())
                lam2 = d2.get(key, ())
                if not lam1 or not lam2:
                    lam = lam1 or lam2
                    partials = [(mono + ((key, lam),), w) for mono, w in partials]
                    continue
                table = hall_products(lam1, lam2, ctx.curve.q ** key[0])
                partials = [
                    (mono + ((key, lam),), w * g)
                    for mono, w in partials
                    for lam, g in table.items()]
            for mono, w in partials:
                v = c * w
                if v.is_zero():
                    continue
                k = tuple(sorted(mono))
                if k in out:
                    out[k] = out[k] + v
                else:
                    out[k] = v
    return GlobalTorsionElement(ctx, out)


def global_coproduct(A: GlobalTorsionElement) -> dict:
    """{(left_monomial, right_monomial): scalar} over the tensor square."""
    ctx = A.owner
    out: dict = {}
    for mono, c in A.terms.items():
        partials = [((), (), ctx.ring.one)]
        for key, lam in mono:
            alg = ctx.local_algebra(ctx.curve.closed_point(key))
            local = alg.coproduct(alg.basis_element(lam))
            partials = [
                (left + ((key, mu),) if mu else left,
                 right + ((key, nu),) if nu else right,
                 w * wl)
                for left, right, w in partials
                for (mu, nu), wl in local.items()]
        for left, right, w in partials:
            v = c * w
            if v.is_zero():
                continue
            k = (tuple(sorted(left)), tuple(sorted(right)))
            out[k] = out[k] + v if k in out else v
    return {k: v for k, v in out.items() if not v.is_zero()}


def global_green_pair(A: GlobalTorsionElement, B: GlobalTorsionElement):
    """Hermitian pairing: diagonal in the monomial basis, 1/#Aut weights."""
    ctx = A.owner
    total = ctx.ring.zero
    for mono, c in A.terms.items():
        d = B.terms.get(mono)
        if d is None:
            continue
        w = Fraction(1)
        for (deg, _idx), lam in mono:
            w /= aut_count(lam, ctx.curve.q ** deg)
        total = total + c * d.conjugate() * w
    return total


# ---------------------------------------------------------------------------
# point-supported generators and twisted averages


def T0r_at_point(ctx: AutoformContext, r: int, x: ClosedPoint) -> GlobalTorsionElement:
    """The degree-r torsion generator supported at x (zero unless |x| | r)."""
    if r < 1:
        raise ValueError("r must be >= 1")
    if r % x.degree:
        return ctx.zero_elem()
    alg = ctx.local_algebra(x)
    front = ctx.ring.nu_integer(r) * Fraction(x.degree, r)
    out = ctx.zero_elem()
    for lam in partitions(r // x.degree):
        coeff = front * alg.n_u(len(lam) - 1)
        out = out + ctx.monomial([(x, lam)], coeff)
    return out


def T0_twisted(ctx: AutoformContext, orbit: CharacterOrbit, N: int) -> GlobalTorsionElement:
    """Twisted average sum_x rho~(x) T_{(0,N),x} over closed points.

    The orbit is evaluated at its own level; it need not divide N (the sum
    is over points of degree dividing N either way).
    """
    out = ctx.zero_elem()
    for x in ctx.closed_points_dividing(N):
        rho_x = orbit.tilde_eval(x, ctx.ring)
        if rho_x.is_zero():
            continue
        out = out + T0r_at_point(ctx, N, x).scale(rho_x)
    return out


def green_pair_twisted(ctx: AutoformContext, rho: CharacterOrbit,
                       sigma: CharacterOrbit, n: int):
    """Pairing of twisted degree-n averages; brute force vs closed form.

    Returns the scalar; raises IdentityMismatch if the two routes disagree.
    """
    if not rho.is_primitive():
        raise ValueError("first orbit must be primitive")
    brute = global_green_pair(T0_twisted(ctx, rho, n), T0_twisted(ctx, sigma, n))
    ring = ctx.ring
    if rho == sigma:
        count = ring.from_int(ctx.curve.count_via_trace(n))
        closed = (ring.nu ** n) * ctx.ring.nu_integer(n) * count \
            * (ring.kappa(n) * n).inverse()
    else:
        closed = ring.zero
    if brute != closed:
        raise IdentityMismatch((brute, closed))
    return closed


# ---------------------------------------------------------------------------
# Hecke eigenvalue formulas


def _minus_point_exponents(orbit: CharacterOrbit, x: ClosedPoint) -> list[int]:
    """zeta_M exponents of rho applied to the inverted classes over x."""
    curve, n = orbit.curve, orbit.level
    pts = curve.points_above(x, n)
    rho = orbit.rep
    return [-rho.value_exponent(P) for P in pts]


def _power_sum_plain(ctx, orbit, x, r, conjugate=False):
    """p_r of the normalized eigenvalues (roots of unity), or None if 0;
    with ``conjugate``, its complex conjugate.  Kept on the context."""
    key = (orbit.rep, x.key(), r, conjugate)
    memo = ctx._power_sums
    if key in memo:
        return memo[key]
    n = orbit.level
    d = gcd(n, x.degree)
    if conjugate:
        value = _power_sum_plain(ctx, orbit, x, r)
        if value is not None:
            value = value.conjugate()
    elif (r * d) % n:
        value = None
    else:
        k = r * d // n
        m_n = orbit.curve.picard(n).exponent
        exps = [e * k for e in _minus_point_exponents(orbit, x)]
        value = ctx.ring.zeta_sum(m_n, exps) * Fraction(n, d)
    memo[key] = value
    return value


def hecke_eigenvalue_elementary(ctx: AutoformContext, orbit: CharacterOrbit,
                                x: ClosedPoint, l: int):
    """Eigenvalue of the rank-l elementary Hecke modification at x.

    Cross-checked against Newton's identities applied to the power sums;
    no root extraction is ever performed.
    """
    n = orbit.level
    if not 1 <= l <= n:
        raise ValueError("l out of range")
    d = gcd(n, x.degree)
    ring = ctx.ring
    if (l * d) % n:
        value = ring.zero
    else:
        lp = l * d // n
        m_n = orbit.curve.picard(n).exponent
        exps = _minus_point_exponents(orbit, x)
        e_lp = _elementary_symmetric(ring, m_n, exps, lp)
        sign = (-1) ** (l + lp)
        value = ring.u ** (x.degree * l * (n - l)) * e_lp * sign
    # Newton cross-check on the undressed eigenvalues
    e_prev = [ring.one]
    for j in range(1, l + 1):
        total = ring.zero
        for k in range(1, j + 1):
            p_k = _power_sum_plain(ctx, orbit, x, k)
            if p_k is None:
                continue
            term = e_prev[j - k] * p_k
            total = total + (term if (k - 1) % 2 == 0 else -term)
        e_prev.append(total * Fraction(1, j))
    newton = ring.u ** (x.degree * l * (n - l)) * e_prev[l]
    if newton != value:
        raise IdentityMismatch((value, newton))
    return value


def _elementary_symmetric(ring, m_n, exps, k):
    poly = [ring.one]
    for e in exps:
        root = ring.zeta(m_n, e)
        new = [ring.zero] * (len(poly) + 1)
        for i, c in enumerate(poly):
            new[i] = new[i] + c
            new[i + 1] = new[i + 1] + c * root
        poly = new
    return poly[k] if k < len(poly) else ring.zero


def hecke_T0N_eigenvalue(ctx: AutoformContext, rho: CharacterOrbit,
                         sigma: CharacterOrbit, N: int):
    """Eigenvalue of the degree-N twisted torsion average on the eigenform.

    Computed both as the literal character sum over Pic^0(X_N) and by the
    closed form (zero unless sigma is the norm of rho); checked equal.
    """
    if not rho.is_primitive():
        raise ValueError("rho must be primitive")
    n = rho.level
    if N % n or sigma.level != N:
        raise ValueError("need n | N and sigma at level N")
    curve = ctx.curve
    ring = ctx.ring
    norm_rho = rho.rep.norm_to(N)
    # character sum: ([N] n / N^2) q^{N(n-1)/2} #X(F_{q^N})
    #                * sum_i <Fr^i(sigma), Norm(rho)>
    pts = curve.points(N)
    norm_exps = [norm_rho.value_exponent(P) for P in pts]
    exps = []
    sig = sigma.rep
    for _ in range(N):
        exps.extend(sig.value_exponent(P) - e for P, e in zip(pts, norm_exps))
        sig = sig.frobenius()
    hits = ring.zeta_sum(curve.picard(N).exponent, exps) * Fraction(1, len(pts))
    count = curve.count_via_trace(N)
    front = ctx.ring.nu_integer(N) * Fraction(n, N * N) * (ring.u ** (N * (n - 1))) * count
    char_sum_value = front * hits
    if sigma == rho.norm_to(N):
        closed = ctx.ring.nu_integer(N) * Fraction(1, N) * (ring.u ** (N * (n - 1))) * count
    else:
        closed = ring.zero
    if char_sum_value != closed:
        raise IdentityMismatch((char_sum_value, closed))
    return closed


# ---------------------------------------------------------------------------
# theta coproduct series


def theta_coproduct_coefficients(ctx: AutoformContext, orbit: CharacterOrbit,
                                 d_max: int) -> list[GlobalTorsionElement]:
    """Coefficients theta_0..theta_{d_max} of the grouplike coproduct series

        sum_d theta_d s^d = exp(n (v^-1 - v) sum_l T^{Norm(rho)}_{(0,nl)} s^l).
    """
    n = orbit.level
    ring = ctx.ring
    kappa = ring.kappa(n)
    inner = {}
    for ell in range(1, d_max + 1):
        normed = orbit.norm_to(n * ell)
        inner[ell] = T0_twisted(ctx, normed, n * ell).scale(kappa)
    series = series_exp(TruncatedSeries(inner, d_max, ctx.one_elem()))
    return [series.coefficient(k) for k in range(d_max + 1)]


# ---------------------------------------------------------------------------
# L-functions


def l_function(ctx: AutoformContext, rho1: CharacterOrbit, rho2: CharacterOrbit,
               order: int) -> TruncatedSeries:
    """Truncated Rankin-Selberg product of the two labeled eigenforms.

    log L(f,g,t) = sum_x sum_k conj(p_k(f at x)) p_k(g at x) t^{k|x|} / k,
    with the power sums taken on the unit-circle normalized eigenvalues.
    """
    if not (rho1.is_primitive() and rho2.is_primitive()):
        raise ValueError("both orbits must be primitive")
    ring = ctx.ring
    log_coeffs: dict[int, object] = {}
    for x in ctx.curve.closed_points(order):
        f = x.degree
        for k in range(1, order // f + 1):
            p1_bar = _power_sum_plain(ctx, rho1, x, k, conjugate=True)
            if p1_bar is None:
                continue
            p2 = _power_sum_plain(ctx, rho2, x, k)
            if p2 is None:
                continue
            val = p1_bar * p2 * Fraction(1, k)
            deg = k * f
            log_coeffs[deg] = log_coeffs.get(deg, ring.zero) + val
    series = TruncatedSeries(log_coeffs, order, ring.one)
    return series_exp(series)


def zeta_xn_series(ctx: AutoformContext, n: int, order: int) -> TruncatedSeries:
    """zeta_{X_n}(t^n) truncated, coefficients in the scalar ring."""
    ring = ctx.ring
    base = ctx.curve.zeta_series(n, order // n if n else order)
    coeffs = {n * k: ring.from_fraction(v) for k, v in enumerate(base) if n * k <= order}
    return TruncatedSeries(coeffs, order, ring.one)


def character_l_function(level_curve: CurveData, chi, order: int) -> TruncatedSeries:
    """Truncated Euler product prod_y (1 - chi(O(y)) t^{|y|}).

    chi must restrict nontrivially to the degree-0 Picard group; the
    product then collapses to 1, which the caller can assert against the
    returned truncation.
    """
    if chi.is_trivial():
        raise ValueError("character must be nontrivial on Pic^0")
    m1 = level_curve.picard(1).exponent
    ring = get_curve_ring(level_curve.q, m1, level_curve.trace)
    series = TruncatedSeries({0: ring.one}, order, ring.one)
    for y in level_curve.closed_points(order):
        P = level_curve.points_above(y, 1)[0]
        e = chi.value_exponent(P)
        factor = TruncatedSeries({0: ring.one, y.degree: -ring.zeta(m1, e)},
                                 order, ring.one)
        series = series * factor
    return series


# ---------------------------------------------------------------------------
# cusp form census and independence certificate


def cusp_dimension(curve: CurveData, n: int) -> int:
    """Dimension of the space of cusp forms of rank n in degree 0."""
    return len(primitive_orbits(curve, n))


REDUCTION_PRIME_FLOOR = 10 ** 6


def find_reduction_prime(ring):
    """The least prime p > REDUCTION_PRIME_FLOOR with zeta_M and sqrt(q)
    images in F_p, plus those images."""
    m, q = ring.m, ring.q

    def is_prime(k):
        if k < 2:
            return False
        i = 2
        while i * i <= k:
            if k % i == 0:
                return False
            i += 1
        return True

    p = REDUCTION_PRIME_FLOOR
    while True:
        p += 1
        if not is_prime(p) or (p - 1) % m:
            continue
        if pow(q % p, (p - 1) // 2, p) != 1:
            continue
        # generator-power root of unity of exact order m
        g = 2
        while (pow(g, (p - 1) // 2, p) == 1
               or not _has_order(pow(g, (p - 1) // m, p), m, p)):
            g += 1
        zeta_img = pow(g, (p - 1) // m, p)
        u_img = _sqrt_mod(q % p, p)
        return p, zeta_img, u_img


def _has_order(z, m, p):
    """Whether z has multiplicative order exactly m modulo the prime p."""
    return pow(z, m, p) == 1 and all(pow(z, k, p) != 1 for k in range(1, m))


def _sqrt_mod(a, p):
    """The square root r of a mod the prime p with r <= p - r (Tonelli-Shanks)."""
    a %= p
    if not a or pow(a, (p - 1) // 2, p) != 1:
        raise ValueError("no square root mod p")
    # p - 1 = odd * 2^s, and z a non-residue
    odd, s = p - 1, 0
    while odd % 2 == 0:
        odd //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    c, t, r = pow(z, odd, p), pow(a, odd, p), pow(a, (odd + 1) // 2, p)
    while t != 1:
        # least i with t^(2^i) = 1; then i < s
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (s - i - 1), p)
        s, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return min(r, p - r)


def _check_images(ring, p: int, zeta_img: int, u_img: int) -> None:
    """Raise ValueError unless zeta_img has order M and u_img^2 = q mod p."""
    if not _has_order(zeta_img, ring.m, p):
        raise ValueError(f"{zeta_img} does not have order {ring.m} mod {p}")
    if (u_img * u_img - ring.q) % p:
        raise ValueError(f"{u_img}^2 is not {ring.q} mod {p}")


def _power_sum_form(ctx: AutoformContext, elem: GlobalTorsionElement) -> dict:
    """{(point key, k): coefficient} of a sum of the T_{(0,r),x}, as a linear
    form in the variables P(x, k) := F_k at x.

    The coefficient of P(x, k) is that of the one-part partition (k,) at x
    (n_u(0) = 1).  Raises IdentityMismatch unless the whole component at x
    is that coefficient times ``F_element(k)`` of the local algebra.
    """
    components: dict = {}
    for ((key, lam),), c in elem.terms.items():
        components.setdefault(key, {})[lam] = c
    form = {}
    for key, comp in components.items():
        k = sum(next(iter(comp)))
        coeff = comp.get((k,), ctx.ring.zero)
        alg = ctx.local_algebra(ctx.curve.closed_point(key))
        if alg.F_element(k).scale(coeff).terms != comp:
            raise IdentityMismatch(f"the component at x{list(key)} is not a multiple of F_{k}")
        form[key, k] = coeff
    return form


def _times_form(poly: dict, form: list, p: int) -> dict:
    """poly * form over F_p; poly is keyed by sorted tuples of variable
    indices, form is a list of (variable index, residue)."""
    out: dict = {}
    for key, c in poly.items():
        for v, a in form:
            k = tuple(sorted(key + (v,)))
            out[k] = (out.get(k, 0) + c * a) % p
    return {k: c for k, c in out.items() if c}


def monomial_independence_rank(ctx: AutoformContext, levels, max_total_degree: int):
    """Exact rank certificate for monomials in the twisted torsion averages.

    The family is {T^rho~_{(0,d)} : d in levels, rho~ a Frobenius orbit at
    level d}, and a monomial is a multiset over it of total degree
    1..max_total_degree.  Returns (number of monomials, their rank).

    The torsion Hall algebra is the tensor product of the local Hall
    algebras at the closed points, and each local one is the ring of
    symmetric functions with F_k sent to the power sum p_k (Macdonald,
    ch. III; criterion 3 checks the bridge).  Over the fraction field of
    the scalar ring the P(x, k) := F_k at x are therefore free commuting
    variables, and their monomials are a basis.  Each twisted average is a
    linear form in them (:func:`_power_sum_form`, read off
    :func:`T0_twisted`), so a monomial in the averages is a product of
    linear forms.  Its coefficients lie in Z_(p)[zeta_M][u] for the prime
    p of :func:`find_reduction_prime`, and ``CurveScalar.reduce_mod`` is a
    ring homomorphism from there to F_p.  So the matrix built here over
    F_p is the reduction of the exact coefficient matrix in the P-monomial
    basis: a nonzero maximal minor mod p reduces a nonzero minor, and full
    rank over F_p certifies full rank in characteristic 0.
    """
    p, zeta_img, u_img = find_reduction_prime(ctx.ring)
    _check_images(ctx.ring, p, zeta_img, u_img)
    variables: dict = {}
    family = []
    for d in levels:
        for orbit in character_orbits(ctx.curve, d):
            form = _power_sum_form(ctx, T0_twisted(ctx, orbit, d))
            family.append((d, [(variables.setdefault(v, len(variables)),
                                c.reduce_mod(p, zeta_img, u_img))
                               for v, c in form.items()]))
    monos = [(0, {(): 1})]
    for d, form in family:
        extended = list(monos)
        for total, poly in monos:
            while total + d <= max_total_degree:
                poly = _times_form(poly, form, p)
                total += d
                extended.append((total, poly))
        monos = extended
    columns: dict = {}
    rows = [{columns.setdefault(key, len(columns)): c for key, c in poly.items()}
            for _, poly in monos[1:]]
    return len(rows), rank_mod_p(rows, len(columns), p)
