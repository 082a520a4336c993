"""The classical Hall algebra of finite torsion modules over F_q[[t]].

Isomorphism classes are partitions (I_lambda = direct sum of t-power
quotients).  Hall numbers are computed by enumeration of t-stable
subspaces in row-reduced form, so every structure constant at a concrete
prime power is an honest count.  With the basis ordered by depth, t moves
each leading index to a later one, so the pivot set of a t-stable subspace
is closed under t, and only such echelon forms are enumerated; the
quotient type is read off the pivots (dim N ∩ t^j M is the number of
pivots at depth >= j) and the submodule type off the ranks dim t^j N.
:func:`hall_products` tabulates
g^lam_{mu nu}(q) once per (mu, nu, q) and is the only source of product
structure constants, here and in the global torsion algebra of
:mod:`ellhall.autoforms`.  On top of that sit the automorphism counts, the
Green pairing, the coproduct, the primitive elements F_r, and the
bialgebra bridge to symmetric functions determined by sending the full
elementary module of rank r to u^{r(r-1)} e_r.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product

from .curve import IdentityMismatch
from .cyclotomic import get_curve_ring
from .finitefield import factor_prime_power, get_field
from .linalg import invert_matrix
from .scalars import LinearCombination

# ---------------------------------------------------------------------------
# partitions


def partitions(n: int, max_part: int | None = None):
    """All partitions of n as decreasing tuples."""
    if n == 0:
        yield ()
        return
    if max_part is None or max_part > n:
        max_part = n
    for first in range(max_part, 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def conjugate(lam) -> tuple:
    if not lam:
        return ()
    return tuple(sum(1 for part in lam if part > i) for i in range(lam[0]))


def aut_count(lam, q: int) -> int:
    """#Aut(I_lambda) over F_q by the standard closed formula."""
    lamc = conjugate(lam)
    exp = sum(c * c for c in lamc)
    mults: dict[int, int] = {}
    for part in lam:
        mults[part] = mults.get(part, 0) + 1
    val = Fraction(q) ** exp
    for m in mults.values():
        for j in range(1, m + 1):
            val *= 1 - Fraction(1, q) ** j
    if val.denominator != 1:
        raise IdentityMismatch(f"automorphism count {val} is not an integer")
    return int(val)


def aut_count_bruteforce(lam, q: int) -> int:
    """Invertible module endomorphisms of I_lambda counted directly.

    An endomorphism is fixed by the images v_i of the block generators, and
    v_i may be any vector with t^lambda_i v_i = 0: in block j the depths
    >= lambda_j - lambda_i, so there are q^(sum min(lambda_i, lambda_j))
    endomorphisms.  One is invertible when the images t^d v_i, d <
    lambda_i, have full rank.  The generators are placed in turn, and a
    placement is kept while its images stay independent of the span of
    those before (a set of vectors), so every invertible endomorphism is
    reached once, at full rank.
    """
    m = sum(lam)
    F = _gf(q)
    T = _shift_map(lam)
    index = _depth_index(lam)
    kernels = [[index[d, j] for j, part_j in enumerate(lam)
                for d in range(max(0, part_j - part_i), part_j)] for part_i in lam]
    if q ** sum(map(len, kernels)) > 10 ** 6:
        raise ValueError("brute-force automorphism count out of budget")
    images = []  # per generator: (v, t v, ..., t^(lambda_i - 1) v) for each v
    for part, coords in zip(lam, kernels):
        images.append([])
        for vals in product(range(q), repeat=len(coords)):
            v = [0] * m
            for k, c in zip(coords, vals):
                v[k] = c
            powers = []
            for _ in range(part):
                powers.append(tuple(v))
                v = _apply_shift(v, T, F)
            images[-1].append(powers)

    def placements(i, span):
        # ways to place generators i, i + 1, ... independently of span
        if i == len(lam):
            return 1
        count = 0
        for powers in images[i]:
            grown = span
            for k, w in enumerate(powers, 1):
                if w in grown:
                    break
                if k < len(powers) or i + 1 < len(lam):  # grown is read again
                    grown = {tuple(F.add[a][F.mul[c][b]] for a, b in zip(u, w))
                             for u in grown for c in range(q)}
            else:
                count += placements(i + 1, grown)
        return count

    return placements(0, {(0,) * m})


# ---------------------------------------------------------------------------
# small-field tables for the enumerations


class _GFTables:
    """Index tables of F_q: zero at index 0, one at 1, the rest in field order.

    For a prime q the residue c sits at index c.
    """

    def __init__(self, q: int):
        self.q = q
        field = get_field(*factor_prime_power(q))
        elems = [field.zero, field.one] + [e for e in field
                                           if e != field.zero and e != field.one]
        index = {e: i for i, e in enumerate(elems)}
        self.add = [[index[a + b] for b in elems] for a in elems]
        self.sub = [[index[a - b] for b in elems] for a in elems]
        self.mul = [[index[a * b] for b in elems] for a in elems]
        self.neg = [index[-a] for a in elems]
        self.inv = [0] + [index[elems[i].inverse()] for i in range(1, q)]


@lru_cache(maxsize=None)
def _gf(q: int) -> _GFTables:
    return _GFTables(q)


def _depth_index(lam) -> dict:
    """{(d, b): index} for the basis of I_lambda sorted by (depth d, block b).

    (d, b) is t^d applied to the generator of block b, so t sends it to the
    later (d + 1, b), or to 0 when d + 1 = lambda_b, and t^j I_lambda is
    spanned by the suffix of the basis at depth >= j.
    """
    order = sorted((d, b) for b, part in enumerate(lam) for d in range(part))
    return {key: k for k, key in enumerate(order)}


def _shift_map(lam):
    """Index map of the t action on the depth-ordered basis of I_lambda."""
    index = _depth_index(lam)
    return [index.get((d + 1, b)) for d, b in index]


# ---------------------------------------------------------------------------
# submodule enumeration


SUBSPACE_BUDGET = 300_000


def _closed_pivot_sets(lam):
    """Every set of depth-ordered basis indices that t maps into itself, as a
    sorted tuple: from each block b the depths d >= s_b, 0 <= s_b <= lambda_b.
    """
    index = _depth_index(lam)
    for cut in product(*(range(part + 1) for part in lam)):
        yield tuple(sorted(index[d, b] for b, part in enumerate(lam)
                           for d in range(cut[b], part)))


def _echelon_forms(pivots, m: int, q: int):
    """All reduced row-echelon matrices over F_q with m columns and these pivots."""
    free_pos = [(i, c) for i, p in enumerate(pivots)
                for c in range(p + 1, m) if c not in pivots]
    base = [[int(c == p) for c in range(m)] for p in pivots]
    for vals in product(range(q), repeat=len(free_pos)):
        rows = [list(row) for row in base]
        for (i, c), v in zip(free_pos, vals):
            rows[i][c] = v
        yield [tuple(row) for row in rows]


def _reduce_vector(vec, pivots, rows, F):
    v = list(vec)
    for i, p in enumerate(pivots):
        if v[p]:
            f = v[p]
            row = rows[i]
            v = [F.sub[a][F.mul[f][b]] for a, b in zip(v, row)]
    return v


def _apply_shift(vec, T, F):
    out = [0] * len(vec)
    for i, c in enumerate(vec):
        if c and T[i] is not None:
            out[T[i]] = F.add[out[T[i]]][c]
    return out


def _rank_int(rows, F):
    work = [list(r) for r in rows if any(r)]
    m = len(work[0]) if work else 0
    r = 0
    for c in range(m):
        piv = None
        for i in range(r, len(work)):
            if work[i][c]:
                piv = i
                break
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        inv = F.inv[work[r][c]]
        work[r] = [F.mul[inv][v] for v in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c]:
                f = work[i][c]
                work[i] = [F.sub[a][F.mul[f][b]] for a, b in zip(work[i], work[r])]
        r += 1
    return r


def _type_from_dims(dims) -> tuple:
    """Type of a t-module X from dims[j] = dim t^j X, j = 0, 1, ...

    dim t^(j-1) X - dim t^j X is the number of parts >= j, so the type is
    the conjugate of the successive drops (Macdonald, ch. II.1).
    """
    if dims[-1]:
        raise IdentityMismatch(f"dim t^j X = {dims[-1]} after {len(dims) - 1} steps")
    return conjugate(tuple(a - b for a, b in zip(dims, dims[1:])))


def _quotient_type(lam, pivots) -> tuple:
    """Type of I_lambda/N for a t-stable N with these pivots (depth order).

    dim t^j(M/N) = dim t^j M - dim(N ∩ t^j M), with M = I_lambda.  t^j M is
    spanned by the suffix of the basis at depth >= j, a vector of N lies in
    it exactly when its leading index does, and the echelon rows of N with
    pivots in the suffix span N ∩ t^j M; so dim(N ∩ t^j M) is the number of
    pivots in that suffix, and no elimination is needed.
    """
    m = sum(lam)
    dims = []
    for j in range(lam[0] + 1 if lam else 1):
        start = sum(min(part, j) for part in lam)
        dims.append(m - start - sum(1 for p in pivots if p >= start))
    return _type_from_dims(dims)


@lru_cache(maxsize=None)
def submodule_census(lam: tuple, q: int):
    """All t-stable subspaces of I_lambda, classified by (quotient, sub) type.

    Returns {(mu, nu): count} with nu the type of the submodule N and mu the
    type of the quotient M/N.  In the depth-ordered basis the leading index
    of t.v is t of the leading index of v whenever that is defined, so the
    pivot set of a t-stable N in reduced echelon form is closed under t;
    only echelon forms with such pivots are enumerated, and each is checked
    for stability in full.  mu is read off the pivots alone: dim t^j(M/N)
    is dim t^j M less the number of pivots at depth >= j
    (:func:`_quotient_type`).  nu is read off the ranks of t^j applied to
    a basis of N.
    """
    m = sum(lam)
    F = _gf(q)
    T = _shift_map(lam)
    steps = lam[0] if lam else 0
    est = _subspace_count_estimate(m, q)
    if est > SUBSPACE_BUDGET:
        raise ValueError(
            f"subspace enumeration for |lambda|={m}, q={q} needs ~{est} "
            f"candidates, over budget {SUBSPACE_BUDGET}")
    counts: dict[tuple, int] = {}
    for pivots in _closed_pivot_sets(lam):
        quot = _quotient_type(lam, pivots)
        for rows in _echelon_forms(pivots, m, q):
            images = [_apply_shift(row, T, F) for row in rows]
            if any(any(_reduce_vector(img, pivots, rows, F)) for img in images):
                continue
            sub_dims = [len(pivots)]
            while sub_dims[-1] and len(sub_dims) <= steps:
                sub_dims.append(_rank_int(images, F))
                images = [_apply_shift(v, T, F) for v in images]
            key = (quot, tuple(sub_dims))
            counts[key] = counts.get(key, 0) + 1
    return {(quot, _type_from_dims(dims)): g for (quot, dims), g in counts.items()}


def _subspace_count_estimate(m: int, q: int) -> int:
    total = 0
    for r in range(m + 1):
        g = 1
        for i in range(r):
            g = g * (q ** (m - i) - 1) // (q ** (i + 1) - 1)
        total += g
    return total


@lru_cache(maxsize=None)
def hall_products(mu: tuple, nu: tuple, q: int) -> dict:
    """{lam: g} with g = g^lam_{mu nu}(q) > 0: [I_mu][I_nu] = sum g [I_lam].

    The one table of product structure constants, read off the census of
    each lam; callers share the cached dict and must not change it.
    """
    out = {}
    for lam in partitions(sum(mu) + sum(nu)):
        g = submodule_census(lam, q).get((mu, nu))
        if g:
            out[lam] = g
    return out


# ---------------------------------------------------------------------------
# the Hall algebra


class DvrHallAlgebra:
    """Hall algebra of torsion F_q[[t]]-modules with exact scalar ring.

    The deformation parameter is u_loc with u_loc^(-2) = q_loc; by default
    scalars live in Q(sqrt(q_loc)) and u_loc = 1/sqrt(q_loc).
    """

    def __init__(self, q_loc: int, ring=None, u_loc=None):
        self.q = q_loc
        self.ring = ring if ring is not None else get_curve_ring(q_loc, 1)
        self.u = u_loc if u_loc is not None else self.ring.nu
        if self.u ** -2 != self.ring.from_int(q_loc):
            raise IdentityMismatch("u_loc must square to 1/q_loc")
        self.one = DvrHallElement(self, {(): self.ring.one})
        self.zero = DvrHallElement(self, {})
        self._iso_cache: dict[int, dict] = {}

    def basis_element(self, lam) -> "DvrHallElement":
        return DvrHallElement(self, {tuple(lam): self.ring.one})

    def element(self, terms: dict) -> "DvrHallElement":
        return DvrHallElement(self, {tuple(k): v for k, v in terms.items()})

    def multiply(self, A: "DvrHallElement", B: "DvrHallElement") -> "DvrHallElement":
        if A.owner.q != self.q or B.owner.q != self.q:
            raise ValueError("cannot mix Hall algebras at different prime powers")
        out: dict = {}
        for mu, cm in A.terms.items():
            for nu, cn in B.terms.items():
                c = cm * cn
                for lam, g in hall_products(mu, nu, self.q).items():
                    v = c * g
                    out[lam] = out[lam] + v if lam in out else v
        return DvrHallElement(self, out)

    def coproduct(self, A: "DvrHallElement") -> dict:
        """Tensor expansion {(mu, nu): scalar}."""
        out: dict = {}
        for lam, c in A.terms.items():
            a_lam = aut_count(lam, self.q)
            for (mu, nu), g in submodule_census(lam, self.q).items():
                w = Fraction(g * aut_count(mu, self.q) * aut_count(nu, self.q), a_lam)
                v = c * w
                key = (mu, nu)
                out[key] = out[key] + v if key in out else v
        return {k: v for k, v in out.items() if not v.is_zero()}

    def green_pair(self, A: "DvrHallElement", B: "DvrHallElement"):
        """Hermitian Hopf pairing: ( [F], [G] ) = delta_{F,G} / #Aut(F)."""
        total = self.ring.zero
        for lam, c in A.terms.items():
            d = B.terms.get(lam)
            if d is not None:
                total = total + c * d.conjugate() * Fraction(1, aut_count(lam, self.q))
        return total

    def n_u(self, length: int) -> int:
        """n_u(l) = prod_{i<=l} (1 - u^{-2i}) = prod (1 - q^i), an integer."""
        val = 1
        for i in range(1, length + 1):
            val *= 1 - self.q ** i
        return val

    def F_element(self, r: int) -> "DvrHallElement":
        """The primitive power-sum preimage F_r."""
        if r < 1:
            raise ValueError("r must be >= 1")
        terms = {}
        for lam in partitions(r):
            terms[lam] = self.ring.from_int(self.n_u(len(lam) - 1))
        return self.element(terms)

    # -- bridge to symmetric functions ----------------------------------

    def _e_product(self, mu) -> "DvrHallElement":
        """E_mu = u^{-sum mu_i(mu_i - 1)} prod [I_(1^mu_i)], the image of e_mu."""
        prod_elem = self.one
        for part in mu:
            prod_elem = self.multiply(prod_elem, self.basis_element((1,) * part))
        return prod_elem.scale(self.u ** (-sum(p * (p - 1) for p in mu)))

    def _e_images(self, degree: int) -> dict:
        """For each partition lam of degree: expansion of [I_lam] over the
        products E_mu."""
        cached = self._iso_cache.get(degree)
        if cached is not None:
            return cached
        parts = list(partitions(degree))
        e_products = {mu: self._e_product(mu) for mu in parts}
        # matrix rows indexed by mu, columns by lam
        mat = [[e_products[mu].terms.get(lam, self.ring.zero) for lam in parts]
               for mu in parts]
        inv = invert_matrix(mat, self.ring.one)
        expansion = {}
        for j, lam in enumerate(parts):
            expansion[lam] = {parts[i]: inv[j][i] for i in range(len(parts))
                              if not inv[j][i].is_zero()}
        self._iso_cache[degree] = expansion
        return expansion

    def to_symmetric(self, A: "DvrHallElement") -> "SymmetricFunction":
        """The bialgebra isomorphism into symmetric functions (p-basis)."""
        out = SymmetricFunction(self.ring, {})
        for lam, c in A.terms.items():
            exp = self._e_images(sum(lam))[lam]
            for mu, w in exp.items():
                out = out + e_monomial(self.ring, mu).scale(c * w)
        return out


class DvrHallElement(LinearCombination):
    """Linear combination of isomorphism classes (partitions)."""

    __slots__ = ()

    def __mul__(self, other):
        if isinstance(other, DvrHallElement):
            return self.owner.multiply(self, other)
        return self.scale(other)

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"({c})*I{list(lam)}"
                          for lam, c in sorted(self.terms.items()))


# ---------------------------------------------------------------------------
# symmetric functions in the power-sum basis


class SymmetricFunction(LinearCombination):
    """Linear combination of power-sum monomials p_lambda over a ring."""

    __slots__ = ()

    def __mul__(self, other):
        if isinstance(other, SymmetricFunction):
            out = {}
            for la, ca in self.terms.items():
                for lb, cb in other.terms.items():
                    key = tuple(sorted(la + lb, reverse=True))
                    v = ca * cb
                    out[key] = out[key] + v if key in out else v
            return SymmetricFunction(self.owner, out)
        return self.scale(other)

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"({c})*p{list(lam)}"
                          for lam, c in sorted(self.terms.items()))


def p_monomial(ring, lam) -> SymmetricFunction:
    return SymmetricFunction(ring, {tuple(lam): ring.one})


def _z_lambda(lam) -> int:
    z = 1
    mults: dict[int, int] = {}
    for part in lam:
        mults[part] = mults.get(part, 0) + 1
    fact = 1
    for part, m in mults.items():
        for j in range(1, m + 1):
            fact *= j
        z *= part ** m
    return z * fact


def e_monomial(ring, mu) -> SymmetricFunction:
    """e_mu = prod e_{mu_i} expanded in the p basis."""
    out = SymmetricFunction(ring, {(): ring.one})
    for part in mu:
        piece = SymmetricFunction(ring, {})
        for lam in partitions(part):
            sign = (-1) ** (part - len(lam))
            piece = piece + p_monomial(ring, lam).scale(
                Fraction(sign, _z_lambda(lam)))
        out = out * piece
    return out
