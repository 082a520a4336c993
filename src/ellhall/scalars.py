"""Exact coefficient arithmetic, sparse linear combinations and series.

Formal backend: the Laurent ring Q[s^+-1, sb^+-1] from
:mod:`ellhall.ratfunc`, where s, sb are square roots of the two
deformation parameters sigma, sigma-bar and nu = 1/(s*sb).  Only monomials
are units there: a quotient by anything else is exact division, which
raises ArithmeticError unless the divisor divides.

Curve backend: Q(zeta_M)[u]/(u^2 - q) from :mod:`ellhall.cyclotomic`,
where the specialized quantities reduce through sigma*sigma-bar = q and the
trace recursion t_i = a*t_{i-1} - q*t_{i-2}.

Both rings expose the same protocol: ``zero``, ``one``, the loop weight
``nu`` and the structure constants ``nu_integer(r)``, ``c_coefficient(i)``
and ``kappa(n)``.  Both element types support +, -, *, /, ** and
multiplication by int or Fraction, and are false exactly when zero.

Every algebra of the package is a free module with a sparse basis over
these rings; :class:`LinearCombination` holds the module structure once
(with division by a scalar, coefficient by coefficient), and each algebra
adds only its product.  :class:`TruncatedSeries` keeps power series with
the same zero rule: construction drops zero coefficients, so an element is
zero exactly when it has no terms.

Scalars and elements are immutable values and safe to share across
threads; ring construction goes through a per-process cache.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

__all__ = ["LinearCombination", "TruncatedSeries", "series_exp"]


class LinearCombination:
    """Finite linear combination {basis key: nonzero coefficient}.

    ``owner`` is the algebra (or ring) the element lives in.  Coefficients
    may be scalars, Fractions or elements of another algebra: anything that
    supports +, * and is false exactly when zero.  Subclasses are built as
    ``cls(owner, terms)`` and define the product.
    """

    __slots__ = ("owner", "terms")

    def __init__(self, owner, terms: dict):
        self.owner = owner
        self.terms = {k: v for k, v in terms.items() if v}

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def scale(self, c):
        if not c:
            return type(self)(self.owner, {})
        return type(self)(self.owner, {k: v * c for k, v in self.terms.items()})

    def __truediv__(self, c):
        """Each coefficient divided by the scalar c."""
        return type(self)(self.owner, {k: v / c for k, v in self.terms.items()})

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out[k] + v if k in out else v
        return type(self)(self.owner, out)

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out[k] - v if k in out else -v
        return type(self)(self.owner, out)

    def __neg__(self):
        return type(self)(self.owner, {k: -v for k, v in self.terms.items()})

    def __rmul__(self, c):
        return self.scale(c)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.owner is other.owner and self.terms == other.terms


class TruncatedSeries:
    """Power series truncated at a fixed order, exact coefficients.

    Coefficients may live in any of the package's coefficient-like rings
    (scalars, algebra elements, plain Fractions): they must support +, *
    and multiplication by Fraction.  Not a :class:`LinearCombination`: the
    sum of two series is truncated at the smaller order, and the
    constructor carries the order and the coefficient ring's one.
    """

    __slots__ = ("terms", "order", "one")

    def __init__(self, terms: dict, order: int, one):
        if order < 0:
            raise ValueError("order must be >= 0")
        self.order = order
        self.one = one
        self.terms = {k: v for k, v in terms.items() if k <= order and v}

    @classmethod
    def constant(cls, value, order: int, one):
        return cls({0: value}, order, one)

    def coefficient(self, k: int):
        c = self.terms.get(k)
        if c is None:
            return self.one * 0
        return c

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other):
        if isinstance(other, TruncatedSeries):
            out = dict(self.terms)
            for k, v in other.terms.items():
                out[k] = out[k] + v if k in out else v
            return TruncatedSeries(out, min(self.order, other.order), self.one)
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, TruncatedSeries):
            return self + (-other)
        return NotImplemented

    def __neg__(self):
        return TruncatedSeries({k: -v for k, v in self.terms.items()}, self.order, self.one)

    def scale(self, c):
        return TruncatedSeries({k: v * c for k, v in self.terms.items()},
                               self.order, self.one)

    def __mul__(self, other):
        if isinstance(other, TruncatedSeries):
            order = min(self.order, other.order)
            out = {}
            for i, a in self.terms.items():
                for j, b in other.terms.items():
                    if i + j <= order:
                        p = a * b
                        out[i + j] = out[i + j] + p if i + j in out else p
            return TruncatedSeries(out, order, self.one)
        return self.scale(other)

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.order == other.order and self.terms == other.terms

    def __repr__(self):
        body = " + ".join(f"({v})*z^{k}" for k, v in sorted(self.terms.items()))
        return f"TruncatedSeries({body or '0'}; O(z^{self.order + 1}))"


def series_exp(a: TruncatedSeries) -> TruncatedSeries:
    """exp of a series with zero constant term."""
    if 0 in a.terms:
        raise ValueError("series_exp needs zero constant term")
    out = TruncatedSeries.constant(a.one, a.order, a.one)
    power = out
    for k in range(1, a.order + 1):
        power = power * a
        if not power:
            break
        out = out + power.scale(Fraction(1, factorial(k)))
    return out
