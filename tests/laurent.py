"""Oracles for Q[s^+-1, sb^+-1]: what a FormalScalar stands for, computed
from its fields alone, without the arithmetic of ``ellhall.ratfunc``.

A Laurent polynomial over Q is a dict {(i, j): Fraction} of nonzero
coefficients; ``value`` reads one off a FormalScalar, and ``fields`` gives
the (num, den) pair the ring must store for it.  ``Quotient`` holds a value
of Q(s, sb) outside the ring as a numerator over a divisor, and ``alpha``
builds sample values of the ring.
"""

from fractions import Fraction
from math import gcd, lcm

from ellhall import ratfunc


def evaluate(x, s, sb):
    """x at rational s and sb, term by term."""
    total = sum((Fraction(c) * s ** i * sb ** j for (i, j), c in x.num.items()), Fraction(0))
    return total / x.den


def value(x):
    """The Laurent polynomial over Q that x stands for."""
    return {m: Fraction(c, x.den) for m, c in x.num.items()}


def fields(p):
    """The (num, den) of the Laurent polynomial p: integer coefficients in
    lowest terms against den, and a positive coefficient at max(num)."""
    if not p:
        return {}, 1
    den = lcm(*(c.denominator for c in p.values()))
    num = {m: int(c * den) for m, c in p.items()}
    g = gcd(den, *num.values())
    if num[max(num)] < 0:
        g = -g
    return {m: c // g for m, c in num.items()}, den // g


def alpha(i):
    """alpha_i = (1 - s^2i)(1 - sb^2i)(1 - (s sb)^-2i) / i, in the ring."""
    R = ratfunc.FORMAL
    return ((R.one - R.s ** (2 * i)) * (R.one - R.sb ** (2 * i))
            * (R.one - (R.s * R.sb) ** (-2 * i)) * Fraction(1, i))


def add(p, q, k=1):
    """p + k q."""
    r = dict(p)
    for m, c in q.items():
        r[m] = r.get(m, 0) + k * c
    return {m: c for m, c in r.items() if c}


def mul(p, q):
    r = {}
    for (i, j), a in p.items():
        for (k, l), b in q.items():
            m = (i + k, j + l)
            r[m] = r.get(m, 0) + a * b
    return {m: c for m, c in r.items() if c}


class Quotient:
    """p / q for FormalScalars p, q with q not dividing p: a value of
    Q(s, sb) outside the Laurent ring, held as numerator and divisor, the
    way relation (2) holds theta c until it divides by kappa.

    ``repr`` prints the canonical form of Q(s, sb) that the package printed
    before the ring: content, least exponents and primitive numerator over
    a primitive divisor with a positive graded-lex lead.  That form needs
    the primitive parts of p and q coprime, as they are for every quotient
    the tests build.
    """

    def __init__(self, num, div):
        try:
            num / div
        except ArithmeticError:
            pass
        else:
            raise ValueError("div divides num: the value is in the ring")
        self.num = num
        self.div = div

    def __repr__(self):
        p, kp, ip, jp = ratfunc._canonical(self.num.num)
        q, kq, iq, jq = ratfunc._canonical(self.div.num)
        coef = Fraction(kp, self.num.den) / Fraction(kq, self.div.den)
        parts = [str(coef)] if coef != 1 else []
        if ip - iq:
            parts.append(f"s^{ip - iq}")
        if jp - jq:
            parts.append(f"sb^{jp - jq}")
        if p != {(0, 0): 1}:
            parts.append("(" + ratfunc._poly_str(p) + ")")
        parts.append("(" + ratfunc._poly_str(q) + ")^-1")
        return "*".join(parts)
