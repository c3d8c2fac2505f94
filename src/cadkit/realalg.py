"""Real root isolation over Q and the real algebraic number type.

Isolation reduces a univariate polynomial to its square-free part, then
uses Descartes'-rule bisection on dyadic intervals after a Cauchy root
bound; rational roots are split off first via the rational root theorem
so bisection never lands on a root.  A Sturm-sequence implementation
lives in the test suite as an independent oracle.

Arithmetic on the numbers (refinement, comparison, signs of polynomials,
rationals between two numbers) lives in ``chains``: a number over Q is a
coordinate over the empty chain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence

from .polynomial import Polynomial, VarOrder, squarefree_part


class RealAlgError(ValueError):
    pass


@dataclass(frozen=True)
class Interval:
    """The open interval (lo, hi) when lo < hi; the point lo when lo == hi."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise RealAlgError("interval endpoints out of order")

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def __str__(self):
        if self.is_point:
            return "{%s}" % self.lo
        return "(%s, %s)" % (self.lo, self.hi)


class RealAlgebraicNumber:
    """A real root of ``defining``, square-free in ``var``, inside an
    isolating interval.

    ``defining`` may also mention earlier coordinates of a sample point
    (see ``chains``); a number over Q mentions none.  An open interval
    contains exactly one root of ``defining`` and neither endpoint is a
    root; a point interval holds an exact rational value.  ``chains``
    narrows the interval in place; the represented value never changes.
    """

    __slots__ = ("defining", "interval", "var")

    def __init__(self, defining: Polynomial, interval: Interval,
                 var: Optional[str] = None):
        self.defining = defining
        self.interval = interval
        self.var = var if var is not None else defining.main_var()

    @classmethod
    def rational(cls, value: Fraction, var: str,
                 order: VarOrder) -> "RealAlgebraicNumber":
        """The exact rational ``value`` as a root of ``var - value``."""
        p = Polynomial.var(order, var) - Polynomial.const(order, value)
        return cls(p, Interval(value, value), var=var)

    @property
    def is_rational(self) -> bool:
        return self.interval.is_point

    def rational_value(self) -> Fraction:
        if not self.is_rational:
            raise RealAlgError("not a known-rational value")
        return self.interval.lo

    def __str__(self):
        if self.is_rational:
            return str(self.interval.lo)
        return "RootOf(%s in %s, %s)" % (self.defining, self.var,
                                         self.interval)


# -- univariate helpers on Fraction coefficient lists -------------------

def _eval_coeffs(coeffs: Sequence[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


def _sign_variations(coeffs: Sequence) -> int:
    signs = [_sign(c) for c in coeffs if c != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a * b < 0)


def _shift1(coeffs: List) -> List:
    # Taylor shift: p(x) -> p(x + 1), in place on a copied list
    c = list(coeffs)
    n = len(c)
    for i in range(n - 1):
        for j in range(n - 2, i - 1, -1):
            c[j] += c[j + 1]
    return c


def _descartes_test(coeffs: Sequence[Fraction], lo: Fraction, hi: Fraction) -> int:
    """Sign-variation bound on the number of roots in the open (lo, hi)."""
    width = hi - lo
    n = len(coeffs) - 1
    # p(lo + width*x), then x -> 1/(x+1) projectivised, then x -> x+1
    shifted = []
    for e, c in enumerate(coeffs):
        shifted.append(c * width ** e)
    # Taylor shift by lo/width in the scaled variable: q(x) = p(lo + width*x)
    t = lo / width if width else Fraction(0)
    q = list(shifted)
    for i in range(n):
        for j in range(n - 1, i - 1, -1):
            q[j] += t * q[j + 1]
    q.reverse()
    return _sign_variations(_shift1(q))


def _cauchy_bound(coeffs: Sequence[Fraction]) -> Fraction:
    lead = abs(coeffs[-1])
    m = max(abs(c) for c in coeffs[:-1]) if len(coeffs) > 1 else Fraction(0)
    bound = 1 + m / lead
    b = Fraction(1)
    while b < bound:
        b *= 2
    return b


def _divisors(n: int, cap: int = 1 << 20) -> Optional[List[int]]:
    n = abs(n)
    if n == 0:
        return None
    if n > cap * cap:
        return None
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
        if d > cap:
            return None
    return out


def _rational_roots(coeffs: List[Fraction]) -> List[Fraction]:
    """All rational roots, via the rational root theorem (small inputs).

    A root s/q in lowest terms of the integer polynomial f gives
    f = (q*x - s)*g with g over Z, so q - s divides f(1) and q + s
    divides f(-1); candidates failing either test are not evaluated.
    """
    den = 1
    for c in coeffs:
        den = den * c.denominator // math.gcd(den, c.denominator)
    ints = [int(c * den) for c in coeffs]
    roots = []
    low = 0
    while ints[low] == 0:
        low += 1
    if low > 0:
        roots.append(Fraction(0))
        ints = ints[low:]
    if len(ints) <= 1:
        return roots
    ps = _divisors(ints[0])
    qs = _divisors(ints[-1])
    if ps is None or qs is None:
        return roots
    at_one = sum(ints)
    at_minus_one = sum(ints[0::2]) - sum(ints[1::2])
    for p in ps:
        for q in qs:
            if math.gcd(p, q) != 1:
                continue
            for s in (p, -p):
                if (q - s and at_one % (q - s)) or \
                        (q + s and at_minus_one % (q + s)):
                    continue
                # q^n * f(s/q), in integers
                v = 0
                q_pow = 1
                for c in reversed(ints):
                    v = v * s + c * q_pow
                    q_pow *= q
                if v == 0:
                    roots.append(Fraction(s, q))
    return roots


# -- public operations --------------------------------------------------

def isolate_roots(p: Polynomial) -> List[RealAlgebraicNumber]:
    """Isolate the distinct real roots of a non-constant univariate
    polynomial.

    Returns one entry per distinct real root, sorted ascending, with
    pairwise-disjoint isolating intervals; every root is defined by the
    square-free part of ``p``.  Known-rational roots come back with point
    intervals; an open interval contains exactly one root, and neither
    of its endpoints is a root.
    """
    if p.is_zero or p.is_constant:
        raise RealAlgError("cannot isolate roots of a constant")
    var = p.main_var()
    if len(p.variables()) != 1:
        raise RealAlgError("polynomial is not univariate")
    if p.degree(var) == 1:
        # the one root -c0/c1, defined by what squarefree_part(p) returns
        c0, c1 = p.univariate_coeffs(var)
        r = -c0 / c1
        return [RealAlgebraicNumber(p.normalized(), Interval(r, r), var=var)]
    p = squarefree_part(p)
    coeffs = p.univariate_coeffs(var)
    rational = sorted(_rational_roots(coeffs))
    work = coeffs
    for r in rational:
        work = _deflate(work, r)
    points: List[Fraction] = list(rational)
    open_iv: List[tuple] = []  # (lo, hi, certifying coefficient list)
    if len(work) > 1:
        bound = _cauchy_bound(work)
        stack = [(-bound, bound)]
        while stack:
            lo, hi = stack.pop()
            v = _descartes_test(work, lo, hi)
            if v == 0:
                continue
            if v == 1:
                open_iv.append((lo, hi, work))
                continue
            mid = (lo + hi) / 2
            if _eval_coeffs(work, mid) == 0:
                # a rational root missed by the (capped) divisor search
                points.append(mid)
                work = _deflate(work, mid)
            stack.append((lo, mid))
            stack.append((mid, hi))
    out = [RealAlgebraicNumber(p, Interval(r, r), var=var)
           for r in points]
    for lo, hi, wp in open_iv:
        item = _shrink_away_from(lo, hi, wp, points)
        if isinstance(item, Fraction):
            iv = Interval(item, item)
        else:
            iv = Interval(item[0], item[1])
        out.append(RealAlgebraicNumber(p, iv, var=var))
    out.sort(key=lambda r: (r.interval.lo, r.interval.hi))
    return out


def _shrink_away_from(lo, hi, coeffs, points):
    """Bisect an isolating interval of ``coeffs`` until neither its
    interior nor its endpoints hold one of the given rational points;
    the tracked root is not one of them, and ``coeffs`` (from which they
    were deflated) does not vanish at ``lo``."""
    s_lo = _sign(_eval_coeffs(coeffs, lo))
    while any(lo <= r <= hi for r in points):
        mid = (lo + hi) / 2
        v = _eval_coeffs(coeffs, mid)
        if v == 0:
            return mid
        if _sign(v) == s_lo:
            lo = mid
        else:
            hi = mid
    return (lo, hi)


def _deflate(coeffs: List[Fraction], root: Fraction) -> List[Fraction]:
    # synthetic division by (x - root); exact for an actual root
    out = [Fraction(0)] * (len(coeffs) - 1)
    acc = Fraction(0)
    for i in range(len(coeffs) - 1, 0, -1):
        acc = coeffs[i] + acc * root
        out[i - 1] = acc
    return out


def choose_sample(lo: Optional[Fraction], hi: Optional[Fraction],
                  lo_strict: bool = True, hi_strict: bool = True) -> Fraction:
    """A rational inside the region, dyadic with the smallest power-of-two
    denominator; ties broken by smallest |numerator|, then preferring the
    non-negative value.  ``None`` bounds mean -/+ infinity; the strictness
    flags control whether the endpoints themselves are admitted.
    """
    if lo is not None and hi is not None:
        if lo > hi or (lo == hi and (lo_strict or hi_strict)):
            raise RealAlgError("empty sample region")
        if lo == hi:
            return lo
    d = 1
    while True:
        k_lo = k_hi = None
        if lo is not None:
            x = lo * d
            k_lo = math.floor(x) + 1 if lo_strict else math.ceil(x)
        if hi is not None:
            x = hi * d
            k_hi = math.ceil(x) - 1 if hi_strict else math.floor(x)
        if k_lo is None and k_hi is None:
            return Fraction(0)
        if k_lo is None:
            return Fraction(min(k_hi, 0) if k_hi >= 0 else k_hi, d)
        if k_hi is None:
            return Fraction(max(k_lo, 0) if k_lo <= 0 else k_lo, d)
        if k_lo <= k_hi:
            if k_lo <= 0 <= k_hi:
                k = 0
            elif k_lo > 0:
                k = k_lo
            else:
                k = k_hi
            return Fraction(k, d)
        d *= 2
