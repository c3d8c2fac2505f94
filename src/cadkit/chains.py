"""Arithmetic on real algebraic numbers, and sample points with
triangular chains of algebraic coordinates.

A sample point stores one coordinate per level: a rational, or a
``RealAlgebraicNumber`` defined by a polynomial in the earlier algebraic
coordinates (its prefix) plus an isolating interval.  A number over Q has
the empty prefix, so refinement, exact comparison, root-list merging,
rationals between two numbers and signs of polynomials are implemented
here once, for every algebraic number.  Sign queries are exact: zero is
certified symbolically by gcd computations over the chain, and nonzero
signs come from interval refinement (guaranteed to terminate once zero
is ruled out).  Root counting over a chain uses Sturm sequences built
with pseudo-remainders whose sign corrections are evaluated at the point.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, List, Optional, Sequence, Tuple, Union

from .polynomial import Polynomial, PolynomialError, pseudo_divmod
from .realalg import (Interval, RealAlgebraicNumber, RealAlgError,
                      choose_sample, isolate_with_multiplicity)

_ZERO = Fraction(0)

Coord = Union[Fraction, RealAlgebraicNumber]
Chain = Sequence[RealAlgebraicNumber]


# -- rational interval arithmetic ---------------------------------------

def _iv_add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def _iv_mul(a, b):
    vals = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return (min(vals), max(vals))


def _iv_pow(a, e: int):
    if e == 0:
        return (Fraction(1), Fraction(1))
    lo, hi = a[0] ** e, a[1] ** e
    if e % 2 == 0 and a[0] < 0 < a[1]:
        return (_ZERO, max(lo, hi))
    return (min(lo, hi), max(lo, hi))


def interval_eval(q: Polynomial, boxes: dict) -> Tuple[Fraction, Fraction]:
    """Enclosure of q over per-variable rational boxes."""
    total = (_ZERO, _ZERO)
    names = q.order.names
    for m, c in q.terms.items():
        term = (Fraction(c), Fraction(c))
        for i, e in enumerate(m):
            if e:
                term = _iv_mul(term, _iv_pow(boxes[names[i]], e))
        total = _iv_add(total, term)
    return total


def _boxes(chain: Chain) -> dict:
    return {e.var: (e.interval.lo, e.interval.hi) for e in chain}


# -- chain refinement ---------------------------------------------------

def refine_coord(coord: RealAlgebraicNumber, prefix: Chain) -> None:
    """Halve the coordinate's isolating interval in place; the kept half
    is read off the sign at the lower endpoint, which is never a root."""
    iv = coord.interval
    if iv.is_point:
        return
    mid = (iv.lo + iv.hi) / 2
    v_mid = coord.defining.substitute({coord.var: mid})
    s_mid = sign_at_chain(v_mid, prefix)
    if s_mid == 0:
        coord.interval = Interval(mid, mid)
        return
    v_lo = coord.defining.substitute({coord.var: iv.lo})
    if sign_at_chain(v_lo, prefix) == s_mid:
        coord.interval = Interval(mid, iv.hi)
    else:
        coord.interval = Interval(iv.lo, mid)


# -- exact sign machinery -----------------------------------------------

def sign_at_chain(q: Polynomial, chain: Chain) -> int:
    """Exact sign of q at the chain's point; q uses only chain variables."""
    if q.is_zero:
        return 0
    if q.is_constant:
        c = q.constant_value()
        return (c > 0) - (c < 0)
    chain = _relevant(q, chain)
    if is_zero_chain(q, chain):
        return 0
    while True:
        lo, hi = interval_eval(q, _boxes(chain))
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        for i, entry in enumerate(chain):
            refine_coord(entry, chain[:i])


def _relevant(q: Polynomial, chain: Chain) -> Chain:
    # keep the full prefix up to the highest variable q mentions
    used = q.variables()
    keep = 0
    for i, e in enumerate(chain):
        if e.var in used:
            keep = i + 1
    return chain[:keep]


def is_zero_chain(q: Polynomial, chain: Chain) -> bool:
    """Does q vanish at the chain's point?  Certified symbolically."""
    if q.is_zero:
        return True
    if q.is_constant:
        return False
    chain = _relevant(q, chain)
    if not chain:
        # q mentions no chain variable yet is non-constant: underspecified
        raise PolynomialError("polynomial variables not covered by sample")
    entry = chain[-1]
    prefix = chain[:-1]
    v = entry.var
    if q.degree(v) <= 0:
        return is_zero_chain(q, prefix)
    if entry.is_rational:
        return is_zero_chain(q.substitute({v: entry.rational_value()}), prefix)
    g = chain_gcd(q, entry.defining, v, prefix)
    if g is None or g.degree(v) < 1:
        return False
    return count_roots_chain(g, v, prefix,
                             entry.interval.lo, entry.interval.hi) > 0


def chain_reduce(f: Polynomial, v: str, prefix: Chain) -> Polynomial:
    """Drop leading coefficients (w.r.t. v) that vanish at the prefix point."""
    while True:
        d = f.degree(v)
        if d <= 0:
            return f
        lc = f.leading_coeff(v)
        if sign_at_chain(lc, prefix) != 0:
            return f
        f = f.reductum(v)


def chain_gcd(f: Polynomial, g: Polynomial, v: str,
              prefix: Chain) -> Optional[Polynomial]:
    """gcd of f and g (w.r.t. v) as specialised at the prefix point.

    Returns a polynomial whose specialisation is the gcd up to a nonzero
    constant, with non-vanishing leading coefficient; None when both
    specialise to zero.
    """
    a = chain_reduce(f, v, prefix)
    b = chain_reduce(g, v, prefix)
    if _chain_poly_is_zero(a, v, prefix):
        return None if _chain_poly_is_zero(b, v, prefix) else b
    if _chain_poly_is_zero(b, v, prefix):
        return a
    if a.degree(v) < b.degree(v):
        a, b = b, a
    while True:
        if b.degree(v) == 0:
            return b  # nonzero constant at the point: coprime
        _, r = pseudo_divmod(a, b, v)
        r = chain_reduce(r, v, prefix)
        if _chain_poly_is_zero(r, v, prefix):
            return b
        r = _shrink(r)
        a, b = b, r


def _chain_poly_is_zero(p: Polynomial, v: str, prefix: Chain) -> bool:
    if p.is_zero:
        return True
    if p.degree(v) > 0:
        return False  # chain_reduce guarantees a nonvanishing leading coeff
    return is_zero_chain(p, prefix)


def _shrink(p: Polynomial) -> Polynomial:
    # divide out the integer content to keep coefficients small
    if p.is_zero:
        return p
    num = 0
    den = 1
    for c in p.terms.values():
        num = math.gcd(num, c.numerator)
        den = den * c.denominator // math.gcd(den, c.denominator)
    return p.scale(Fraction(den, num))


# -- Sturm sequences over a chain ---------------------------------------

def sturm_chain(f: Polynomial, v: str, prefix: Chain) -> List[Polynomial]:
    """Sturm sequence of the specialisation of f at the prefix point.

    Pseudo-remainders are sign-corrected using the exact sign of the
    divisor's leading coefficient at the point, so the sequence obeys the
    Sturm sign rules there.
    """
    f = chain_reduce(f, v, prefix)
    seq = [f]
    fp = chain_reduce(f.derivative(v), v, prefix)
    if _chain_poly_is_zero(fp, v, prefix):
        return seq
    seq.append(fp)
    while True:
        a, b = seq[-2], seq[-1]
        if b.degree(v) == 0:
            break
        da, db = a.degree(v), b.degree(v)
        _, r = pseudo_divmod(a, b, v)
        r = chain_reduce(r, v, prefix)
        if _chain_poly_is_zero(r, v, prefix):
            break
        lc_sign = sign_at_chain(b.leading_coeff(v), prefix)
        # sign of lc^(da-db+1) at the point; negate only a positive factor
        if lc_sign > 0 or (da - db + 1) % 2 == 0:
            r = -r
        seq.append(_shrink(r))
    return seq


def _sturm_signs_at(seq: Sequence[Polynomial], v: str, prefix: Chain,
                    t: Optional[Fraction], at_infinity: int = 0) -> int:
    signs = []
    for s in seq:
        if at_infinity:
            lc = s.leading_coeff(v)
            sg = sign_at_chain(lc, prefix)
            if at_infinity < 0 and s.degree(v) % 2 == 1:
                sg = -sg
        else:
            sg = sign_at_chain(s.substitute({v: t}), prefix)
        signs.append(sg)
    nz = [s for s in signs if s != 0]
    return sum(1 for x, y in zip(nz, nz[1:]) if x * y < 0)


def count_roots_chain(f: Polynomial, v: str, prefix: Chain,
                      lo: Optional[Fraction], hi: Optional[Fraction],
                      seq: Optional[List[Polynomial]] = None) -> int:
    """Number of distinct real roots of the specialised f in (lo, hi).

    Endpoints must not be roots; None means -/+ infinity.
    """
    if seq is None:
        seq = sturm_chain(f, v, prefix)
    va = _sturm_signs_at(seq, v, prefix, lo, -1 if lo is None else 0)
    vb = _sturm_signs_at(seq, v, prefix, hi, 1 if hi is None else 0)
    return va - vb


# -- root isolation over a chain ----------------------------------------

def isolate_chain(f: Polynomial, v: str,
                  prefix: Chain) -> List[RealAlgebraicNumber]:
    """Isolate the real roots of f specialised at the prefix point.

    f must not vanish identically at the point.  Returns ascending
    coordinates with pairwise-disjoint intervals; exact rational roots
    found along the way get point intervals, an open interval contains
    exactly one root, and neither of its endpoints is a root.
    """
    f = chain_reduce(f, v, prefix)
    if _chain_poly_is_zero(f, v, prefix):
        raise PolynomialError("cannot isolate roots of a vanishing polynomial")
    if f.degree(v) < 1:
        return []
    if not prefix:
        # fully rational point: the Descartes isolator is faster and
        # pins down rational roots as exact point intervals
        return isolate_with_multiplicity(f)
    g = chain_gcd(f, f.derivative(v), v, prefix)
    if g is not None and g.degree(v) >= 1:
        q, _ = pseudo_divmod(f, g, v)
        f = chain_reduce(_shrink(q), v, prefix)
    return _isolate_squarefree_chain(f, v, prefix)


def _isolate_squarefree_chain(f: Polynomial, v: str,
                              prefix: Chain) -> List[RealAlgebraicNumber]:
    seq = sturm_chain(f, v, prefix)
    bound = _chain_root_bound(f, v, prefix)
    total = count_roots_chain(f, v, prefix, -bound, bound, seq)
    roots: List[RealAlgebraicNumber] = []
    stack = [(-bound, bound, total)]
    while stack:
        lo, hi, n = stack.pop()
        if n == 0:
            continue
        if n == 1:
            roots.append(RealAlgebraicNumber(f, Interval(lo, hi), var=v))
            continue
        mid = (lo + hi) / 2
        if is_zero_chain(f.substitute({v: mid}), prefix):
            # exact rational root at the bisection point: record and deflate
            roots.append(RealAlgebraicNumber(f, Interval(mid, mid), var=v))
            divisor = Polynomial.var(f.order, v) - Polynomial.const(f.order, mid)
            quo, _ = pseudo_divmod(f, divisor, v)
            quo = chain_reduce(_shrink(quo), v, prefix)
            if quo.degree(v) < 1:
                continue
            # pending interval counts are unaffected (mid lies outside them)
            f = quo
            seq = sturm_chain(f, v, prefix)
            n_lo = count_roots_chain(f, v, prefix, lo, mid, seq)
            stack.append((lo, mid, n_lo))
            stack.append((mid, hi, n - 1 - n_lo))
            continue
        n_lo = count_roots_chain(f, v, prefix, lo, mid, seq)
        stack.append((lo, mid, n_lo))
        stack.append((mid, hi, n - n_lo))
    roots.sort(key=lambda r: (r.interval.lo, r.interval.hi))
    return _separate_coords(roots, v, prefix)


def _chain_root_bound(f: Polynomial, v: str, prefix: Chain) -> Fraction:
    coeffs = f.coeffs_in(v)
    while True:
        boxes = _boxes(prefix)
        lc_lo, lc_hi = interval_eval(coeffs[-1], boxes)
        if lc_lo > 0 or lc_hi < 0:
            lc_min = min(abs(lc_lo), abs(lc_hi))
            num = _ZERO
            for c in coeffs[:-1]:
                c_lo, c_hi = interval_eval(c, boxes)
                num = max(num, abs(c_lo), abs(c_hi))
            bound = 1 + num / lc_min
            b = Fraction(1)
            while b < bound:
                b *= 2
            return b
        for i, entry in enumerate(prefix):
            refine_coord(entry, prefix[:i])


def _separate_coords(roots: List[RealAlgebraicNumber], v: str,
                     prefix: Chain) -> List[RealAlgebraicNumber]:
    # disjoint by construction (Sturm counts), but tighten overlapping
    # endpoints produced by shared bisection midpoints
    for a, b in zip(roots, roots[1:]):
        while not (a.interval.hi <= b.interval.lo):
            refine_coord(a, prefix)
            refine_coord(b, prefix)
    return roots


def merge_chain_roots(groups: List[List[RealAlgebraicNumber]], v: str,
                      prefix: Chain) -> List[Tuple[RealAlgebraicNumber, List[int]]]:
    """Merge per-polynomial root lists into one ascending list.

    Returns (coordinate, member indices) pairs, where the indices name
    the groups whose polynomial vanishes at that coordinate.
    """
    merged: List[Tuple[RealAlgebraicNumber, List[int]]] = []
    for gi, group in enumerate(groups):
        for root in group:
            placed = False
            for i, (other, members) in enumerate(merged):
                c = compare_chain_coords(root, other, v, prefix)
                if c == 0:
                    members.append(gi)
                    placed = True
                    break
                if c < 0:
                    merged.insert(i, (root, [gi]))
                    placed = True
                    break
            if not placed:
                merged.append((root, [gi]))
    return merged


def compare_chain_coords(a: RealAlgebraicNumber, b: RealAlgebraicNumber,
                         v: str, prefix: Chain) -> int:
    """Exact trichotomy -1, 0, 1 for a <, =, > b, two roots in v over the
    prefix point; ``RealAlgebraicNumber.rational`` makes a rational one."""
    while True:
        ia, ib = a.interval, b.interval
        if ia.is_point and ib.is_point:
            x, y = ia.lo, ib.lo
            return (x > y) - (x < y)
        # shared endpoints are never roots, so touching intervals decide
        if ia.hi <= ib.lo:
            return -1
        if ib.hi <= ia.lo:
            return 1
        if not (ia.is_point or ib.is_point):
            g = chain_gcd(a.defining, b.defining, v, prefix)
            if g is not None and g.degree(v) >= 1:
                olo = max(ia.lo, ib.lo)
                ohi = min(ia.hi, ib.hi)
                if olo < ohi and count_roots_chain(g, v, prefix, olo, ohi) > 0:
                    return 0
        elif ia.is_point:
            if is_zero_chain(b.defining.substitute({v: ia.lo}), prefix) and \
                    ib.lo < ia.lo < ib.hi:
                return 0
        elif ib.is_point:
            if is_zero_chain(a.defining.substitute({v: ib.lo}), prefix) and \
                    ia.lo < ib.lo < ia.hi:
                return 0
        refine_coord(a, prefix)
        refine_coord(b, prefix)


def sample_between(left: Optional[RealAlgebraicNumber],
                   right: Optional[RealAlgebraicNumber], prefix: Chain = (),
                   pick: Callable[..., Fraction] = choose_sample) -> Fraction:
    """A rational strictly between two roots over the prefix point,
    left < right; None stands for -/+ infinity.

    The endpoints of open isolating intervals are never roots, so they
    are admissible.  The intervals are refined until they separate, then
    ``pick(lo, hi, lo_strict, hi_strict)`` chooses the rational; the
    default picks the simplest one.
    """
    while True:
        lo, lo_strict = _sector_end(left, upper=False)
        hi, hi_strict = _sector_end(right, upper=True)
        if lo is None or hi is None or lo < hi or \
                (lo == hi and not lo_strict and not hi_strict):
            return pick(lo, hi, lo_strict, hi_strict)
        if lo_strict and hi_strict:
            raise RealAlgError("sample_between needs left < right")
        refine_coord(left, prefix)
        refine_coord(right, prefix)


def _sector_end(coord: Optional[RealAlgebraicNumber], upper: bool):
    # (value, strict) of the side of coord that faces the sector
    if coord is None:
        return None, True
    iv = coord.interval
    if iv.is_point:
        return iv.lo, True
    return (iv.lo if upper else iv.hi), False


def thom_encoding(p: Polynomial, r: RealAlgebraicNumber) -> tuple:
    """Signs of p', p'', ... at a root r over Q of p."""
    var = p.main_var()
    if sign_at_chain(p, [r]) != 0:
        raise RealAlgError("point is not a root of the polynomial")
    signs = []
    q = p
    for _ in range(p.degree(var)):
        q = q.derivative(var)
        signs.append(sign_at_chain(q, [r]))
    return tuple(signs)


# -- sample points ------------------------------------------------------

class SamplePoint:
    """An explicit point with a triangular chain of defining polynomials."""

    __slots__ = ("order", "coords")

    def __init__(self, order, coords: Sequence[Coord] = ()):
        self.order = order
        self.coords = tuple(coords)

    def extend(self, coord: Coord) -> "SamplePoint":
        return SamplePoint(self.order, self.coords + (coord,))

    def __len__(self):
        return len(self.coords)

    def rational_assignment(self) -> dict:
        """Variable -> value for the rational coordinates."""
        out = {}
        for i, c in enumerate(self.coords):
            if isinstance(c, Fraction):
                out[self.order.names[i]] = c
            elif c.is_rational:
                out[self.order.names[i]] = c.rational_value()
        return out

    def chain(self) -> Chain:
        return [c for c in self.coords
                if isinstance(c, RealAlgebraicNumber) and not c.is_rational]

    def prepare(self, p: Polynomial) -> Polynomial:
        return p.substitute(self.rational_assignment())

    def sign_of(self, p: Polynomial) -> int:
        ch = self.chain()
        if not ch:
            # all-rational sample: plain evaluation, no polynomial algebra
            v = p.evaluate(self.rational_assignment())
            return (v > 0) - (v < 0)
        return sign_at_chain(self.prepare(p), ch)

    def coord_str(self, i: int) -> str:
        c = self.coords[i]
        if isinstance(c, Fraction):
            return str(c)
        if c.is_rational:
            return str(c.rational_value())
        return str(c)

    def __str__(self):
        return "(" + ", ".join(self.coord_str(i) for i in range(len(self.coords))) + ")"


def sign_at(p: Polynomial, s: SamplePoint) -> int:
    """Exact sign of p at the sample point; spec surface for sign queries."""
    used = {p.order.index(n) for n in p.variables()}
    if used and max(used) >= len(s.coords):
        raise PolynomialError("polynomial variables not covered by sample")
    return s.sign_of(p)
