"""Independent oracles used only by the tests.

Deliberately naive implementations with no code shared with the package:
a Sturm-sequence real-root counter over Fraction coefficient lists, and
resultants and principal subresultant coefficients computed as
determinants of (trimmed) Sylvester matrices by Fraction Gaussian
elimination.
"""

from fractions import Fraction
from typing import List, Optional, Sequence, Tuple


# -- univariate polynomials as dense coefficient lists (low to high) ----

def normalize(c: Sequence[Fraction]) -> List[Fraction]:
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


def degree(c: Sequence[Fraction]) -> int:
    return len(normalize(c)) - 1


def evaluate(c: Sequence[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for a in reversed(list(c)):
        acc = acc * x + a
    return acc


def derivative(c: Sequence[Fraction]) -> List[Fraction]:
    return [Fraction(i) * a for i, a in enumerate(c)][1:]


def polydiv(f: Sequence[Fraction], g: Sequence[Fraction]):
    f, g = normalize(f), normalize(g)
    if not g:
        raise ZeroDivisionError
    q = [Fraction(0)] * max(len(f) - len(g) + 1, 1)
    r = list(f)
    while normalize(r) and len(normalize(r)) >= len(g):
        r = normalize(r)
        shift = len(r) - len(g)
        factor = r[-1] / g[-1]
        q[shift] += factor
        for i, a in enumerate(g):
            r[shift + i] -= factor * a
        r = normalize(r)
    return normalize(q), normalize(r)


def sturm_sequence(f: Sequence[Fraction]) -> List[List[Fraction]]:
    seq = [normalize(f), normalize(derivative(f))]
    while seq[-1]:
        _, r = polydiv(seq[-2], seq[-1])
        if not r:
            break
        seq.append([-a for a in r])
    return [s for s in seq if s]


def _variations(values: Sequence[Fraction]) -> int:
    signs = [1 if v > 0 else -1 for v in values if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _signs_at_inf(seq, positive: bool):
    out = []
    for s in seq:
        lead = s[-1]
        if not positive and (len(s) - 1) % 2 == 1:
            lead = -lead
        out.append(lead)
    return out


def sturm_count(f: Sequence[Fraction], lo: Optional[Fraction] = None,
                hi: Optional[Fraction] = None) -> int:
    """Number of distinct real roots of square-free f in (lo, hi];
    None means the corresponding infinity."""
    seq = sturm_sequence(f)
    at_lo = (_signs_at_inf(seq, False) if lo is None
             else [evaluate(s, lo) for s in seq])
    at_hi = (_signs_at_inf(seq, True) if hi is None
             else [evaluate(s, hi) for s in seq])
    return _variations(at_lo) - _variations(at_hi)


# -- Sylvester-matrix resultant ----------------------------------------

def sylvester_resultant(f: Sequence[Fraction],
                        g: Sequence[Fraction]) -> Fraction:
    f, g = normalize(f), normalize(g)
    m, n = len(f) - 1, len(g) - 1
    if m < 0 or n < 0:
        return Fraction(0)
    if m == 0 and n == 0:
        return Fraction(1)
    size = m + n
    rows = []
    fr = list(reversed(f))
    gr = list(reversed(g))
    for i in range(n):
        rows.append([Fraction(0)] * i + fr + [Fraction(0)] * (size - m - 1 - i))
    for i in range(m):
        rows.append([Fraction(0)] * i + gr + [Fraction(0)] * (size - n - 1 - i))
    return _det(rows)


def sylvester_psc(f: Sequence[Fraction], g: Sequence[Fraction],
                  j: int) -> Fraction:
    """psc_j of f and g, 0 <= j < min(deg f, deg g): the determinant of
    the first m + n - 2j columns of n - j rows of f over m - j rows of g,
    each row shifted one column further than the last."""
    f, g = normalize(f), normalize(g)
    m, n = len(f) - 1, len(g) - 1
    size = m + n - 2 * j
    pad = [Fraction(0)] * size
    rows = [([Fraction(0)] * i + list(reversed(f)) + pad)[:size]
            for i in range(n - j)]
    rows += [([Fraction(0)] * i + list(reversed(g)) + pad)[:size]
             for i in range(m - j)]
    return _det(rows)


def _det(rows: List[List[Fraction]]) -> Fraction:
    n = len(rows)
    rows = [list(r) for r in rows]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det *= rows[col][col]
        inv = 1 / rows[col][col]
        for r in range(col + 1, n):
            factor = rows[r][col] * inv
            if factor:
                for c in range(col, n):
                    rows[r][c] -= factor * rows[col][c]
    return det
