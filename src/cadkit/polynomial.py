"""Exact multivariate polynomial arithmetic over the rationals.

Sparse representation: a polynomial is a map from exponent vectors to
nonzero Fraction coefficients under a fixed variable order.  Views by a
main variable (coefficient lists, leading coefficient, pseudo-division)
are computed on demand, which is what the projection operators need.

Pseudo-division and exact division run on term dicts and build one
Polynomial per result: pseudo-division clears denominators and works on
int rows of the coefficient view by the division variable, and exact
division subtracts from one dict of remaining terms.  Every gcd,
resultant and discriminant here, and every Sturm chain in ``chains``,
runs on that pseudo-division.

Resultants are computed by a pseudo-remainder sequence with an exact
correction-factor ledger (the Sylvester determinant is kept as a test
oracle only).  The discriminant sign is fixed so that
disc_x(a*x^2 + b*x + c) = b^2 - 4*a*c.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd as int_gcd
from operator import add
from typing import Iterable, Mapping, Sequence, Union

Scalar = Union[int, Fraction]


class PolynomialError(ValueError):
    pass


class VarOrder:
    """An ordered, distinct list of variable names.

    Position 0 is the first-projected-onto coordinate; the last position
    is the last coordinate x_n.
    """

    __slots__ = ("names", "_index")

    def __init__(self, names: Sequence[str]):
        names = tuple(names)
        if not names:
            raise PolynomialError("variable order must be non-empty")
        if len(set(names)) != len(names):
            raise PolynomialError("variable names must be distinct")
        self.names = names
        self._index = {n: i for i, n in enumerate(names)}

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise PolynomialError("unknown variable %r" % name) from None

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __len__(self) -> int:
        return len(self.names)

    def __iter__(self):
        return iter(self.names)

    def __eq__(self, other) -> bool:
        return isinstance(other, VarOrder) and self.names == other.names

    def __hash__(self) -> int:
        return hash(self.names)

    def __repr__(self) -> str:
        return "VarOrder(%s)" % ",".join(self.names)


def _monomial_key(expts: tuple) -> tuple:
    # graded lexicographic: total degree first, then exponents
    return (sum(expts), expts)


class Polynomial:
    """A sparse exact-rational multivariate polynomial.

    Immutable after construction; the zero polynomial has an empty term
    map.  Exponent vectors have one entry per variable of the order.
    """

    __slots__ = ("order", "terms", "_hash")

    def __init__(self, order: VarOrder, terms: Mapping[tuple, Scalar]):
        self.order = order
        n = len(order)
        cleaned = {}
        for expts, coeff in terms.items():
            if type(coeff) is not Fraction:
                coeff = Fraction(coeff)
            if coeff == 0:
                continue
            expts = tuple(expts)
            if len(expts) != n or min(expts) < 0:
                raise PolynomialError("bad exponent vector %r" % (expts,))
            if expts in cleaned:
                cleaned[expts] += coeff
            else:
                cleaned[expts] = coeff
        self.terms = {e: c for e, c in cleaned.items() if c != 0}
        self._hash = None

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, order: VarOrder) -> "Polynomial":
        return cls(order, {})

    @classmethod
    def const(cls, order: VarOrder, value: Scalar) -> "Polynomial":
        return cls(order, {(0,) * len(order): Fraction(value)})

    @classmethod
    def var(cls, order: VarOrder, name: str) -> "Polynomial":
        i = order.index(name)
        expts = tuple(1 if j == i else 0 for j in range(len(order)))
        return cls(order, {expts: Fraction(1)})

    # -- basic queries --------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_constant(self) -> bool:
        return all(all(e == 0 for e in m) for m in self.terms)

    def constant_value(self) -> Fraction:
        if self.is_zero:
            return Fraction(0)
        if not self.is_constant:
            raise PolynomialError("not a constant: %s" % self)
        return next(iter(self.terms.values()))

    def variables(self) -> set:
        used = set()
        for m in self.terms:
            for i, e in enumerate(m):
                if e:
                    used.add(self.order.names[i])
        return used

    def level(self) -> int:
        """1-based position of the highest variable present; 0 if constant."""
        top = 0
        for m in self.terms:
            for i in range(len(m) - 1, -1, -1):
                if m[i]:
                    top = max(top, i + 1)
                    break
        return top

    def main_var(self):
        lvl = self.level()
        return None if lvl == 0 else self.order.names[lvl - 1]

    def degree(self, var: str) -> int:
        """Degree in ``var``; -1 for the zero polynomial."""
        if self.is_zero:
            return -1
        i = self.order.index(var)
        return max(m[i] for m in self.terms)

    def total_degree(self) -> int:
        if self.is_zero:
            return -1
        return max(sum(m) for m in self.terms)

    # -- arithmetic -----------------------------------------------------

    def _coerce(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            if other.order != self.order:
                raise PolynomialError("mismatched variable orders")
            return other
        if isinstance(other, (int, Fraction)):
            return Polynomial.const(self.order, other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = terms.get(m, 0) + c
        return Polynomial(self.order, terms)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.order, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                terms[m] = terms.get(m, 0) + c1 * c2
        return Polynomial(self.order, terms)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise PolynomialError("negative power")
        if n == 0:
            return Polynomial.const(self.order, 1)
        result = None
        base = self
        while True:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if not n:
                return result
            base = base * base

    def scale(self, c: Scalar) -> "Polynomial":
        c = Fraction(c)
        return Polynomial(self.order, {m: v * c for m, v in self.terms.items()})

    # -- views by main variable -----------------------------------------

    def coeffs_in(self, var: str) -> list:
        """Coefficients of var^0 .. var^deg, each a Polynomial free of var."""
        i = self.order.index(var)
        d = max(self.degree(var), 0)
        buckets: list = [dict() for _ in range(d + 1)]
        for m, c in self.terms.items():
            e = m[i]
            rest = m[:i] + (0,) + m[i + 1:]
            buckets[e][rest] = buckets[e].get(rest, 0) + c
        return [Polynomial(self.order, b) for b in buckets]

    def leading_coeff(self, var: str) -> "Polynomial":
        i = self.order.index(var)
        d = self.degree(var)
        return Polynomial(self.order, {m[:i] + (0,) + m[i + 1:]: c
                                       for m, c in self.terms.items()
                                       if m[i] == d})

    def reductum(self, var: str) -> "Polynomial":
        """Drop the leading term with respect to ``var``."""
        d = self.degree(var)
        if d <= 0:
            return Polynomial.zero(self.order)
        i = self.order.index(var)
        terms = {m: c for m, c in self.terms.items() if m[i] < d}
        return Polynomial(self.order, terms)

    def derivative(self, var: str) -> "Polynomial":
        i = self.order.index(var)
        terms: dict = {}
        for m, c in self.terms.items():
            if m[i] == 0:
                continue
            mm = m[:i] + (m[i] - 1,) + m[i + 1:]
            terms[mm] = terms.get(mm, 0) + c * m[i]
        return Polynomial(self.order, terms)

    # -- substitution / evaluation --------------------------------------

    def substitute(self, assignment: Mapping[str, Scalar]) -> "Polynomial":
        """Substitute rationals for variables."""
        values = [(self.order.index(name), Fraction(v))
                  for name, v in assignment.items()]
        terms: dict = {}
        for m, c in self.terms.items():
            rest = list(m)
            for i, v in values:
                if m[i]:
                    c *= v ** m[i]
                    rest[i] = 0
            rest = tuple(rest)
            terms[rest] = terms.get(rest, 0) + c
        return Polynomial(self.order, terms)

    def evaluate(self, assignment: Mapping[str, Scalar]) -> Fraction:
        total = Fraction(0)
        idx_vals = {self.order.index(n): Fraction(v) for n, v in assignment.items()}
        for m, c in self.terms.items():
            v = c
            for i, e in enumerate(m):
                if e:
                    v *= idx_vals[i] ** e
            total += v
        return total

    def univariate_coeffs(self, var: str) -> list:
        """Fraction coefficients var^0..var^deg; requires no other variable."""
        if not self.variables() <= {var}:
            raise PolynomialError("polynomial is not univariate in %s" % var)
        return [p.constant_value() for p in self.coeffs_in(var)]

    # -- normal forms ---------------------------------------------------

    def normalized(self) -> "Polynomial":
        """Integer-primitive associate with positive leading coefficient.

        Leading is taken in graded-lex monomial order; the result spans
        the same ideal and is the canonical representative used when
        comparing basis sets.
        """
        if self.is_zero:
            return self
        num = 0
        den = 1
        for c in self.terms.values():
            num = int_gcd(num, c.numerator)
            den = den * c.denominator // int_gcd(den, c.denominator)
        factor = Fraction(den, num)
        lead = max(self.terms, key=_monomial_key)
        if self.terms[lead] < 0:
            factor = -factor
        return self.scale(factor)

    def sort_key(self) -> tuple:
        items = sorted(self.terms.items(), key=lambda kv: _monomial_key(kv[0]))
        return (self.total_degree(), len(items),
                tuple((m, c) for m, c in items))

    # -- identity -------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (isinstance(other, Polynomial) and self.order == other.order
                and self.terms == other.terms)

    def __hash__(self) -> int:
        if self._hash is None:
            items = tuple(sorted(self.terms.items()))
            self._hash = hash((self.order, items))
        return self._hash

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for m in sorted(self.terms, key=_monomial_key, reverse=True):
            c = self.terms[m]
            factors = []
            for i, e in enumerate(m):
                if e == 1:
                    factors.append(self.order.names[i])
                elif e > 1:
                    factors.append("%s^%d" % (self.order.names[i], e))
            if not factors:
                body = str(abs(c))
            elif abs(c) == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(abs(c))] + factors)
            sign = "-" if c < 0 else "+"
            parts.append((sign, body))
        head_sign, head = parts[0]
        text = ("-" if head_sign == "-" else "") + head
        for sign, body in parts[1:]:
            text += " %s %s" % (sign, body)
        return text

    def __repr__(self) -> str:
        return "Polynomial(%s)" % self


# -- parsing ------------------------------------------------------------

# Identifiers are read whole, so a keyword is a whole token; ``**`` is
# read as ``^``.  The formula symbols are tokens here too, so that formula
# atoms and bare polynomials share this tokenizer and the grammar below.
_TOKEN_RE = re.compile(r"\s*(?:([A-Za-z_][A-Za-z_0-9]*|[0-9]+|\*\*|/\\|\\/|->"
                       r"|[!<>]=|[-+*/^()~.=<>])|(\S))")


class PolyParser:
    """Recursive descent over the input token language.

    expr := term (("+" | "-") term)*; term := factor (("*" | "/") factor)*;
    factor := ("+" | "-") factor | base ["^" integer];
    base := integer | variable | "(" expr ")".  A unary sign binds looser
    than ``^`` (``-x^2`` is ``-(x^2)``); divisors must be nonzero
    constants.  Subclasses add rules over the same tokens and set
    ``error`` to their exception type.
    """

    error = PolynomialError

    def __init__(self, text: str, order: VarOrder):
        self.text = text
        self.order = order
        self.tokens = []
        for m in _TOKEN_RE.finditer(text):
            if m.group(2):
                raise self.error("syntax error at position %d in %r"
                                 % (m.start(2), text))
            tok = m.group(1)
            self.tokens.append("^" if tok == "**" else tok)
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def take(self, expect: str = None) -> str:
        t = self.peek()
        if t is None or (expect is not None and t != expect):
            raise self.error("expected %s, found %r in %r"
                             % (repr(expect) if expect else "more input",
                                t, self.text))
        self.i += 1
        return t

    def end(self) -> None:
        if self.peek() is not None:
            raise self.error("trailing input %r in %r"
                             % (self.peek(), self.text))

    def expr(self) -> Polynomial:
        p = self.term()
        while self.peek() in ("+", "-"):
            if self.take() == "+":
                p = p + self.term()
            else:
                p = p - self.term()
        return p

    def term(self) -> Polynomial:
        p = self.factor()
        while self.peek() in ("*", "/"):
            if self.take() == "*":
                p = p * self.factor()
                continue
            d = self.factor()
            if d.is_zero:
                raise self.error("division by zero in %r" % self.text)
            if not d.is_constant:
                raise self.error("division only by constants in %r"
                                 % self.text)
            p = p.scale(1 / d.constant_value())
        return p

    def factor(self) -> Polynomial:
        t = self.peek()
        if t in ("+", "-"):
            self.take()
            return -self.factor() if t == "-" else self.factor()
        p = self.base()
        if self.peek() == "^":
            self.take()
            e = self.take()
            if not e.isdigit():
                raise self.error("exponent must be a literal integer in %r"
                                 % self.text)
            p = p ** int(e)
        return p

    def base(self) -> Polynomial:
        t = self.take()
        if t == "(":
            p = self.expr()
            self.take(")")
            return p
        if t.isdigit():
            return Polynomial.const(self.order, int(t))
        if t[0].isalpha() or t[0] == "_":
            if t not in self.order:
                raise self.error("unknown variable %r" % t)
            return Polynomial.var(self.order, t)
        raise self.error("unexpected token %r in %r" % (t, self.text))


def parse_poly(text: str, order: VarOrder) -> Polynomial:
    """Parse a polynomial in the grammar of ``PolyParser``."""
    parser = PolyParser(text, order)
    p = parser.expr()
    parser.end()
    return p


# -- pseudo-division ----------------------------------------------------
#
# Pseudo-division works over Z on the coefficient view by ``var``: a row
# is the coefficient of one power of ``var``, a dict from exponent vectors
# (with ``var``'s entry zero) to nonzero ints.

def _denominator(p: Polynomial) -> int:
    """The lcm of the coefficient denominators of p."""
    den = 1
    for c in p.terms.values():
        d = c.denominator
        if d != 1:
            den = den * d // int_gcd(den, d)
    return den


def _int_rows(p: Polynomial, i: int, den: int) -> list:
    """The rows of den*p by the degree in variable number i."""
    rows: list = [{} for _ in range(max(m[i] for m in p.terms) + 1)]
    for m, c in p.terms.items():
        rows[m[i]][m[:i] + (0,) + m[i + 1:]] = \
            c.numerator * (den // c.denominator)
    return rows


def _add_product(acc: dict, a: dict, b: dict, sign: int = 1) -> dict:
    """acc += sign*a*b on int rows, in place, dropping zero entries."""
    for mb, cb in b.items():
        cb *= sign
        shift = any(mb)
        for ma, ca in a.items():
            m = tuple(map(add, ma, mb)) if shift else ma
            v = acc.get(m, 0) + ca * cb
            if v:
                acc[m] = v
            else:
                del acc[m]
    return acc


def _mul(a: dict, b: dict) -> dict:
    """The product of two int rows."""
    if len(b) == 1:
        # a monomial multiplier maps terms one to one
        ((mb, cb),) = b.items()
        if any(mb):
            return {tuple(map(add, ma, mb)): ca * cb for ma, ca in a.items()}
        return {ma: ca * cb for ma, ca in a.items()}
    return _add_product({}, a, b)


def _from_rows(order: VarOrder, rows: list, i: int, den: int) -> Polynomial:
    """The Polynomial sum of rows[e] * var^e / den, var being number i."""
    terms = {}
    for e, row in enumerate(rows):
        for m, c in row.items():
            terms[m[:i] + (e,) + m[i + 1:] if e else m] = Fraction(c, den)
    return Polynomial(order, terms)


def prem(f: Polynomial, g: Polynomial, var: str) -> Polynomial:
    """Pseudo-remainder: lc_v(g)^(deg f - deg g + 1) * f = q*g + prem."""
    return pseudo_divmod(f, g, var)[1]


def pseudo_divmod(f: Polynomial, g: Polynomial, var: str):
    """Return (pseudo-quotient, pseudo-remainder) for division by g in var.

    The unique q, r with lc_var(g)^max(df - dg + 1, 0) * f = q*g + r
    and deg_var(r) < dg, where df, dg are the degrees in var.

    >>> order = VarOrder(["x", "y"])
    >>> f = parse_poly("x^2/2 + y*x/3 + 1", order)
    >>> g = parse_poly("2/3*y*x - 1", order)
    >>> q, r = pseudo_divmod(f, g, "x")
    >>> print(q, "|", r)
    1/3*x*y + 2/9*y^2 + 1/2 | 2/3*y^2 + 1/2
    >>> g.leading_coeff("x") ** 2 * f == q * g + r
    True
    """
    if f.order != g.order:
        raise PolynomialError("mismatched variable orders")
    dg = g.degree(var)
    if dg < 0:
        raise PolynomialError("pseudo-division by zero")
    df = f.degree(var)
    if df < dg:
        # convention: lc^(delta+1) with delta+1 = max(df-dg+1, 0) = 0
        return Polynomial.zero(f.order), f
    # Over Z with F = Df*f, G = Dg*g: lc_G^N * F = Q*G + R, N = df-dg+1,
    # so q = Q / (Df*Dg^(N-1)) and r = R / (Df*Dg^N) by uniqueness.
    i = f.order.index(var)
    d_f, d_g = _denominator(f), _denominator(g)
    big_g = _int_rows(g, i, d_g)
    lc_g = big_g[dg]
    rem = _int_rows(f, i, d_f)
    steps = []  # (s, lc_R) of each step
    while len(rem) > dg:
        # R <- lc_G*R - lc_R*v^s*G; the top row of R cancels exactly
        lc_r = rem.pop()
        s = len(rem) - dg
        for e, row in enumerate(rem):
            row = _mul(row, lc_g)
            if e >= s:
                _add_product(row, lc_r, big_g[e - s], -1)
            rem[e] = row
        steps.append((s, lc_r))
        while rem and not rem[-1]:
            rem.pop()
    # Q <- lc_G*Q + lc_R*v^s at step k and the final lc_G^(N - steps)
    # leave lc_R*v^s*lc_G^(N-1-k) from step k; s falls at every step
    n = df - dg + 1
    powers = [None, lc_g]  # powers[e] = lc_G^e
    for _ in range(n - 2):
        powers.append(_mul(powers[-1], lc_g))
    quo: list = [{} for _ in range(n)]
    for k, (s, lc_r) in enumerate(steps):
        e = n - 1 - k
        quo[s] = _mul(lc_r, powers[e]) if e else lc_r
    e = n - len(steps)
    if e:
        rem = [_mul(row, powers[e]) for row in rem]
    den = d_f * d_g ** (df - dg)
    return (_from_rows(f.order, quo, i, den),
            _from_rows(f.order, rem, i, den * d_g))


def exact_div(f: Polynomial, g: Polynomial) -> Polynomial:
    """Exact multivariate division; raises if g does not divide f."""
    if g.is_zero:
        raise PolynomialError("division by zero polynomial")
    if f.is_zero:
        return f
    if g.is_constant:
        return f.scale(Fraction(1) / g.constant_value())
    g_lead = max(g.terms, key=_monomial_key)
    g_lc = g.terms[g_lead]
    g_rest = [(m, c) for m, c in g.terms.items() if m != g_lead]
    r = dict(f.terms)
    q_terms: dict = {}
    while r:
        # the leading monomial of r strictly falls, so each m comes once
        r_lead = max(r, key=_monomial_key)
        m = tuple(a - b for a, b in zip(r_lead, g_lead))
        if any(e < 0 for e in m):
            raise PolynomialError("inexact polynomial division")
        c = r.pop(r_lead) / g_lc
        q_terms[m] = c
        for mg, cg in g_rest:
            mm = tuple(map(add, m, mg))
            v = r.get(mm, 0) - c * cg
            if v:
                r[mm] = v
            else:
                del r[mm]
    return Polynomial(f.order, q_terms)


# -- gcd, content, square-free machinery --------------------------------

def content_in(f: Polynomial, var: str) -> Polynomial:
    """gcd of the coefficients of f with respect to var."""
    if f.is_zero:
        return f
    coeffs = [c for c in f.coeffs_in(var) if not c.is_zero]
    g = coeffs[0]
    for c in coeffs[1:]:
        if g.is_constant:
            break
        g = poly_gcd(g, c)
    return g.normalized() if not g.is_constant else Polynomial.const(f.order, 1)


def primitive_in(f: Polynomial, var: str) -> Polynomial:
    if f.is_zero:
        return f
    return exact_div(f, content_in(f, var))


def poly_gcd(f: Polynomial, g: Polynomial) -> Polynomial:
    """Multivariate gcd over Q by primitive pseudo-remainder sequence."""
    if f.is_zero:
        return g.normalized()
    if g.is_zero:
        return f.normalized()
    if f.is_constant or g.is_constant:
        return Polynomial.const(f.order, 1)
    var = f.order.names[max(f.level(), g.level()) - 1]
    if f.degree(var) == 0:
        return poly_gcd(f, content_in(g, var))
    if g.degree(var) == 0:
        return poly_gcd(content_in(f, var), g)
    cf = content_in(f, var)
    cg = content_in(g, var)
    c = poly_gcd(cf, cg)
    a = exact_div(f, cf)
    b = exact_div(g, cg)
    if a.degree(var) < b.degree(var):
        a, b = b, a
    while not b.is_zero:
        _, r = pseudo_divmod(a, b, var)
        if not r.is_zero and r.degree(var) >= 1:
            r = primitive_in(r, var)
        a, b = b, r
    if a.degree(var) == 0:
        return c
    return (c * primitive_in(a, var)).normalized()


def squarefree_part(f: Polynomial) -> Polynomial:
    """The product of the distinct irreducible factors of f."""
    if f.is_zero or f.is_constant:
        return f.normalized()
    var = f.main_var()
    cont = content_in(f, var)
    if not cont.is_constant:
        prim = exact_div(f, cont)
        return (squarefree_part(cont) * squarefree_part(prim)).normalized()
    g = poly_gcd(f, f.derivative(var))
    if g.is_constant:
        return f.normalized()
    return exact_div(f, g).normalized()


def squarefree_basis(polys: Iterable[Polynomial], var: str = None) -> list:
    """Square-free, pairwise-coprime, primitive basis with the same zeros.

    Constants are discarded.  If ``var`` is given, the content of each
    polynomial with respect to ``var`` is split off as its own basis
    element before the square-free and coprimality refinement.
    """
    work = []

    def split(p):
        # peel contents off recursively so every basis candidate is
        # primitive in its own main variable; contents carry zeros too
        if p.is_zero or p.is_constant:
            return
        cont = content_in(p, p.main_var())
        if not cont.is_constant:
            split(cont)
            p = exact_div(p, cont)
        work.append(p)

    for p in polys:
        split(p)
    basis: list = []
    queue = [squarefree_part(p) for p in work]
    while queue:
        p = queue.pop()
        if p.is_constant or p.is_zero:
            continue
        p = p.normalized()
        for i, q in enumerate(basis):
            if p == q:
                p = None
                break
            g = poly_gcd(p, q)
            if not g.is_constant:
                basis.pop(i)
                queue.append(g)
                queue.append(exact_div(q, g))
                queue.append(exact_div(p, g))
                p = None
                break
        if p is not None:
            basis.append(p)
    basis.sort(key=lambda p: p.sort_key())
    return basis


# -- resultant and discriminant -----------------------------------------

def resultant(p: Polynomial, q: Polynomial, var: str) -> Polynomial:
    """Resultant with respect to ``var``; the Sylvester determinant value.

    Computed via a pseudo-remainder sequence; the exact scalar-polynomial
    correction factors are accumulated and divided out at the end, so the
    result is exact without determinant expansion.
    """
    if p.order != q.order:
        raise PolynomialError("mismatched variable orders")
    if p.degree(var) < 1 or q.degree(var) < 1:
        raise PolynomialError("resultant requires positive degree in %s" % var)
    return _resultant_prs(p, q, var)


def _resultant_prs(p: Polynomial, q: Polynomial, var: str) -> Polynomial:
    order = p.order
    one = Polynomial.const(order, 1)
    sign = 1
    num: list = []
    den: list = []
    a, b = p, q
    if a.degree(var) < b.degree(var):
        if (a.degree(var) * b.degree(var)) % 2 == 1:
            sign = -sign
        a, b = b, a
    while True:
        da, db = a.degree(var), b.degree(var)
        if db == 0:
            num.append((b, da))
            break
        _, r = pseudo_divmod(a, b, var)
        if r.is_zero:
            return Polynomial.zero(order)
        dr = r.degree(var)
        lc_b = b.leading_coeff(var)
        if (da * db) % 2 == 1:
            sign = -sign
        num.append((lc_b, da - dr))
        den.append((lc_b, (da - db + 1) * db))
        a, b = b, r
    result = one if sign > 0 else -one
    for base, e in num:
        if e:
            result = result * base ** e
    for base, e in den:
        if e:
            result = exact_div(result, base ** e)
    return result


def discriminant(p: Polynomial, var: str) -> Polynomial:
    """(-1)^(d(d-1)/2) * res(p, dp/dv) / lc_v(p); requires degree >= 2."""
    d = p.degree(var)
    if d < 2:
        raise PolynomialError("discriminant requires degree >= 2 in %s" % var)
    r = _resultant_prs(p, p.derivative(var), var)
    r = exact_div(r, p.leading_coeff(var))
    if (d * (d - 1) // 2) % 2 == 1:
        r = -r
    return r
