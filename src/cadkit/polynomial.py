"""Exact multivariate polynomial arithmetic over the rationals.

Sparse representation: a polynomial is a map from exponent vectors to
nonzero Fraction coefficients under a fixed variable order.  Views by a
main variable (coefficient lists, leading coefficient, pseudo-division)
are computed on demand, which is what the projection operators need.

Resultants are computed by a pseudo-remainder sequence with an exact
correction-factor ledger (the Sylvester determinant is kept as a test
oracle only).  The discriminant sign is fixed so that
disc_x(a*x^2 + b*x + c) = b^2 - 4*a*c.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd as int_gcd
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
            coeff = Fraction(coeff)
            if coeff == 0:
                continue
            expts = tuple(expts)
            if len(expts) != n or any(e < 0 for e in expts):
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
            terms[m] = terms.get(m, Fraction(0)) + c
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
                terms[m] = terms.get(m, Fraction(0)) + c1 * c2
        return Polynomial(self.order, terms)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise PolynomialError("negative power")
        result = Polynomial.const(self.order, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

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
            buckets[e][rest] = buckets[e].get(rest, Fraction(0)) + c
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

    def from_coeffs(self, var: str, coeffs: Sequence["Polynomial"]) -> "Polynomial":
        i = self.order.index(var)
        terms: dict = {}
        for e, p in enumerate(coeffs):
            for m, c in p.terms.items():
                mm = m[:i] + (m[i] + e,) + m[i + 1:]
                terms[mm] = terms.get(mm, Fraction(0)) + c
        return Polynomial(self.order, terms)

    def derivative(self, var: str) -> "Polynomial":
        i = self.order.index(var)
        terms: dict = {}
        for m, c in self.terms.items():
            if m[i] == 0:
                continue
            mm = m[:i] + (m[i] - 1,) + m[i + 1:]
            terms[mm] = terms.get(mm, Fraction(0)) + c * m[i]
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

_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|(\*\*|[-+*/^()]))")


def parse_poly(text: str, order: VarOrder) -> Polynomial:
    """Parse ``+ - * / ^`` expressions over integers and named variables;
    division only by nonzero constants."""
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise PolynomialError(
                    "syntax error at position %d in %r" % (pos, text))
            break
        pos = m.end()
        if m.group(1):
            tokens.append(("num", int(m.group(1))))
        elif m.group(2):
            tokens.append(("var", m.group(2)))
        else:
            op = "^" if m.group(3) == "**" else m.group(3)
            tokens.append((op, op))
    tokens.append(("end", None))

    state = {"i": 0}

    def peek():
        return tokens[state["i"]][0]

    def take(kind=None):
        tok = tokens[state["i"]]
        if kind is not None and tok[0] != kind:
            raise PolynomialError("expected %s, got %r in %r" % (kind, tok[1], text))
        state["i"] += 1
        return tok

    def parse_expr():
        if peek() == "-":
            take()
            node = -parse_term()
        else:
            if peek() == "+":
                take()
            node = parse_term()
        while peek() in ("+", "-"):
            op = take()[0]
            rhs = parse_term()
            node = node + rhs if op == "+" else node - rhs
        return node

    def parse_term():
        node = parse_factor()
        while peek() in ("*", "/"):
            op = take()[0]
            rhs = parse_factor()
            if op == "*":
                node = node * rhs
            elif rhs.is_zero:
                raise PolynomialError("division by zero in %r" % text)
            else:
                node = node * Polynomial.const(order, Fraction(1) / rhs.constant_value())
        return node

    def parse_factor():
        node = parse_base()
        if peek() == "^":
            take()
            node = node ** take("num")[1]
        return node

    def parse_base():
        kind, value = tokens[state["i"]]
        if kind == "num":
            take()
            return Polynomial.const(order, value)
        if kind == "var":
            take()
            return Polynomial.var(order, value)
        if kind == "(":
            take()
            node = parse_expr()
            take(")")
            return node
        if kind == "-":
            take()
            return -parse_base()
        raise PolynomialError("unexpected token %r in %r" % (value, text))

    node = parse_expr()
    take("end")
    return node


# -- pseudo-division ----------------------------------------------------

def prem(f: Polynomial, g: Polynomial, var: str) -> Polynomial:
    """Pseudo-remainder: lc_v(g)^(deg f - deg g + 1) * f = q*g + prem."""
    return pseudo_divmod(f, g, var)[1]


def pseudo_divmod(f: Polynomial, g: Polynomial, var: str):
    """Return (pseudo-quotient, pseudo-remainder) for division by g in var."""
    dg = g.degree(var)
    if dg < 0:
        raise PolynomialError("pseudo-division by zero")
    df = f.degree(var)
    if df < dg:
        # convention: lc^(delta+1) with delta+1 = max(df-dg+1, 0) = 0
        return Polynomial.zero(f.order), f
    lc_g = g.leading_coeff(var)
    v = Polynomial.var(f.order, var)
    n = df - dg + 1
    q = Polynomial.zero(f.order)
    r = f
    while not r.is_zero and r.degree(var) >= dg:
        dr = r.degree(var)
        lc_r = r.leading_coeff(var)
        shift = lc_r * v ** (dr - dg)
        q = q * lc_g + shift
        r = r * lc_g - shift * g
        n -= 1
    if n > 0:
        scale = lc_g ** n
        q = q * scale
        r = r * scale
    return q, r


def exact_div(f: Polynomial, g: Polynomial) -> Polynomial:
    """Exact multivariate division; raises if g does not divide f."""
    if g.is_zero:
        raise PolynomialError("division by zero polynomial")
    if f.is_zero:
        return f
    if g.is_constant:
        return f.scale(Fraction(1) / g.constant_value())
    q_terms: dict = {}
    g_lead = max(g.terms, key=_monomial_key)
    g_lc = g.terms[g_lead]
    r = f
    while not r.is_zero:
        r_lead = max(r.terms, key=_monomial_key)
        m = tuple(a - b for a, b in zip(r_lead, g_lead))
        if any(e < 0 for e in m):
            raise PolynomialError("inexact polynomial division")
        c = r.terms[r_lead] / g_lc
        q_terms[m] = q_terms.get(m, Fraction(0)) + c
        r = r - Polynomial(f.order, {m: c}) * g
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


def squarefree_decomposition(f: Polynomial, var: str) -> list:
    """Yun's algorithm: list of (factor, multiplicity), univariate in var."""
    if f.degree(var) < 1:
        return []
    fp = f.derivative(var)
    a = poly_gcd(f, fp)
    b = exact_div(f, a)
    c = exact_div(fp, a)
    d = c - b.derivative(var)
    result = []
    i = 1
    while b.degree(var) >= 1:
        g = poly_gcd(b, d)
        if g.degree(var) >= 1:
            result.append((g.normalized(), i))
        b = exact_div(b, g)
        if b.degree(var) < 1:
            break
        c = exact_div(d, g)
        d = c - b.derivative(var)
        i += 1
    return result


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
