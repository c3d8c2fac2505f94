"""First-order formulas over polynomial constraints: AST, parser,
printer, and prenex normal form.

Grammar: quantifiers ``exists v.`` / ``forall v.``; connectives
``/\\ \\/ ~ ->``; relations ``= != < <= > >=`` between polynomials, which
are read by ``polynomial.PolyParser`` over its tokens.  Atoms are
normalised to a polynomial compared with zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from .polynomial import Polynomial, PolyParser, VarOrder


RELS = ("=", "!=", "<", "<=", ">", ">=")

_NEG = {"=": "!=", "!=": "=", "<": ">=", "<=": ">", ">": "<=", ">=": "<"}

_SIGN_OK = {
    "=": (0,), "!=": (-1, 1), "<": (-1,), "<=": (-1, 0),
    ">": (1,), ">=": (0, 1),
}


class FormulaError(ValueError):
    pass


class Formula:
    __slots__ = ()


@dataclass(frozen=True)
class TrueF(Formula):
    def __str__(self):
        return "true"


@dataclass(frozen=True)
class FalseF(Formula):
    def __str__(self):
        return "false"


TRUE = TrueF()
FALSE = FalseF()


@dataclass(frozen=True)
class Atom(Formula):
    poly: Polynomial
    rel: str

    def holds(self, sign: int) -> bool:
        return sign in _SIGN_OK[self.rel]

    def __str__(self):
        return "%s %s 0" % (self.poly, self.rel)


@dataclass(frozen=True)
class Not(Formula):
    arg: Formula

    def __str__(self):
        return "~(%s)" % self.arg


@dataclass(frozen=True)
class And(Formula):
    args: Tuple[Formula, ...]

    def __str__(self):
        return " /\\ ".join("(%s)" % a for a in self.args)


@dataclass(frozen=True)
class Or(Formula):
    args: Tuple[Formula, ...]

    def __str__(self):
        return " \\/ ".join("(%s)" % a for a in self.args)


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula

    def __str__(self):
        return "(%s) -> (%s)" % (self.left, self.right)


@dataclass(frozen=True)
class Quant(Formula):
    kind: str  # "exists" | "forall"
    var: str
    body: Formula

    def __str__(self):
        return "%s %s. %s" % (self.kind, self.var, self.body)


# -- parsing ------------------------------------------------------------

class _Parser(PolyParser):
    """The formula rules over ``PolyParser``'s tokens and polynomials."""

    error = FormulaError

    # formula := implication; quantifiers reach to the end of their scope
    def formula(self) -> Formula:
        t = self.peek()
        if t in ("exists", "forall"):
            self.take()
            var = self.take()
            if var not in self.order:
                raise FormulaError("unknown variable %r" % var)
            self.take(".")
            return Quant(t, var, self.formula())
        return self.implication()

    def implication(self) -> Formula:
        left = self.disjunction()
        if self.peek() == "->":
            self.take()
            return Implies(left, self.formula())
        return left

    def disjunction(self) -> Formula:
        args = [self.conjunction()]
        while self.peek() == "\\/":
            self.take()
            args.append(self.conjunction())
        return args[0] if len(args) == 1 else Or(tuple(args))

    def conjunction(self) -> Formula:
        args = [self.unary()]
        while self.peek() == "/\\":
            self.take()
            args.append(self.unary())
        return args[0] if len(args) == 1 else And(tuple(args))

    def unary(self) -> Formula:
        t = self.peek()
        if t == "~":
            self.take()
            return Not(self.unary())
        if t in ("exists", "forall"):
            return self.formula()
        if t == "true":
            self.take()
            return TRUE
        if t == "false":
            self.take()
            return FALSE
        if t == "(":
            # either a parenthesised formula or a parenthesised polynomial
            mark = self.i
            try:
                self.take()
                f = self.formula()
                self.take(")")
                return f
            except FormulaError:
                self.i = mark
        return self.atom()

    def atom(self) -> Formula:
        lhs = self.expr()
        t = self.peek()
        if t not in RELS:
            raise FormulaError("expected a relation, found %r" % t)
        self.take()
        p = lhs - self.expr()
        q = p.normalized()
        # normalized() scales by a nonzero rational, which may be negative;
        # undo a flip so that order relations keep their meaning
        if p.terms:
            m = next(iter(p.terms))
            if p.terms[m] * q.terms[m] < 0:
                q = -q
        return Atom(q, t)


def parse_formula(text: str, order: VarOrder) -> Formula:
    p = _Parser(text, order)
    f = p.formula()
    p.end()
    _check_single_binding(f, set())
    return f


def _check_single_binding(f: Formula, bound: set) -> None:
    if isinstance(f, Quant):
        if f.var in bound:
            raise FormulaError("variable %r bound twice" % f.var)
        _check_single_binding(f.body, bound | {f.var})
    elif isinstance(f, (And, Or)):
        for a in f.args:
            _check_single_binding(a, bound)
    elif isinstance(f, Not):
        _check_single_binding(f.arg, bound)
    elif isinstance(f, Implies):
        _check_single_binding(f.left, bound)
        _check_single_binding(f.right, bound)


# -- structure helpers --------------------------------------------------

def atoms_of(f: Formula) -> List[Atom]:
    out: List[Atom] = []

    def walk(g):
        if isinstance(g, Atom):
            out.append(g)
        elif isinstance(g, (And, Or)):
            for a in g.args:
                walk(a)
        elif isinstance(g, Not):
            walk(g.arg)
        elif isinstance(g, Implies):
            walk(g.left)
            walk(g.right)
        elif isinstance(g, Quant):
            walk(g.body)

    walk(f)
    return out


def free_vars(f: Formula) -> set:
    if isinstance(f, Atom):
        return f.poly.variables()
    if isinstance(f, (TrueF, FalseF)):
        return set()
    if isinstance(f, Not):
        return free_vars(f.arg)
    if isinstance(f, Implies):
        return free_vars(f.left) | free_vars(f.right)
    if isinstance(f, (And, Or)):
        out = set()
        for a in f.args:
            out |= free_vars(a)
        return out
    if isinstance(f, Quant):
        return free_vars(f.body) - {f.var}
    raise FormulaError("unknown node %r" % (f,))


def evaluate_formula(f: Formula, signs) -> bool:
    """Truth of a quantifier-free formula given a sign function
    (mapping Polynomial -> -1/0/1)."""
    if isinstance(f, TrueF):
        return True
    if isinstance(f, FalseF):
        return False
    if isinstance(f, Atom):
        return f.holds(signs(f.poly))
    if isinstance(f, Not):
        return not evaluate_formula(f.arg, signs)
    if isinstance(f, And):
        return all(evaluate_formula(a, signs) for a in f.args)
    if isinstance(f, Or):
        return any(evaluate_formula(a, signs) for a in f.args)
    if isinstance(f, Implies):
        return (not evaluate_formula(f.left, signs)
                or evaluate_formula(f.right, signs))
    raise FormulaError("formula is not quantifier-free: %s" % f)


# -- prenex normal form -------------------------------------------------

@dataclass
class PrenexFormula:
    free_vars: List[str]
    blocks: List[Tuple[str, List[str]]]  # outermost first
    matrix: Formula

    @property
    def alternations(self) -> int:
        return max(0, len(self.blocks) - 1)

    def quantified_vars(self) -> List[str]:
        return [v for _, vs in self.blocks for v in vs]

    def __str__(self):
        prefix = "".join("%s %s. " % (k, v)
                         for k, vs in self.blocks for v in vs)
        return prefix + str(self.matrix)


def _pull(f: Formula, negate: bool):
    flip = {"exists": "forall", "forall": "exists"}
    if isinstance(f, Quant):
        kind = flip[f.kind] if negate else f.kind
        qs, m = _pull(f.body, negate)
        return [(kind, f.var)] + qs, m
    if isinstance(f, Not):
        return _pull(f.arg, not negate)
    if isinstance(f, Implies):
        return _pull(Or((Not(f.left), f.right)), negate)
    if isinstance(f, (And, Or)):
        qs, ms = [], []
        for a in f.args:
            q, m = _pull(a, negate)
            qs.extend(q)
            ms.append(m)
        swap = isinstance(f, And) == negate
        return qs, (Or(tuple(ms)) if swap else And(tuple(ms)))
    if isinstance(f, TrueF):
        return [], (FALSE if negate else TRUE)
    if isinstance(f, FalseF):
        return [], (TRUE if negate else FALSE)
    if isinstance(f, Atom):
        return [], (Atom(f.poly, _NEG[f.rel]) if negate else f)
    raise FormulaError("unknown node %r" % (f,))


def prenex(f: Formula, order: VarOrder) -> PrenexFormula:
    """Prenex normal form; quantified variables must come after every free
    variable in the order, and quantifier nesting must match the order."""
    qs, matrix = _pull(f, False)
    free = sorted(free_vars(f), key=order.index)
    qvars = [v for _, v in qs]
    k = len(free)
    expected = list(order.names[k:k + len(qvars)])
    if free != list(order.names[:k]):
        raise FormulaError("free variables must come first in the order")
    if sorted(qvars, key=order.index) != expected:
        raise FormulaError("quantified variables do not match the order")
    # variables may be reordered freely inside a same-kind run, but the
    # runs themselves must already respect the variable order
    blocks: List[Tuple[str, List[str]]] = []
    for kind, var in qs:
        if blocks and blocks[-1][0] == kind:
            blocks[-1][1].append(var)
        else:
            blocks.append((kind, [var]))
    last = -1
    for kind, vs in blocks:
        vs.sort(key=order.index)
        if order.index(vs[0]) <= last:
            raise FormulaError(
                "quantifier nesting incompatible with the variable order")
        last = order.index(vs[-1])
    return PrenexFormula(free, blocks, matrix)
