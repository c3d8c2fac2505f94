"""Complex cylindrical decomposition trees: parsing, validation at
probe points, and realization as a real, sign-invariant CAD.

Trees are inputs (construction belongs to triangular-decomposition
theory, which is out of scope here).  A tree partitions C^n level by
level into equation branches and one complement branch; realization
walks the tree over real sample points, splitting complement cells by
the real roots of the sibling equations.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .polynomial import (
    Polynomial,
    PolynomialError,
    VarOrder,
    parse_poly,
    poly_gcd,
    squarefree_part,
)
from .cadcore import CAD, Cell, build_stack, trivial_cell
from .projection import ProjectionLevels
from .realalg import isolate_roots


class CCDError(PolynomialError):
    pass


@dataclass
class CCDNode:
    kind: str  # "eq" | "neq" | "whole"
    poly: Optional[Polynomial]
    level: int
    children: List["CCDNode"] = field(default_factory=list)

    def label(self) -> str:
        if self.kind == "eq":
            return "%s = 0" % self.poly
        if self.kind == "neq":
            return "complement != 0"
        return "whole"


@dataclass
class CCDTree:
    order: VarOrder
    roots: List[CCDNode]  # level-1 nodes
    tracked: List[Polynomial] = field(default_factory=list)

    @property
    def nvars(self) -> int:
        return len(self.order.names)

    def leaf_count(self) -> int:
        def count(nodes):
            return sum(count(n.children) if n.children else 1 for n in nodes)
        return count(self.roots)


# -- s-expression parsing -----------------------------------------------

_SEXP = re.compile(r'"[^"]*"|[()]|[^\s()"]+')


def _lex(text: str) -> List[str]:
    return _SEXP.findall(re.sub(r";[^\n]*", "", text))


def _read(tokens: List[str], i: int):
    if i >= len(tokens):
        raise CCDError("unbalanced parenthesis")
    t = tokens[i]
    if t == "(":
        out = []
        i += 1
        while i < len(tokens) and tokens[i] != ")":
            node, i = _read(tokens, i)
            out.append(node)
        if i >= len(tokens):
            raise CCDError("unbalanced parenthesis")
        return out, i + 1
    if t == ")":
        raise CCDError("unbalanced parenthesis")
    return t, i + 1


def _unquote(t) -> str:
    if not isinstance(t, str):
        raise CCDError("expected an atom, got a list")
    return t[1:-1] if t.startswith('"') else t


def parse_tree(text: str) -> CCDTree:
    """Parse the s-expression tree format:

    (ccd (vars a b c x)
         (track "a*x^2 + b*x + c")
         (node (eq "a") (node (eq "b") ...) (node (neq) ...))
         (node (neq) ...))
    """
    tokens = _lex(text)
    if not tokens:
        raise CCDError("empty tree text")
    sexp, i = _read(tokens, 0)
    if i != len(tokens):
        raise CCDError("trailing input after the tree")
    if not isinstance(sexp, list) or not sexp or sexp[0] != "ccd":
        raise CCDError("expected a (ccd ...) form")
    order = None
    tracked: List[Polynomial] = []
    nodes: List[CCDNode] = []
    for item in sexp[1:]:
        if not isinstance(item, list) or not item:
            raise CCDError("unexpected item %r" % (item,))
        head = item[0]
        if head == "vars":
            order = VarOrder([_unquote(v) for v in item[1:]])
        elif head == "track":
            if order is None:
                raise CCDError("(vars ...) must precede (track ...)")
            tracked.extend(parse_poly(_unquote(p), order) for p in item[1:])
        elif head == "node":
            if order is None:
                raise CCDError("(vars ...) must precede nodes")
            nodes.append(_parse_node(item, order, 1))
        else:
            raise CCDError("unknown form %r" % head)
    if order is None or not nodes:
        raise CCDError("tree needs (vars ...) and at least one node")
    tree = CCDTree(order, nodes, tracked)
    _validate_structure(tree)
    return tree


def _parse_node(item, order: VarOrder, level: int) -> CCDNode:
    if len(item) < 2 or not isinstance(item[1], list) or not item[1]:
        raise CCDError("node needs a constraint at level %d" % level)
    con = item[1]
    kind = con[0]
    poly = None
    if kind == "eq":
        if len(con) != 2:
            raise CCDError("(eq ...) takes one polynomial")
        poly = parse_poly(_unquote(con[1]), order)
    elif kind not in ("neq", "whole"):
        raise CCDError("unknown constraint %r" % kind)
    node = CCDNode(kind, poly, level)
    for child in item[2:]:
        if not isinstance(child, list) or not child or child[0] != "node":
            raise CCDError("children must be (node ...) forms")
        node.children.append(_parse_node(child, order, level + 1))
    return node


def _validate_structure(tree: CCDTree) -> None:
    n = tree.nvars

    def check_siblings(nodes: List[CCDNode], level: int):
        if level > n:
            raise CCDError("tree deeper than the variable order")
        var = tree.order.names[level - 1]
        eqs = [nd for nd in nodes if nd.kind == "eq"]
        neqs = [nd for nd in nodes if nd.kind == "neq"]
        wholes = [nd for nd in nodes if nd.kind == "whole"]
        if wholes:
            if len(nodes) != 1:
                raise CCDError(
                    "a whole-space node must be an only child (level %d)"
                    % level)
        elif len(neqs) != 1:
            raise CCDError("level %d needs exactly one complement node"
                           % level)
        for nd in eqs:
            p = nd.poly
            if p.level() != level:
                raise CCDError("main variable of %s is not %s" % (p, var))
            if squarefree_part(p).degree(var) != p.degree(var):
                raise CCDError("%s is not square-free" % p)
        for i in range(len(eqs)):
            for j in range(i + 1, len(eqs)):
                if not poly_gcd(eqs[i].poly, eqs[j].poly).is_constant:
                    raise CCDError("siblings %s and %s are not coprime" %
                                   (eqs[i].poly, eqs[j].poly))
        for nd in nodes:
            if level < n:
                if not nd.children:
                    raise CCDError("node at level %d has no children"
                                   % level)
                check_siblings(nd.children, level + 1)
            elif nd.children:
                raise CCDError("leaf nodes must sit at level %d" % n)

    check_siblings(tree.roots, 1)


# -- separation validation at probe points ------------------------------

@dataclass
class SeparationReport:
    checked: int = 0
    violations: List[str] = field(default_factory=list)
    unprobed: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


_GRID = [Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2),
         Fraction(-1, 2), Fraction(2), Fraction(-2), Fraction(3),
         Fraction(-3), Fraction(1, 4), Fraction(-1, 4)]


def validate_separation(tree: CCDTree, probes: int = 3,
                        attempts: int = 100, seed: int = 0
                        ) -> SeparationReport:
    """At probe points of each branch cell, check Definition-2 separation
    of the children: nonvanishing leading coefficients, square-free
    instantiations, pairwise coprimality."""
    rng = random.Random(seed)
    report = SeparationReport()

    def walk(path: List[CCDNode], nodes: List[CCDNode]):
        level = len(path) + 1
        if level > tree.nvars:
            return
        var = tree.order.names[level - 1]
        eqs = [nd.poly for nd in nodes if nd.kind == "eq"]
        if eqs:
            for _ in range(probes):
                probe = _find_probe(tree, path, rng, attempts)
                if probe is None:
                    report.unprobed.append(_path_text(path))
                    break
                _check_probe(tree, path, eqs, var, probe, report)
        for nd in nodes:
            walk(path + [nd], nd.children)

    walk([], tree.roots)
    return report


def _find_probe(tree: CCDTree, path: List[CCDNode], rng,
                attempts: int) -> Optional[Dict[str, Fraction]]:
    order = tree.order
    k = len(path)
    if k == 0:
        return {}
    sibling_sets = _sibling_polys(tree, path)
    for trial in range(attempts):
        assignment: Dict[str, Fraction] = {}
        ok = True
        for depth, nd in enumerate(path, start=1):
            var = order.names[depth - 1]
            if nd.kind == "eq":
                # solve the branch equation for this coordinate when it
                # is rational-solvable; otherwise give up on this trial
                value = _solve_rational(nd.poly, var, assignment, rng)
                if value is None:
                    ok = False
                    break
                assignment[var] = value
            else:
                value = (rng.choice(_GRID[1:]) if trial % 2 == 0 else
                         Fraction(rng.randint(-16, 16) or 1,
                                  1 << rng.randint(0, 3)))
                assignment[var] = value
                if nd.kind == "neq":
                    for q in sibling_sets[depth - 1]:
                        if q.evaluate(assignment) == 0:
                            ok = False
                            break
                if not ok:
                    break
        if ok:
            return assignment
    return None


def _sibling_polys(tree: CCDTree, path: List[CCDNode]) -> List[List[Polynomial]]:
    out = []
    nodes = tree.roots
    for nd in path:
        out.append([s.poly for s in nodes if s.kind == "eq"])
        nodes = nd.children
    return out


def _solve_rational(p: Polynomial, var: str, prefix: Dict[str, Fraction],
                    rng) -> Optional[Fraction]:
    q = p.substitute(prefix)
    coeffs = q.univariate_coeffs(var)
    if len(coeffs) == 2 and coeffs[1] != 0:
        return -coeffs[0] / coeffs[1]
    if all(c == 0 for c in coeffs):
        return rng.choice(_GRID)
    if len(coeffs) <= 1:
        return None
    roots = [r for r in isolate_roots(q) if r.interval.is_point]
    if roots:
        return rng.choice(roots).interval.lo
    return None


def _check_probe(tree: CCDTree, path: List[CCDNode],
                 eqs: Sequence[Polynomial], var: str,
                 probe: Dict[str, Fraction],
                 report: SeparationReport) -> None:
    report.checked += 1
    where = "%s at %s" % (_path_text(path), dict(probe) or "{}")
    inst = []
    for p in eqs:
        lc = p.leading_coeff(var).substitute(probe)
        if lc.is_zero or (lc.is_constant and lc.constant_value() == 0):
            report.violations.append(
                "leading coefficient of %s vanishes: %s" % (p, where))
            continue
        q = p.substitute(probe)
        if squarefree_part(q).degree(var) != q.degree(var):
            report.violations.append(
                "%s is not square-free: %s" % (p, where))
        inst.append((p, q))
    for i in range(len(inst)):
        for j in range(i + 1, len(inst)):
            if not poly_gcd(inst[i][1], inst[j][1]).is_constant:
                report.violations.append(
                    "%s and %s share a root: %s" %
                    (inst[i][0], inst[j][0], where))


def _path_text(path: List[CCDNode]) -> str:
    return " / ".join(nd.label() for nd in path) or "(root)"


# -- realization as a real CAD ------------------------------------------

def make_semialgebraic(tree: CCDTree) -> CAD:
    """Walk the tree over real sample points, splitting each complement
    cell by the real roots of the sibling equations; the result is a
    sampled CAD that is sign-invariant for the tracked polynomials."""
    order = tree.order
    n = tree.nvars
    frontier: List[Tuple[Cell, List[CCDNode]]] = [
        (trivial_cell(order), tree.roots)]
    cells_by_level: Dict[int, List[Cell]] = {}
    for k in range(1, n + 1):
        var = order.names[k - 1]
        next_frontier: List[Tuple[Cell, List[CCDNode]]] = []
        level_cells: List[Cell] = []
        for base, nodes in frontier:
            eq_nodes = [nd for nd in nodes if nd.kind == "eq"]
            comp = next((nd for nd in nodes if nd.kind == "neq"), None)
            whole = next((nd for nd in nodes if nd.kind == "whole"), None)
            for nd in eq_nodes:
                lc = nd.poly.leading_coeff(var)
                if not lc.is_constant and base.sample.sign_of(lc) == 0:
                    raise CCDError(
                        "leading coefficient of %s vanishes over cell %s "
                        "(separation failure)" % (nd.poly, base.index))
            stack = build_stack(base, var, [nd.poly for nd in eq_nodes],
                                tree.tracked)
            for cell in stack.cells:
                if cell.is_section:
                    owner_poly = cell.description[-1].root.poly
                    owner = next(nd for nd in eq_nodes
                                 if nd.poly == owner_poly)
                else:
                    owner = comp if comp is not None else whole
                level_cells.append(cell)
                if owner is not None and owner.children:
                    next_frontier.append((cell, owner.children))
        cells_by_level[k] = level_cells
        frontier = next_frontier
    levels = ProjectionLevels(order)
    cad = CAD(order, levels, cells_by_level, {}, invariance_kind="sign")
    return cad
