"""Quantifier elimination by CAD: truth evaluation on cells, quantifier
propagation stack by stack, and quantifier-free formula synthesis in the
extended (indexed-root) language.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .cadcore import (
    CAD,
    Cell,
    CoordConstraint,
    RootRef,
    build_cad,
    describe_cell,
)
from .chains import compare_chain_coords
from .formulas import (
    And,
    Atom,
    Formula,
    FormulaError,
    Not,
    Or,
    PrenexFormula,
    Quant,
    TrueF,
    atoms_of,
    evaluate_formula,
    parse_formula,
    prenex,
)
from .polynomial import VarOrder
from .projection import ClauseSpec, ProjectionConfig
from .realalg import RealAlgebraicNumber


def evaluate_matrix(cad: CAD, matrix: Formula) -> Dict[Tuple[int, ...], bool]:
    """Truth of the quantifier-free matrix on every top-level cell,
    read off the stored signs."""
    keys = {a.poly: str(a.poly) for a in atoms_of(matrix)
            if not a.poly.is_constant}
    needed = sorted(set(keys.values()))
    out = {}
    for cell in cad.cells():
        missing = [key for key in needed if key not in cell.signs]
        if missing:
            raise FormulaError("signs not tracked for %s" % missing)

        def sign(p, _signs=cell.signs):
            if p.is_constant:
                v = p.constant_value()
                return (v > 0) - (v < 0)
            return _signs[keys[p]]

        out[cell.index] = evaluate_formula(matrix, sign)
    return out


def propagate(cad: CAD, blocks: Sequence[Tuple[str, Sequence[str]]],
              truths: Dict[Tuple[int, ...], bool]
              ) -> Dict[int, Dict[Tuple[int, ...], bool]]:
    """Fold quantifier blocks over the stacks, innermost first, one
    variable (one CAD level) at a time.  Returns the truth table of every
    level from the top down to the free-variable level, keyed by level."""
    level = cad.nvars
    tables = {level: truths}
    for kind, vars_ in reversed(list(blocks)):
        for _ in reversed(vars_):
            merged: Dict[Tuple[int, ...], bool] = {}
            agg = any if kind == "exists" else all
            groups: Dict[Tuple[int, ...], List[bool]] = {}
            for idx, t in truths.items():
                groups.setdefault(idx[:-1], []).append(t)
            for base, vals in groups.items():
                merged[base] = agg(vals)
            level -= 1
            truths = merged
            tables[level] = truths
    return tables


@dataclass
class ExtendedFormula:
    """A disjunction of cell descriptions over the free variables."""

    order: VarOrder
    cells: List[Cell]
    language: str = "extended"
    is_true: Optional[bool] = None  # set for sentences

    def text(self) -> str:
        if self.is_true is not None:
            return "true" if self.is_true else "false"
        if not self.cells:
            return "false"
        parts = [describe_cell(c, self.language) for c in self.cells]
        if len(parts) == 1:
            return parts[0]
        return " \\/ ".join("(%s)" % p for p in parts)

    def evaluate(self, assignment: Dict[str, Fraction]) -> bool:
        if self.is_true is not None:
            return self.is_true
        return any(_cell_holds(c, assignment) for c in self.cells)

    def __str__(self):
        return self.text()


def _cell_holds(cell: Cell, assignment: Dict[str, Fraction]) -> bool:
    done: Dict[str, Fraction] = {}
    for con in cell.description:
        x = assignment[con.var]
        if not _constraint_holds(con, x, done):
            return False
        done[con.var] = x
    return True


def _constraint_holds(con: CoordConstraint, x: Fraction,
                      prefix: Dict[str, Fraction]) -> bool:
    if con.kind == "all":
        return True

    def root_vs_x(r: RootRef) -> Optional[int]:
        # sign of (root - x); None when the root does not exist
        root = r.over(con.var, prefix)
        if root is None:
            return None
        point = RealAlgebraicNumber.rational(x, con.var, r.poly.order)
        return compare_chain_coords(root, point, con.var, [])

    if con.kind == "eq":
        return root_vs_x(con.root) == 0
    return ((con.lower is None or root_vs_x(con.lower) == -1) and
            (con.upper is None or root_vs_x(con.upper) == 1))


def synthesize(cad: CAD, truths: Dict[Tuple[int, ...], bool], k: int,
               language: str = "extended",
               merge_adjacent: bool = False) -> ExtendedFormula:
    """Disjunction of the defining formulae of the true level-k cells."""
    if k == 0:
        return ExtendedFormula(cad.order, [], language,
                               is_true=bool(truths.get((), False)))
    chosen = [c for c in cad.cells(k) if truths.get(c.index, False)]
    if merge_adjacent:
        chosen = _merge_adjacent(cad, chosen, truths, k)
    return ExtendedFormula(cad.order, chosen, language)


def _merge_adjacent(cad: CAD, chosen: List[Cell], truths, k: int):
    # syntactic merging only: a sector between two true sections sharing
    # its bounding roots lets the three collapse into one widened sector.
    # Cells whose whole stack is true collapse to the base description.
    out: List[Cell] = []
    by_base: Dict[Tuple[int, ...], List[Cell]] = {}
    for c in chosen:
        by_base.setdefault(c.index[:-1], []).append(c)
    for base, cells in sorted(by_base.items()):
        stack_size = sum(1 for c in cad.cells(k) if c.index[:-1] == base)
        if len(cells) == stack_size:
            rep = cells[0]
            merged = Cell(rep.index, rep.sample, rep.signs,
                          rep.description[:-1] +
                          (CoordConstraint(rep.description[-1].var, "all"),),
                          rep.nullified)
            out.append(merged)
        else:
            out.extend(cells)
    return out


@dataclass
class QEResult:
    formula: ExtendedFormula
    cad: CAD
    prenexed: PrenexFormula
    truths: Dict[int, Dict[Tuple[int, ...], bool]]
    witness: Optional[List[str]] = None

    @property
    def is_true(self) -> Optional[bool]:
        return self.formula.is_true

    def text(self) -> str:
        return self.formula.text()


def formula_clauses(matrix: Formula) -> Optional[List[ClauseSpec]]:
    """Read a clause structure (for the tti operator) off a matrix that is
    a disjunction of conjunctions of atoms."""
    disjuncts = list(matrix.args) if isinstance(matrix, Or) else [matrix]
    clauses = []
    for d in disjuncts:
        literals = list(d.args) if isinstance(d, And) else [d]
        ec = None
        others = []
        for lit in literals:
            if not isinstance(lit, Atom):
                return None
            if lit.poly.is_constant:
                continue
            if lit.rel == "=" and ec is None:
                ec = lit.poly
            else:
                others.append(lit.poly)
        if ec is None and not others:
            return None
        clauses.append(ClauseSpec(ec, tuple(others)))
    return clauses


def qe(f, order: VarOrder, operator: str = "mccallum",
       lifting: str = "full", language: str = "extended",
       merge_adjacent: bool = False, fallback: str = "abort",
       want_witness: bool = False,
       timings: Optional[Dict[str, float]] = None) -> QEResult:
    """Full quantifier elimination: prenex, CAD, evaluate, propagate,
    synthesize.  ``f`` may be a Formula or source text."""
    if isinstance(f, str):
        f = parse_formula(f, order)
    pf = prenex(f, order)
    k = len(pf.free_vars)
    polys = []
    seen = set()
    for a in atoms_of(pf.matrix):
        if not a.poly.is_constant and str(a.poly) not in seen:
            seen.add(str(a.poly))
            polys.append(a.poly)
    if operator in ("ec", "tti"):
        if k > 0 and lifting == "ec":
            # a truth-table-invariant decomposition projected to the free
            # levels is only meaningful when the clause structure aligns;
            # require sign-invariant lifting for partial elimination
            raise FormulaError(
                "ec-reduced lifting requires a sentence or full lifting "
                "over the free variables")
        clauses = formula_clauses(pf.matrix)
        if clauses is None:
            raise FormulaError("matrix has no clause structure for %s"
                               % operator)
        inputs = clauses
    else:
        inputs = polys
    if not polys:
        def _const_sign(p):
            v = p.constant_value()
            return (v > 0) - (v < 0)
        value = evaluate_formula(pf.matrix, _const_sign)
        ef = ExtendedFormula(order, [], language, is_true=value)
        return QEResult(ef, None, pf, {})
    config = ProjectionConfig(operator, order)
    cad = build_cad(inputs, config, lifting=lifting, fallback=fallback,
                    sign_polys=polys, timings=timings)
    t0 = time.perf_counter()
    leaf = evaluate_matrix(cad, pf.matrix)
    tables = propagate(cad, pf.blocks, leaf)
    if timings is not None:
        timings["propagation"] = time.perf_counter() - t0
    result = synthesize(cad, tables[k], k, language, merge_adjacent)
    witness = None
    if (want_witness and k == 0 and pf.blocks
            and pf.blocks[0][0] == "exists" and result.is_true):
        depth = len(pf.blocks[0][1])
        table = tables[depth]
        for cell in cad.cells(depth):
            if table.get(cell.index, False):
                witness = [cell.sample.coord_str(i) for i in range(depth)]
                break
    return QEResult(result, cad, pf, tables, witness)
