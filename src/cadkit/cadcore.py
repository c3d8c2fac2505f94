"""Sampled cylindrical algebraic decomposition: base phase, lifting,
invariance bookkeeping, and cell descriptions.

Cells are indexed 1-based and bottom-up within each stack: odd positions
are open sectors, even positions are sections (root hypersurfaces).  The
base phase is just lifting over the trivial point of R^0, so one stack
builder serves every level.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .polynomial import (
    Polynomial,
    PolynomialError,
    VarOrder,
    poly_gcd,
    squarefree_part,
)
from .chains import (
    SamplePoint,
    chain_reduce,
    is_zero_chain,
    isolate_chain,
    merge_chain_roots,
    sample_between,
)
from .realalg import RealAlgebraicNumber, isolate_roots
from .projection import (
    ClauseSpec,
    ProjectionConfig,
    ProjectionLevels,
    project_all,
)


class NotWellOriented(PolynomialError):
    """A projection polynomial vanishes identically over a cell of
    positive dimension, so the reduced projection's guarantee fails."""

    def __init__(self, cell_index, poly):
        self.cell_index = tuple(cell_index)
        self.poly = poly
        super().__init__(
            "polynomial %s nullifies on cell %s" % (poly, self.cell_index))


@dataclass(frozen=True)
class RootRef:
    """An indexed real root of a level polynomial over a base cell:
    root number `index`, counting from minus infinity, 1-based."""

    poly: Polynomial
    index: int
    value: Optional[Fraction] = None

    def text(self, var: str) -> str:
        if self.value is not None:
            return str(self.value)
        return "RootOf_%d(%s, %s)" % (self.index, self.poly, var)

    def over(self, var: str, prefix: Dict[str, Fraction]):
        """The root named here, over a rational prefix point; None if the
        polynomial has fewer real roots there."""
        if self.value is not None:
            return RealAlgebraicNumber.rational(self.value, var,
                                                self.poly.order)
        return indexed_root(self.poly, var, self.index, prefix)


@dataclass(frozen=True)
class CoordConstraint:
    var: str
    kind: str  # "all" | "eq" | "sector"
    root: Optional[RootRef] = None
    lower: Optional[RootRef] = None
    upper: Optional[RootRef] = None

    def text(self) -> str:
        if self.kind == "all":
            return "%s in R" % self.var
        if self.kind == "eq":
            return "%s = %s" % (self.var, self.root.text(self.var))
        parts = []
        if self.lower is not None:
            parts.append("%s < %s" % (self.lower.text(self.var), self.var))
        if self.upper is not None:
            parts.append("%s < %s" % (self.var, self.upper.text(self.var)))
        if not parts:
            return "%s in R" % self.var
        if self.lower is not None and self.upper is not None:
            return "%s < %s < %s" % (self.lower.text(self.var), self.var,
                                     self.upper.text(self.var))
        return parts[0]


@dataclass
class Cell:
    index: Tuple[int, ...]
    sample: SamplePoint
    signs: Dict[str, int] = field(default_factory=dict)
    description: Tuple[CoordConstraint, ...] = ()
    nullified: Tuple[str, ...] = ()

    @property
    def level(self) -> int:
        return len(self.index)

    @property
    def dimension(self) -> int:
        return sum(1 for i in self.index if i % 2 == 1)

    @property
    def is_section(self) -> bool:
        return bool(self.index) and self.index[-1] % 2 == 0

    def describe(self) -> str:
        return " and ".join(c.text() for c in self.description)


@dataclass
class Stack:
    base_index: Tuple[int, ...]
    cells: List[Cell]


@dataclass
class CAD:
    order: VarOrder
    levels: ProjectionLevels
    cells_by_level: Dict[int, List[Cell]]
    splitters: Dict[int, List[Polynomial]]
    invariance_kind: str = "sign"

    @property
    def nvars(self) -> int:
        return len(self.order.names)

    def cells(self, k: Optional[int] = None) -> List[Cell]:
        return self.cells_by_level[self.nvars if k is None else k]

    def cell_count(self, k: Optional[int] = None) -> int:
        return len(self.cells(k))

    def per_level_counts(self) -> Dict[int, int]:
        return {k: len(v) for k, v in sorted(self.cells_by_level.items())}

    def full_dimensional_count(self, k: Optional[int] = None) -> int:
        return sum(1 for c in self.cells(k)
                   if c.dimension == (self.nvars if k is None else k))


# -- stack construction -------------------------------------------------

def _root_ref(coord: RealAlgebraicNumber, members: Sequence[int],
              splitters: Sequence[Polynomial],
              per_poly_rank: Dict[int, int], base_dim: int) -> RootRef:
    owner = min(members, key=lambda i: splitters[i].sort_key())
    # a rational value is only a faithful description when the fibre sits
    # over a single point; over a positive-dimensional base the root moves
    value = (coord.interval.lo
             if coord.interval.is_point and base_dim == 0 else None)
    return RootRef(splitters[owner], per_poly_rank[owner], value)


def build_stack(base: Cell, var: str,
                split_polys: Sequence[Polynomial],
                sign_polys: Sequence[Polynomial],
                tolerate_nullification: bool = False) -> Stack:
    """Lift one base cell: isolate the roots of the splitting polynomials
    over its sample, interleave sectors, and record signs.

    Nullification over a positive-dimensional base is an error unless
    ``tolerate_nullification`` is set; with the Collins operator every
    coefficient of every reductum is sign-invariant on the base cell, so
    vanishing at the sample implies vanishing on the whole cylinder and
    recording sign 0 is sound."""
    sample = base.sample
    chain = sample.chain
    groups: List[List[RealAlgebraicNumber]] = []
    active: List[Polynomial] = []
    nullified = list(base.nullified)
    for p in split_polys:
        prepared = chain_reduce(sample.prepare(p), var, chain)
        if prepared.degree(var) < 1:
            # every coefficient vanished, or the poly lost its main
            # variable at this sample without vanishing outright
            if is_zero_chain(prepared, chain):
                if base.dimension > 0 and not tolerate_nullification:
                    raise NotWellOriented(base.index, p)
                nullified.append(str(p))
            continue
        groups.append(isolate_chain(prepared, var, chain))
        active.append(p)
    merged = merge_chain_roots(groups, var, chain)
    nullified = tuple(nullified)

    # the sign polynomials this level records: those not yet recorded
    # below whose variables the new coordinate covers
    k = base.level + 1
    record = [(str(p), p) for p in sign_polys if p.level() <= k]
    record = [(key, p) for key, p in record if key not in base.signs]

    # rank each root within its own polynomial's root list, from -inf
    seen: Dict[int, int] = {}
    refs: List[RootRef] = []
    for coord, members in merged:
        rank: Dict[int, int] = {}
        for i in members:
            seen[i] = seen.get(i, 0) + 1
            rank[i] = seen[i]
        refs.append(_root_ref(coord, members, active, rank, base.dimension))

    cells: List[Cell] = []
    coords = [c for c, _ in merged]
    active_keys = [str(p) for p in active]
    member_keys = [tuple(active_keys[i] for i in ms) for _, ms in merged]
    for j in range(len(coords) + 1):
        left = coords[j - 1] if j > 0 else None
        right = coords[j] if j < len(coords) else None
        q = sample_between(left, right, chain)
        s = sample.extend(q)
        con = CoordConstraint(var, "sector",
                              lower=refs[j - 1] if j > 0 else None,
                              upper=refs[j] if j < len(coords) else None)
        if not refs:
            con = CoordConstraint(var, "all")
        cells.append(_make_cell(base, 2 * j + 1, s, con, record, nullified))
        if j < len(coords):
            s = sample.extend(coords[j])
            con = CoordConstraint(var, "eq", root=refs[j])
            cells.append(_make_cell(base, 2 * j + 2, s, con, record,
                                    nullified, member_keys[j]))
    return Stack(base.index, cells)


def _make_cell(base: Cell, pos: int, sample: SamplePoint,
               con: CoordConstraint,
               record: Sequence[Tuple[str, Polynomial]],
               nullified: Tuple[str, ...],
               members: Tuple[str, ...] = ()) -> Cell:
    # the nullified and member polynomials vanish on the cell; the sample
    # decides the signs of the (key, polynomial) pairs in ``record``
    signs = dict(base.signs)
    for key in nullified + members:
        signs[key] = 0
    for key, p in record:
        if key not in signs:
            signs[key] = sample.sign_of(p)
    return Cell(base.index + (pos,), sample, signs,
                base.description + (con,), nullified)


# -- base case and full builds ------------------------------------------

def trivial_cell(order: VarOrder) -> Cell:
    return Cell((), SamplePoint(order, ()))


def base_cad(p1: Sequence[Polynomial], order: VarOrder,
             sign_polys: Sequence[Polynomial] = ()) -> CAD:
    levels = ProjectionLevels(order)
    levels.by_level[1] = list(p1)
    stack = build_stack(trivial_cell(order), order.names[0], list(p1),
                        sign_polys)
    return CAD(order, levels, {1: stack.cells}, {1: list(p1)})


def lift(cad: CAD, pk: Sequence[Polynomial], mode: str = "full",
         ecs: Sequence[Polynomial] = (),
         sign_polys: Sequence[Polynomial] = (),
         tolerate_nullification: bool = False) -> CAD:
    """Extend a CAD of R^{k-1} to R^k.  In ec-reduced mode only the
    designated equational constraints split the cylinders; everything
    else has its sign recorded at the samples."""
    k = max(cad.cells_by_level) + 1
    var = cad.order.names[k - 1]
    if mode == "ec":
        split = [p for p in pk if _shares_factor(p, ecs)]
        if not split:
            split = list(pk)
    else:
        split = list(pk)
    # what does not split the cylinders has its sign recorded instead
    tracked = list(sign_polys) + [p for p in pk if p not in split]
    new_cells: List[Cell] = []
    for base in cad.cells(k - 1):
        new_cells.extend(build_stack(base, var, split, tracked,
                                     tolerate_nullification).cells)
    out = CAD(cad.order, cad.levels, dict(cad.cells_by_level),
              dict(cad.splitters), cad.invariance_kind)
    out.cells_by_level[k] = new_cells
    out.splitters[k] = split
    return out


def _shares_factor(p: Polynomial, ecs: Sequence[Polynomial]) -> bool:
    for e in ecs:
        if not poly_gcd(p, e).is_constant:
            return True
    return False


def build_cad(inputs, config: ProjectionConfig, lifting: str = "full",
              fallback: str = "abort",
              sign_polys: Optional[Sequence[Polynomial]] = None,
              timings: Optional[Dict[str, float]] = None) -> CAD:
    """Projection, base and lifting in one call.

    ``fallback`` controls what happens when lifting detects that the
    input is not well-oriented: "abort" re-raises, "restart-with-collins"
    rebuilds with the Collins operator and full lifting.
    """
    try:
        return _build_cad(inputs, config, lifting, sign_polys, timings)
    except NotWellOriented:
        if fallback != "restart-with-collins" or config.operator == "collins":
            raise
        collins = ProjectionConfig("collins", config.order)
        flat = _flatten_inputs(inputs)
        return _build_cad(flat, collins, "full", sign_polys, timings)


def _flatten_inputs(inputs):
    out = []
    for item in inputs:
        if isinstance(item, ClauseSpec):
            out.extend(item.all_polys())
        else:
            out.append(item)
    return out


def _build_cad(inputs, config, lifting, sign_polys, timings=None):
    if timings is None:
        timings = {}
    t0 = time.perf_counter()
    levels = project_all(inputs, config)
    timings["projection"] = time.perf_counter() - t0
    order = config.order
    n = len(order.names)
    if sign_polys is None:
        sign_polys = _flatten_inputs(inputs)
    ecs = [c.ec for c in inputs
           if isinstance(c, ClauseSpec) and c.ec is not None]
    t0 = time.perf_counter()
    cad = base_cad(levels.at_level(1), order, sign_polys)
    timings["base"] = time.perf_counter() - t0
    cad.levels = levels
    t0 = time.perf_counter()
    for k in range(2, n + 1):
        mode = "ec" if (lifting == "ec" and
                        any(e.level() == k for e in ecs)) else "full"
        level_ecs = [e for e in ecs if e.level() == k]
        cad = lift(cad, levels.at_level(k), mode, level_ecs, sign_polys,
                   tolerate_nullification=config.operator == "collins")
    timings["lifting"] = time.perf_counter() - t0
    if config.operator == "tti":
        cad.invariance_kind = "truth-table"
    elif config.operator == "ec":
        cad.invariance_kind = "truth-table"
    return cad


# -- checks and descriptions --------------------------------------------

def cylindricity_check(cad: CAD):
    """Cells agree on their first k index entries exactly when they agree
    on their first k description constraints.  Returns None on success,
    or the first offending (cell, cell, k) triple."""
    for k in range(1, cad.nvars):
        if k + 1 not in cad.cells_by_level:
            continue
        cells = cad.cells(k + 1)
        for i in range(len(cells)):
            for j in range(i + 1, len(cells)):
                a, b = cells[i], cells[j]
                same_idx = a.index[:k] == b.index[:k]
                same_desc = a.description[:k] == b.description[:k]
                if same_idx != same_desc:
                    return (a, b, k)
    return None


def describe_cell(cell: Cell, language: str = "extended") -> str:
    """Render a cell description; thom-augmented mode replaces the final
    root index by the signs of the defining polynomial's derivatives."""
    if language == "extended" or not cell.is_section:
        return cell.describe()
    if language != "thom-augmented":
        raise PolynomialError("unknown description language %r" % language)
    head = " and ".join(c.text() for c in cell.description[:-1])
    last = cell.description[-1]
    p = last.root.poly
    var = last.var
    parts = ["%s = 0" % p]
    d = p
    while True:
        d = d.derivative(var)
        if d.is_constant:
            break
        s = cell.sample.sign_of(d)
        parts.append("%s %s 0" % (d, {1: ">", -1: "<", 0: "="}[s]))
    tail = " and ".join(parts)
    return tail if not head else head + " and " + tail


# -- random in-cell points (for invariance testing) ---------------------

def indexed_root(poly: Polynomial, var: str, index: int,
                 prefix: Dict[str, Fraction]):
    """The index-th real root (1-based, from -inf) of poly instantiated
    at a rational prefix, or None if it does not exist."""
    q = poly.substitute({k: v for k, v in prefix.items() if k != var})
    if q.is_constant:
        return None
    roots = isolate_roots(squarefree_part(q))
    if index > len(roots):
        return None
    return roots[index - 1]


def random_point_in_cell(cad: CAD, cell: Cell, rng) -> Dict[str, Fraction]:
    """A random rational point inside a full-dimensional cell, found by
    re-solving the description's root bounds over a random rational
    prefix (valid because the bounding roots are delineable)."""
    if cell.dimension != cell.level:
        raise PolynomialError("random sampling needs a full-dimensional cell")
    assignment: Dict[str, Fraction] = {}
    pick = _random_pick(rng)
    for con in cell.description:
        if con.kind == "eq":
            raise PolynomialError("cell description is not full-dimensional")
        left, right = (None if r is None else r.over(con.var, assignment)
                       for r in (con.lower, con.upper))
        assignment[con.var] = sample_between(left, right, pick=pick)
    return assignment


def _random_pick(rng):
    """A ``sample_between`` picker drawing a random rational instead of
    the simplest one."""
    def pick(lo, hi, lo_strict, hi_strict) -> Fraction:
        if lo is None and hi is None:
            return Fraction(rng.randint(-64, 64), rng.randint(1, 8))
        if lo is None:
            return hi - Fraction(rng.randint(1, 64), rng.randint(1, 8))
        if hi is None:
            return lo + Fraction(rng.randint(1, 64), rng.randint(1, 8))
        if lo == hi:
            return lo
        return lo + (hi - lo) * Fraction(rng.randint(1, 63), 64)
    return pick
