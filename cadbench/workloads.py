"""The benchmark's workloads: seeded problem generators (as polynomial or
formula text), the library call each problem makes, the correctness
check run on each answer, and the per-problem counts read off results.

Every problem is made from its own ``random.Random`` seeded with the
workload name, the run seed and the problem index, so problem ``i`` of a
seed is the same whatever the pool size.  The library sees only text,
through ``parse_poly`` / ``parse_formula``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional


def problem_rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random("%s/%d/%d" % (workload, seed, index))


def _term(coeff: int, monomial: str, first: bool) -> str:
    sign = "-" if coeff < 0 else ("" if first else "+")
    mag = abs(coeff)
    if not monomial:
        body = str(mag)
    else:
        body = monomial if mag == 1 else "%d*%s" % (mag, monomial)
    return (sign + body) if first else "%s %s" % (sign, body)


def poly_text(terms) -> str:
    """Render [(coeff, monomial)] with nonzero coefficients as text."""
    return " ".join(_term(c, m, i == 0) for i, (c, m) in enumerate(terms))


def _nonzero(rng: random.Random, bound: int) -> int:
    c = 0
    while c == 0:
        c = rng.randint(-bound, bound)
    return c


# -- plane: sign-invariant McCallum CAD of R^2 --------------------------

PLANE_ORDER = ("x", "y")
PLANE_COEFF = 5          # coefficients drawn from [-5, 5] \ {0}
PLANE_CURVES = (("x^2", "x*y", "y^2", "x", "y", ""),    # a dense conic
                ("x", "y", ""))                          # and a dense line
PLANE_CHECK_CELLS = 3     # full-dimensional cells sampled per problem


def make_plane(rng: random.Random) -> dict:
    polys = [poly_text([(_nonzero(rng, PLANE_COEFF), m) for m in curve])
             for curve in PLANE_CURVES]
    return {"order": PLANE_ORDER, "polys": polys}


def parse_polys(cadkit, problem: dict):
    order = cadkit.VarOrder(problem["order"])
    return order, [cadkit.parse_poly(p, order) for p in problem["polys"]]


def solve_plane(cadkit, parsed, timings):
    order, polys = parsed
    config = cadkit.ProjectionConfig("mccallum", order)
    return cadkit.build_cad(polys, config, timings=timings)


def _sign(v) -> int:
    return (v > 0) - (v < 0)


def check_plane(cadkit, problem, cad, rng) -> Optional[str]:
    """Cylindricity, 2r+1 stack sizes, and sign invariance at a seeded
    rational point of each of a few seeded full-dimensional cells."""
    if cadkit.cylindricity_check(cad) is not None:
        return "cylindricity violated"
    for k in sorted(cad.cells_by_level):
        sizes: Dict[tuple, int] = {}
        for cell in cad.cells(k):
            base = cell.index[:-1]
            sizes[base] = max(sizes.get(base, 0), cell.index[-1])
        if any(size % 2 == 0 for size in sizes.values()):
            return "even stack size at level %d" % k
    polys = [p for ps in cad.splitters.values() for p in ps]
    full = [c for c in cad.cells() if c.dimension == cad.nvars]
    for cell in rng.sample(full, min(PLANE_CHECK_CELLS, len(full))):
        point = cadkit.random_point_in_cell(cad, cell, rng)
        for p in polys:
            key = str(p)
            if key in cell.signs and \
                    _sign(p.evaluate(point)) != cell.signs[key]:
                return "sign of %s not invariant on cell %s" % (
                    key, cell.index)
    return None


def cad_counts(cad) -> Dict[str, int]:
    return {"cadcore.cells": sum(cad.per_level_counts().values()),
            "projection.factors": sum(cad.levels.counts().values())}


# -- dh: qe of the Davenport-Heintz sentence ----------------------------

DH_M = 2
DH_A = 5                 # a drawn from [-5, -2] u [2, 5]
DH_B = 5                 # b drawn from [-5, 5] \ {0}
DH_CHECK_POINTS = 3


def make_dh(cadkit, rng: random.Random) -> dict:
    a = rng.choice([s * v for v in range(2, DH_A + 1) for s in (1, -1)])
    b = _nonzero(rng, DH_B)
    base = "y1 = %s" % poly_text([(a, "x1"), (b, "")])
    formula, order = cadkit.generate_dh(DH_M, base)
    return {"order": tuple(order.names), "formula": str(formula),
            "a": a, "b": b}


def parse_dh(cadkit, problem: dict):
    order = cadkit.VarOrder(problem["order"])
    return order, cadkit.parse_formula(problem["formula"], order)


def solve_dh(cadkit, parsed, timings):
    order, formula = parsed
    return cadkit.qe(formula, order, timings=timings)


def check_dh(cadkit, problem, result, rng) -> Optional[str]:
    """The sentence says y2 = f(f(x2)) with f(t) = a*t + b: the output
    must hold on that line and fail one unit above it."""
    a, b = problem["a"], problem["b"]
    out = result.formula
    if out.is_true is not None:
        return "output is a constant, expected a formula in x2, y2"
    for _ in range(DH_CHECK_POINTS):
        x = Fraction(rng.randint(-40, 40), rng.randint(1, 6))
        y = a * (a * x + b) + b
        if not out.evaluate({"x2": x, "y2": y}):
            return "false at x2=%s, y2=%s" % (x, y)
        if out.evaluate({"x2": x, "y2": y + 1}):
            return "true at x2=%s, y2=%s" % (x, y + 1)
    return None


def dh_counts(result) -> Dict[str, int]:
    counts = cad_counts(result.cad)
    counts["qe.output_cells"] = len(result.formula.cells)
    return counts


# -- project: McCallum projection only ----------------------------------

PROJECT_ORDER = ("x", "y", "z")
PROJECT_POLYS = 2
PROJECT_TERMS = 4
PROJECT_COEFF = 5
PROJECT_MONOMIALS = ("x^2", "y^2", "z^2", "x*y", "x*z", "y*z",
                     "x", "y", "z", "")


def make_project(rng: random.Random) -> dict:
    polys = []
    for _ in range(PROJECT_POLYS):
        while True:
            picked = rng.sample(range(len(PROJECT_MONOMIALS)), PROJECT_TERMS)
            if min(picked) < 6:          # at least one quadratic monomial
                break
        polys.append(poly_text([(_nonzero(rng, PROJECT_COEFF),
                                 PROJECT_MONOMIALS[i])
                                for i in sorted(picked)]))
    return {"order": PROJECT_ORDER, "polys": polys}


def solve_project(cadkit, parsed, timings):
    order, polys = parsed
    return cadkit.project_all(polys, cadkit.ProjectionConfig("mccallum", order))


def check_project(cadkit, problem, levels, rng) -> Optional[str]:
    """Each level holds square-free, pairwise coprime factors whose main
    variable is that level's variable."""
    poly = cadkit.polynomial
    for k in range(1, levels.nvars + 1):
        polys = levels.at_level(k)
        for i, p in enumerate(polys):
            if p.is_constant or p.level() != k:
                return "factor %s is not at level %d" % (p, k)
            if poly.squarefree_part(p).total_degree() != p.total_degree():
                return "factor %s is not square-free" % p
            for q in polys[i + 1:]:
                if not poly.poly_gcd(p, q).is_constant:
                    return "factors %s and %s share a factor" % (p, q)
    return None


def project_counts(levels) -> Dict[str, int]:
    return {"projection.factors": sum(levels.counts().values())}


# -- registry ------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    """Why each workload exists is in README.md and BENCHMARK.json."""
    name: str
    limit_s: float        # per-problem time limit
    pool_per_s: float     # problems generated per measured second
    trace_per_s: float    # problems traced per measured second
    make: Callable        # (cadkit, rng) -> problem text dict
    parse: Callable       # (cadkit, problem) -> parsed inputs
    solve: Callable       # (cadkit, parsed, timings) -> result
    check: Callable       # (cadkit, problem, result, rng) -> error or None
    counts: Callable      # result -> {per-layer count: value}


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        "plane",
        limit_s=5.0, pool_per_s=10.0, trace_per_s=1.0,
        make=lambda cadkit, rng: make_plane(rng),
        parse=parse_polys, solve=solve_plane, check=check_plane,
        counts=cad_counts),
    Workload(
        "dh",
        limit_s=40.0, pool_per_s=0.4, trace_per_s=0.05,
        make=make_dh, parse=parse_dh, solve=solve_dh, check=check_dh,
        counts=dh_counts),
    Workload(
        "project",
        limit_s=5.0, pool_per_s=10.0, trace_per_s=1.0,
        make=lambda cadkit, rng: make_project(rng),
        parse=parse_polys, solve=solve_project, check=check_project,
        counts=project_counts),
)}


def generate(cadkit, workload: Workload, seed: int, count: int) -> List[dict]:
    return [workload.make(cadkit, problem_rng(workload.name, seed, i))
            for i in range(count)]
