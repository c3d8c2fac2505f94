"""Command-line front end: decompositions, quantifier elimination, tree
validation/realization, bound tables, benchmark generation, and the
bundled example corpus.

Exit codes: 0 success, 2 usage or input error, 3 not well-oriented,
4 internal invariant violation.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional

from .polynomial import Polynomial, PolynomialError, VarOrder, parse_poly
from .projection import (
    OPERATORS,
    ClauseSpec,
    ProjectionConfig,
    project_all,
)
from .cadcore import (
    CAD,
    NotWellOriented,
    build_cad,
    cylindricity_check,
)
from .formulas import FormulaError, parse_formula, prenex
from .qe import formula_clauses as _formula_clauses, qe as _run_qe
from .ccd import CCDError, make_semialgebraic, parse_tree, validate_separation
from .meta import BOUND_NAMES, BoundParams, bound, generate_dh

EXIT_USAGE = 2
EXIT_NOT_WELL_ORIENTED = 3
EXIT_INTERNAL = 4


class InternalInvariantError(RuntimeError):
    pass


@dataclass
class RunReport:
    verb: str
    input_digest: str
    config: Dict[str, object] = field(default_factory=dict)
    timings: Dict[str, float] = field(default_factory=dict)
    cell_counts: Dict[str, int] = field(default_factory=dict)
    full_dimensional: Optional[int] = None
    result: Optional[str] = None

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _parse_order(spec: str) -> VarOrder:
    names = [v.strip() for v in spec.split(",") if v.strip()]
    if not names:
        raise PolynomialError("empty variable order")
    return VarOrder(names)


def _read_text(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def _read_polys(path: str, order: VarOrder) -> List[Polynomial]:
    out = []
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if line:
                out.append(parse_poly(line, order))
    return out


def _cell_json(cad: CAD, cell) -> dict:
    return {
        "index": list(cell.index),
        "sample": [str(c) for c in cell.sample.coords],
        "signs": dict(sorted(cell.signs.items())),
        "description": cell.describe(),
        "dimension": cell.dimension,
    }


def _report_cad(report: RunReport, cad: CAD, fmt: str,
                with_cells: bool = False) -> None:
    report.cell_counts = {str(k): v
                          for k, v in cad.per_level_counts().items()}
    report.full_dimensional = cad.full_dimensional_count()
    if fmt == "json":
        payload = json.loads(report.to_json())
        if with_cells:
            payload["cells"] = [_cell_json(cad, c) for c in cad.cells()]
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print("cells per level: %s" % cad.per_level_counts())
        print("total cells: %d (%d full-dimensional)" %
              (cad.cell_count(), cad.full_dimensional_count()))
        for phase, t in report.timings.items():
            print("%s: %.3f s" % (phase, t))


def _clauses_from_file(path: str, order: VarOrder):
    matrix = parse_formula(_read_text(path).strip(), order)
    clauses = _formula_clauses(matrix)
    if clauses is None:
        raise FormulaError("file %s has no clause structure" % path)
    return clauses


def _inputs(args, order: VarOrder):
    if args.operator in ("ec", "tti"):
        if not args.clauses:
            raise FormulaError(
                "--clauses FILE.fml is required for the %s operator"
                % args.operator)
        return _clauses_from_file(args.clauses, order)
    if not args.input:
        raise PolynomialError("--input FILE.poly is required")
    return _read_polys(args.input, order)


# -- verbs --------------------------------------------------------------

def cmd_cad(args) -> int:
    order = _parse_order(args.order)
    inputs = _inputs(args, order)
    src = _read_text(args.input or args.clauses)
    report = RunReport("cad", _digest(src),
                       {"order": list(order.names),
                        "operator": args.operator,
                        "lifting": args.lifting})
    timings: Dict[str, float] = {}
    cad = build_cad(inputs, ProjectionConfig(args.operator, order),
                    lifting=args.lifting, fallback=args.fallback,
                    timings=timings)
    report.timings = timings
    if cylindricity_check(cad) is not None:
        raise InternalInvariantError("cylindricity violated")
    _report_cad(report, cad, args.format, with_cells=args.cells)
    return 0


def cmd_project(args) -> int:
    order = _parse_order(args.order)
    inputs = _inputs(args, order)
    levels = project_all(inputs, ProjectionConfig(args.operator, order))
    if args.format == "json":
        payload = []
        for k in range(len(order.names), 0, -1):
            polys = []
            for p in levels.at_level(k):
                tags = levels.tags_for(k, p)
                polys.append({
                    "text": str(p),
                    "provenance": sorted({t.tag for t in tags}),
                    "parents": sorted({pp for t in tags for pp in t.parents}),
                })
            payload.append({"level": k, "polys": polys})
        print(json.dumps(payload, indent=2))
    else:
        for k in range(len(order.names), 0, -1):
            print("P_%d:" % k)
            for p in levels.at_level(k):
                tags = sorted({t.tag for t in levels.tags_for(k, p)})
                print("  %s  [%s]" % (p, ", ".join(tags)))
    return 0


def cmd_qe(args) -> int:
    order = _parse_order(args.order)
    text = _read_text(args.input).strip() if args.input else args.formula
    if not text:
        raise FormulaError("no formula given")
    report = RunReport("qe", _digest(text),
                       {"order": list(order.names),
                        "operator": args.operator})
    timings: Dict[str, float] = {}
    language = "thom-augmented" if args.thom else "extended"
    result = _run_qe(text, order, operator=args.operator,
                       lifting=args.lifting, language=language,
                       merge_adjacent=args.merge, fallback=args.fallback,
                       want_witness=args.witness, timings=timings)
    report.timings = timings
    report.result = result.text()
    if result.cad is not None:
        report.cell_counts = {str(k): v for k, v
                              in result.cad.per_level_counts().items()}
    if args.format == "json":
        payload = json.loads(report.to_json())
        if result.witness is not None:
            payload["witness"] = result.witness
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(result.text())
        if result.witness is not None:
            print("witness: (%s)" % ", ".join(result.witness))
    return 0


def cmd_ccd_validate(args) -> int:
    tree = parse_tree(_read_text(args.input))
    rep = validate_separation(tree, probes=args.probes, seed=args.seed)
    payload = {"leaves": tree.leaf_count(), "checked": rep.checked,
               "ok": rep.ok, "violations": rep.violations,
               "unprobed": rep.unprobed}
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        print("leaves: %d, probes checked: %d" %
              (tree.leaf_count(), rep.checked))
        for v in rep.violations:
            print("violation: %s" % v)
        for u in rep.unprobed:
            print("no probe found: %s" % u)
        print("separation: %s" % ("ok" if rep.ok else "FAILED"))
    return 0 if rep.ok else EXIT_USAGE


def cmd_ccd_realize(args) -> int:
    src = _read_text(args.input)
    tree = parse_tree(src)
    report = RunReport("ccd-realize", _digest(src),
                       {"order": list(tree.order.names)})
    t0 = time.perf_counter()
    cad = make_semialgebraic(tree)
    report.timings["realize"] = time.perf_counter() - t0
    if cylindricity_check(cad) is not None:
        raise InternalInvariantError("cylindricity violated")
    _report_cad(report, cad, args.format, with_cells=args.cells)
    return 0


def _grid(spec: str) -> List[int]:
    return [int(v) for v in spec.split(",")]


def cmd_bounds(args) -> int:
    which = list(BOUND_NAMES) if args.which == "all" else [args.which]
    rows = []
    for m in _grid(args.m):
        for d in _grid(args.d):
            for n in _grid(args.n):
                for name in which:
                    params = BoundParams(m, d, args.l, n)
                    rows.append({"m": m, "d": d, "l": args.l, "n": n,
                                 "which": name,
                                 "value": str(bound(params, name))})
    if args.format == "json":
        print(json.dumps(rows, indent=2))
    else:
        for r in rows:
            print("m=%(m)d d=%(d)d l=%(l)d n=%(n)d %(which)s: %(value)s"
                  % r)
    return 0


def cmd_gen_dh(args) -> int:
    f, order = generate_dh(args.m, args.base)
    pf = prenex(f, order)
    if args.format == "json":
        print(json.dumps({"order": list(order.names),
                          "blocks": [[k, vs] for k, vs in pf.blocks],
                          "formula": str(f)}, indent=2))
    else:
        print("order: %s" % ",".join(order.names))
        print(str(f))
    return 0


# -- the example corpus -------------------------------------------------

def _fixture_path(name: str) -> str:
    return os.path.join(os.path.dirname(__file__), "fixtures", name)


def _fixtures() -> List[tuple]:
    def sqrt_example():
        order = VarOrder(["x", "y"])
        r = _run_qe("exists y. y^2 = x", order)
        texts = sorted(c.describe() for c in r.formula.cells)
        return texts == ["0 < x", "x = 0"]

    def parabola_projection():
        order = VarOrder(["a", "b", "c", "x"])
        p = _read_polys(_fixture_path("parabola.poly"), order)
        levels = project_all(p, ProjectionConfig("mccallum", order))
        lower = sorted(str(q) for k in (1, 2, 3)
                       for q in levels.at_level(k))
        return lower == ["4*a*c - b^2", "a", "b", "c"]

    def parabola_cad():
        order = VarOrder(["a", "b", "c", "x"])
        p = _read_polys(_fixture_path("parabola.poly"), order)
        cad = build_cad(p, ProjectionConfig("mccallum", order))
        return cad.cell_count() == 115

    def parabola_ccd():
        tree = parse_tree(_read_text(_fixture_path("parabola.ccd")))
        return make_semialgebraic(tree).cell_count() == 27

    def tti_projection_counts():
        from .projection import (count_by_tag, implicit_product_tagged,
                                 mccallum_tagged, tti_tagged)
        order = VarOrder(["x", "y"])
        polys = _read_polys(_fixture_path("tti.poly"), order)
        g1, g2, g3, g4 = polys
        clauses = [ClauseSpec(g1, (g2,)), ClauseSpec(g4, (g3,))]
        tti = count_by_tag(tti_tagged(clauses, "y"))
        imp = count_by_tag(implicit_product_tagged(clauses, "y"))
        return (tti["discriminant"], tti["resultant"]) == (2, 3) and \
               (imp["discriminant"], imp["resultant"]) == (2, 5)

    def tti_cells():
        order = VarOrder(["x", "y"])
        polys = _read_polys(_fixture_path("tti.poly"), order)
        g1, g2, g3, g4 = polys
        full = build_cad(polys, ProjectionConfig("mccallum", order))
        clauses = [ClauseSpec(g1, (g2,)), ClauseSpec(g4, (g3,))]
        tti = build_cad(clauses, ProjectionConfig("tti", order),
                        lifting="ec")
        return (full.cell_count(), full.full_dimensional_count(),
                tti.cell_count(), tti.full_dimensional_count()) \
            == (231, 72, 67, 22)

    def dh_m2():
        f, order = generate_dh(2, "y1 = x1 + 1")
        pf = prenex(f, order)
        if [(k, tuple(vs)) for k, vs in pf.blocks] != \
                [("exists", ("z2",)), ("forall", ("x1", "y1"))]:
            return False
        r = _run_qe(f, order)
        from fractions import Fraction
        for x in (Fraction(0), Fraction(-3), Fraction(5, 2)):
            for dy in (0, 1):
                want = dy == 0
                if r.formula.evaluate({"x2": x, "y2": x + 2 + dy}) != want:
                    return False
        return True

    return [
        ("sqrt (exists y. y^2 = x)", sqrt_example),
        ("parabola projection closure", parabola_projection),
        ("parabola 115-cell CAD", parabola_cad),
        ("parabola tree realizes 27 cells", parabola_ccd),
        ("tti projection counts 2+3 / 2+5", tti_projection_counts),
        ("g1..g4 cells 231/72 and 67/22", tti_cells),
        ("dh m=2 prefix and shift-by-2", dh_m2),
    ]


def cmd_fixtures(args) -> int:
    failures = 0
    rows = []
    for name, fn in _fixtures():
        t0 = time.perf_counter()
        try:
            ok = bool(fn())
        except Exception as exc:  # report, keep going
            ok = False
            name = "%s (%s)" % (name, exc)
        dt = time.perf_counter() - t0
        rows.append((name, ok, dt))
        failures += 0 if ok else 1
    if args.format == "json":
        print(json.dumps([{"fixture": n, "pass": ok, "seconds": round(t, 3)}
                          for n, ok, t in rows], indent=2))
    else:
        width = max(len(n) for n, _, _ in rows)
        for n, ok, t in rows:
            print("%-*s  %s  (%.2f s)" % (width, n,
                                          "pass" if ok else "FAIL", t))
        print("%d/%d fixtures passed" % (len(rows) - failures, len(rows)))
    return 0 if failures == 0 else 1


# -- wiring -------------------------------------------------------------

def _add_common(sp):
    sp.add_argument("--format", choices=("summary", "json"),
                    default="summary")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cadkit",
        description="exact real quantifier elimination by cylindrical "
                    "algebraic decomposition")
    sub = ap.add_subparsers(dest="verb", required=True)

    sp = sub.add_parser("cad", help="build a decomposition")
    sp.add_argument("--input", help=".poly file, one polynomial per line")
    sp.add_argument("--clauses", help=".fml file for ec/tti operators")
    sp.add_argument("--order", required=True,
                    help="comma list, first-projected last")
    sp.add_argument("--operator", choices=OPERATORS, default="mccallum")
    sp.add_argument("--lifting", choices=("full", "ec"), default="full")
    sp.add_argument("--fallback", choices=("abort", "restart-with-collins"),
                    default="abort")
    sp.add_argument("--cells", action="store_true",
                    help="include every cell in json output")
    _add_common(sp)
    sp.set_defaults(fn=cmd_cad)

    sp = sub.add_parser("project", help="print projection levels")
    sp.add_argument("--input")
    sp.add_argument("--clauses")
    sp.add_argument("--order", required=True)
    sp.add_argument("--operator", choices=OPERATORS, default="mccallum")
    _add_common(sp)
    sp.set_defaults(fn=cmd_project)

    sp = sub.add_parser("qe", help="eliminate quantifiers")
    sp.add_argument("formula", nargs="?")
    sp.add_argument("--input", help=".fml file")
    sp.add_argument("--order", required=True)
    sp.add_argument("--operator", choices=OPERATORS, default="mccallum")
    sp.add_argument("--lifting", choices=("full", "ec"), default="full")
    sp.add_argument("--fallback", choices=("abort", "restart-with-collins"),
                    default="abort")
    sp.add_argument("--witness", action="store_true")
    sp.add_argument("--thom", action="store_true")
    sp.add_argument("--merge", action="store_true",
                    help="merge adjacent true cells sharing bounds")
    _add_common(sp)
    sp.set_defaults(fn=cmd_qe)

    sp = sub.add_parser("ccd-validate", help="check tree separation")
    sp.add_argument("--input", required=True, help=".ccd tree file")
    sp.add_argument("--probes", type=int, default=3)
    sp.add_argument("--seed", type=int, default=0)
    _add_common(sp)
    sp.set_defaults(fn=cmd_ccd_validate)

    sp = sub.add_parser("ccd-realize", help="convert a tree to a real CAD")
    sp.add_argument("--input", required=True, help=".ccd tree file")
    sp.add_argument("--cells", action="store_true")
    _add_common(sp)
    sp.set_defaults(fn=cmd_ccd_realize)

    sp = sub.add_parser("bounds", help="complexity-bound table")
    sp.add_argument("--m", default="2")
    sp.add_argument("--d", default="2")
    sp.add_argument("--l", type=int, default=1)
    sp.add_argument("--n", default="1")
    sp.add_argument("--which", default="all",
                    choices=("all",) + BOUND_NAMES)
    _add_common(sp)
    sp.set_defaults(fn=cmd_bounds)

    sp = sub.add_parser("gen-dh", help="doubly-exponential benchmark")
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--base", default="y1 = x1^2")
    _add_common(sp)
    sp.set_defaults(fn=cmd_gen_dh)

    sp = sub.add_parser("fixtures", help="run the example corpus")
    _add_common(sp)
    sp.set_defaults(fn=cmd_fixtures)
    return ap


def main(argv: Optional[List[str]] = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except NotWellOriented as exc:
        print("not well-oriented: %s" % exc, file=sys.stderr)
        return EXIT_NOT_WELL_ORIENTED
    except InternalInvariantError as exc:
        print("internal invariant violation: %s" % exc, file=sys.stderr)
        return EXIT_INTERNAL
    except (PolynomialError, FormulaError, CCDError, ValueError,
            OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
