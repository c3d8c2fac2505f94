import random
from fractions import Fraction

import pytest

from cadkit import VarOrder
from cadkit.cadcore import CAD, random_point_in_cell
from cadkit.polynomial import Polynomial, parse_poly


@pytest.fixture
def rng():
    return random.Random(20260823)


def rand_coeffs(rng, deg, lo=-9, hi=9):
    """Dense univariate coefficient list (low to high) with nonzero lead."""
    c = [Fraction(rng.randint(lo, hi)) for _ in range(deg)]
    lead = Fraction(0)
    while lead == 0:
        lead = Fraction(rng.randint(lo, hi))
    return c + [lead]


def coeffs_to_poly(coeffs, order, name):
    x = Polynomial.var(order, name)
    p = Polynomial.zero(order)
    for i, a in enumerate(coeffs):
        p = p + x ** i * Polynomial.const(order, a)
    return p


def rand_univar(rng, deg, order=None, name="x"):
    order = order or VarOrder(("x",))
    return coeffs_to_poly(rand_coeffs(rng, deg), order, name)


def assert_cad_well_formed(cad: CAD, rng, points_per_cell=20):
    """Structural checks every built CAD must satisfy: cylindricity,
    odd stack sizes, and Monte-Carlo sign invariance of the recorded
    signs on full-dimensional cells."""
    from cadkit.cadcore import cylindricity_check

    assert cylindricity_check(cad) is None

    for k in sorted(cad.cells_by_level):
        sizes = {}
        for cell in cad.cells(k):
            sizes[cell.index[:-1]] = max(sizes.get(cell.index[:-1], 0),
                                         cell.index[-1])
        for size in sizes.values():
            assert size % 2 == 1, "stack must hold 2r+1 cells"

    top = cad.nvars
    polys = []
    for ps in cad.splitters.values():
        polys.extend(ps)
    for cell in cad.cells(top):
        if cell.dimension != top:
            continue
        for _ in range(points_per_cell):
            point = random_point_in_cell(cad, cell, rng)
            for p in polys:
                key = str(p)
                if key not in cell.signs:
                    continue
                v = p.evaluate(point)
                assert ((v > 0) - (v < 0)) == cell.signs[key], \
                    "sign of %s not invariant on cell %s" % (key, cell.index)


def assert_sign_table(cad: CAD, tracked):
    """Every cell holds a sign for each tracked polynomial of level at
    most its own, and that sign is the polynomial's exact sign at the
    cell's sample."""
    from cadkit.chains import sign_at

    for k in sorted(cad.cells_by_level):
        due = [p for p in tracked if p.level() <= k]
        for cell in cad.cells(k):
            for p in due:
                assert str(p) in cell.signs, \
                    "no sign of %s on cell %s" % (p, cell.index)
                assert cell.signs[str(p)] == sign_at(p, cell.sample), \
                    "wrong sign of %s on cell %s" % (p, cell.index)


def parabola_inputs():
    order = VarOrder(("a", "b", "c", "x"))
    return [parse_poly("a*x^2 + b*x + c", order)], order


def tti_inputs():
    order = VarOrder(("x", "y"))
    g1 = parse_poly("x^2 + y^2 - 4", order)
    g2 = parse_poly("(x - 3)^2 - (y + 3)", order)
    g3 = parse_poly("(x - 3)^2 + (y - 2)", order)
    g4 = parse_poly("(x - 6)^2 + y^2 - 4", order)
    return (g1, g2, g3, g4), order
