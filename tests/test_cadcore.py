from fractions import Fraction

import pytest

from cadkit import VarOrder
from cadkit.cadcore import (
    NotWellOriented,
    base_cad,
    build_cad,
    build_stack,
    cylindricity_check,
    describe_cell,
    indexed_root,
    lift,
    trivial_cell,
)
from cadkit.chains import compare_chain_coords
from cadkit.polynomial import Polynomial, parse_poly
from cadkit.projection import ClauseSpec, ProjectionConfig
from cadkit.realalg import RealAlgebraicNumber

from conftest import (assert_cad_well_formed, assert_sign_table,
                      parabola_inputs, tti_inputs)

XY = VarOrder(("x", "y"))


def circle_cad():
    p = parse_poly("x^2 + y^2 - 1", XY)
    return build_cad([p], ProjectionConfig("mccallum", XY)), p


class TestBaseAndStacks:
    def test_base_cad_interleaves(self):
        X = VarOrder(("x",))
        cells = base_cad([parse_poly("x^2 - 2", X)], X).cells(1)
        assert len(cells) == 5
        kinds = [c.is_section for c in cells]
        assert kinds == [False, True, False, True, False]
        assert [c.index for c in cells] == [(i,) for i in range(1, 6)]

    def test_circle_structure(self, rng):
        cad, p = circle_cad()
        assert cad.per_level_counts() == {1: 5, 2: 13}
        assert_cad_well_formed(cad, rng)

    def test_signs_recorded(self):
        cad, p = circle_cad()
        inside = [c for c in cad.cells(2) if c.signs[str(p)] < 0]
        on = [c for c in cad.cells(2) if c.signs[str(p)] == 0]
        assert len(inside) == 1 and len(on) == 4

    def test_circle_sign_table(self):
        cad, p = circle_cad()
        assert_sign_table(cad, [p])

    def test_ec_lifting_sign_table(self):
        # ec lifting splits only by the equational constraints; the other
        # projection factors of the level have their signs recorded
        (g1, g2, g3, g4), order = tti_inputs()
        clauses = [ClauseSpec(g1, (g2,)), ClauseSpec(g4, (g3,))]
        cad = build_cad(clauses, ProjectionConfig("tti", order),
                        lifting="ec")
        extra = [p for p in cad.levels.at_level(2)
                 if p not in cad.splitters[2]]
        assert extra
        assert_sign_table(cad, [g1, g2, g3, g4] + extra)

    def test_rational_coordinates_are_fractions(self):
        cad, p = circle_cad()
        sections = [c for c in cad.cells(2) if c.is_section]
        assert sorted(c.sample.coords[0] for c in sections) == [-1, 0, 0, 1]
        for c in sections:
            assert all(type(v) is Fraction for v in c.sample.coords)
            assert c.sample.chain == []
        for c in cad.cells(1) + cad.cells(2):
            s = c.sample
            assert len(s.assignment) + len(s.chain) == len(s.coords)
            for name, v in zip(XY.names, s.coords):
                assert s.assignment.get(name) is v or \
                    any(v is e for e in s.chain)

    def test_sections_have_descriptions(self):
        cad, p = circle_cad()
        sections = [c for c in cad.cells(2) if c.is_section]
        for c in sections:
            assert c.description[-1].kind == "eq"
            text = describe_cell(c)
            assert "=" in text


class TestWellOrientedness:
    def test_dim0_nullification_tolerated(self):
        # x z + y has coprime coefficients x and y, which vanish together
        # only at the origin of the base plane: a 0-dimensional cell
        o = VarOrder(("x", "y", "z"))
        p = parse_poly("x*z + y", o)
        cad = build_cad([p], ProjectionConfig("mccallum", o))
        nul = [c for c in cad.cells(3) if str(p) in c.nullified]
        assert nul
        for c in nul:
            assert c.dimension == 1  # the fibre over the origin
            assert c.sample.assignment["x"] == 0
            assert c.sample.assignment["y"] == 0
            assert c.signs[str(p)] == 0

    def test_positive_dim_nullification_raises(self):
        o = VarOrder(("u", "v", "w", "z"))
        # coefficients u - v and u^2 - w are coprime but vanish together
        # on the curve v = u, w = u^2, a 1-dimensional base cell
        p = parse_poly("(u - v)*z + u^2 - w", o)
        with pytest.raises(NotWellOriented) as e:
            build_cad([p], ProjectionConfig("mccallum", o))
        assert e.value.cell_index is not None

    def test_zero_polynomial_lift_raises(self):
        X1 = VarOrder(("x", "y"))
        cad = base_cad([parse_poly("x", X1)], X1)
        with pytest.raises(NotWellOriented):
            lift(cad, [Polynomial.zero(X1)])

    def test_restart_with_collins_fallback(self, rng):
        o = VarOrder(("u", "v", "w", "z"))
        p = parse_poly("(u - v)*z + u^2 - w", o)
        cad = build_cad([p], ProjectionConfig("mccallum", o),
                        fallback="restart-with-collins")
        assert cad.cell_count() > 0
        nul = [c for c in cad.cells() if c.nullified]
        assert nul  # the degenerate cylinder is recorded, not an error
        assert cylindricity_check(cad) is None

    def test_collins_itself_never_falls_back(self):
        o = VarOrder(("u", "v", "w", "z"))
        p = parse_poly("(u - v)*z + u^2 - w", o)
        cad = build_cad([p], ProjectionConfig("collins", o))
        assert cad.cell_count() > 0


class TestInvariants:
    def test_cylindricity_negative_control(self):
        cad, p = circle_cad()
        cells = cad.cells(2)
        # tamper: give one cell the description prefix of a different stack
        victim, donor = cells[0], cells[-1]
        tampered = victim.__class__(victim.index, victim.sample, victim.signs,
                                    donor.description[:1]
                                    + victim.description[1:],
                                    victim.nullified)
        cad.cells_by_level[2][0] = tampered
        assert cylindricity_check(cad) is not None

    def test_parabola_counts(self, rng):
        polys, order = parabola_inputs()
        cad = build_cad(polys, ProjectionConfig("mccallum", order))
        assert cad.per_level_counts() == {1: 3, 2: 9, 3: 35, 4: 115}
        assert_cad_well_formed(cad, rng, points_per_cell=3)

    def test_root_next_to_a_rational_root_lifts(self, rng):
        # the resultant x*(225x^3 - 360x^2 - 136x + 175) has the rational
        # root 0 between two irrational ones whose isolating intervals
        # once ended at 0, so refinement kept the half without the root
        # and the sector sample search never returned
        polys = [parse_poly(t, XY)
                 for t in ("-5*x^2 + 4*x + 7*y", "9*y^2 - x - 8*y")]
        cad = build_cad(polys, ProjectionConfig("mccallum", XY))
        assert cad.per_level_counts() == {1: 11, 2: 63}
        assert_cad_well_formed(cad, rng, points_per_cell=5)

    def test_repeated_factors_over_a_rational_point(self):
        # over x = 0 the first polynomial is y*(y^2 - 2)^2, whose factors
        # have unequal multiplicities; its irrational roots are defined
        # by the square-free part
        polys = [parse_poly(t, XY) for t in ("y*(y^2 - 2)^2 - x", "x^3 - 2")]
        cad = build_cad(polys, ProjectionConfig("mccallum", XY))
        x, y = zip(*(c.sample.coords for c in cad.cells(2) if c.is_section))
        irrational = [b for a, b in zip(x, y) if str(a) == "0"
                      and isinstance(b, RealAlgebraicNumber)
                      and not b.is_rational]
        assert len(irrational) == 2
        assert all(str(b.defining) == "y^3 - 2*y" for b in irrational)
        assert cylindricity_check(cad) is None
        assert_sign_table(cad, polys)

    def test_ec_lifting_coarsens(self):
        (g1, g2, g3, g4), order = tti_inputs()
        full = build_cad([g1, g2, g3, g4],
                         ProjectionConfig("mccallum", order))
        clauses = [ClauseSpec(g1, (g2,)), ClauseSpec(g4, (g3,))]
        tti = build_cad(clauses, ProjectionConfig("tti", order),
                        lifting="ec")
        assert tti.cell_count() < full.cell_count()
        assert tti.invariance_kind == "truth-table"


class TestDescriptionsAndRoots:
    def test_indexed_root(self):
        p = parse_poly("x^2 + y^2 - 1", XY)
        r = indexed_root(p, "y", 1, {"x": Fraction(0)})
        assert r is not None
        minus_one = RealAlgebraicNumber.rational(Fraction(-1), "y", XY)
        assert compare_chain_coords(r, minus_one, "y", []) == 0
        assert indexed_root(p, "y", 1, {"x": Fraction(2)}) is None

    def test_thom_language(self):
        cad, p = circle_cad()
        section = next(c for c in cad.cells(2) if c.is_section)
        text = describe_cell(section, "thom-augmented")
        assert "RootOf" not in text

    def test_root_refs_only_numeric_over_points(self):
        cad, p = circle_cad()
        for c in cad.cells(2):
            for con in c.description[1:]:
                refs = [r for r in (con.root, con.lower, con.upper) if r]
                for r in refs:
                    if r.value is not None:
                        # base must be the single point x = ±1
                        assert c.description[0].kind == "eq"
