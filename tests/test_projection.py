import pytest

from cadkit import VarOrder
from cadkit.polynomial import Polynomial, parse_poly, resultant, subresultants
from cadkit.projection import (
    ClauseSpec,
    ProjectionConfig,
    collins_step,
    count_by_tag,
    ec_tagged,
    implicit_product_tagged,
    mccallum_step,
    mccallum_tagged,
    project_all,
    tti_tagged,
)

from conftest import rand_univar, tti_inputs

XY = VarOrder(("x", "y"))


def generic_quadratics(n):
    """Pairwise coprime, degree-2-in-y polynomials with nontrivial
    coefficients, matching the generic shape the operator counts assume."""
    out = []
    for i in range(1, n + 1):
        out.append(parse_poly("y^2 + %d*x*y + x + %d" % (i, i), XY))
    return out


class TestShapeCounts:
    def test_ec_shape_one_disc_two_res(self):
        f1, f2, f3 = generic_quadratics(3)
        counts = count_by_tag(ec_tagged(ClauseSpec(f1, (f2, f3)), "y"))
        assert counts["discriminant"] == 1
        assert counts["resultant"] == 2

    def test_unreduced_shape_three_disc_three_res(self):
        fs = generic_quadratics(3)
        counts = count_by_tag(mccallum_tagged(fs, "y"))
        assert counts["discriminant"] == 3
        assert counts["resultant"] == 3

    def test_tti_shape_counts(self):
        g1, g2, g3, g4 = generic_quadratics(4)
        clauses = [ClauseSpec(g1, (g2,)), ClauseSpec(g4, (g3,))]
        tti = count_by_tag(tti_tagged(clauses, "y"))
        assert (tti["discriminant"], tti["resultant"]) == (2, 3)
        imp = count_by_tag(implicit_product_tagged(clauses, "y"))
        assert (imp["discriminant"], imp["resultant"]) == (2, 5)
        full = count_by_tag(mccallum_tagged([g1, g2, g3, g4], "y"))
        assert (full["discriminant"], full["resultant"]) == (4, 6)


class TestParabola:
    def test_projection_closure(self):
        order = VarOrder(("a", "b", "c", "x"))
        p = parse_poly("a*x^2 + b*x + c", order)
        levels = project_all([p], ProjectionConfig("mccallum", order))
        assert [str(q) for q in levels.at_level(4)] == ["a*x^2 + b*x + c"]
        lower = sorted(str(q) for k in (1, 2, 3) for q in levels.at_level(k))
        assert lower == ["4*a*c - b^2", "a", "b", "c"]

    def test_provenance_tags(self):
        order = VarOrder(("a", "b", "c", "x"))
        p = parse_poly("a*x^2 + b*x + c", order)
        levels = project_all([p], ProjectionConfig("mccallum", order))
        disc = [q for q in levels.at_level(3)
                if any(t.tag == "discriminant"
                       for t in levels.tags_for(3, q))]
        assert len(disc) == 1 and str(disc[0]) == "4*a*c - b^2"
        coeffs = [q for k in (1, 2, 3) for q in levels.at_level(k)
                  if any(t.tag == "coefficient"
                         for t in levels.tags_for(k, q))]
        assert sorted(str(q) for q in coeffs) == ["a", "b", "c"]


class TestSubresultants:
    def test_psc0_is_resultant(self, rng):
        for _ in range(25):
            f = rand_univar(rng, rng.randint(1, 4), XY, "y")
            g = rand_univar(rng, rng.randint(1, 4), XY, "y")
            psc_0 = dict(subresultants(f, g, "y")).get(0, Polynomial.zero(XY))
            assert psc_0 == resultant(f, g, "y")


class TestOperators:
    def test_collins_zero_set_covers_mccallum(self, rng):
        # Collins' projection must account for every degeneracy McCallum
        # tracks: every McCallum output vanishes wherever the product of
        # Collins outputs does not separate, checked on random pairs by
        # resultant membership (shared factors)
        for _ in range(10):
            f = rand_univar(rng, 2, XY, "y") + parse_poly("x*y", XY)
            g = rand_univar(rng, 2, XY, "y") + parse_poly("x", XY)
            mc = mccallum_step([f, g], "y")
            co = collins_step([f, g], "y")
            from cadkit.polynomial import poly_gcd
            for p in mc:
                assert any(not poly_gcd(p, q).is_constant or p == q
                           for q in co), \
                    "%s missing from collins set" % p

    def test_project_all_places_content_at_true_level(self):
        o = VarOrder(("x", "y", "z"))
        p = parse_poly("(y - x)*z", o)
        levels = project_all([p], ProjectionConfig("mccallum", o))
        lvl3 = [str(q) for q in levels.at_level(3)]
        lvl2 = [str(q) for q in levels.at_level(2)]
        assert lvl3 == ["z"]
        assert any(q in ("x - y", "y - x") for q in lvl2)

    def test_tti_falls_back_once_mixed(self):
        # once non-input polynomials appear, later steps use mccallum
        (g1, g2, g3, g4), order = tti_inputs()
        clauses = [ClauseSpec(g1, (g2,)), ClauseSpec(g4, (g3,))]
        levels = project_all(clauses, ProjectionConfig("tti", order))
        assert levels.at_level(1)  # produced something at the base
        assert len(levels.at_level(2)) == 4
