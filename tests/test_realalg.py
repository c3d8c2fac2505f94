from fractions import Fraction

import pytest

from cadkit import VarOrder
from cadkit.chains import (
    compare_chain_coords,
    merge_chain_roots,
    refine_coord,
    sample_between,
    sign_at_chain,
    thom_encoding,
)
from cadkit.polynomial import parse_poly, poly_gcd
from cadkit.realalg import (
    RealAlgebraicNumber,
    choose_sample,
    isolate_roots,
    isolate_with_multiplicity,
)

from conftest import coeffs_to_poly, rand_coeffs
from oracles import evaluate as oracle_eval, sturm_count

X = VarOrder(("x",))


def P(text):
    return parse_poly(text, X)


def compare(a, b):
    """Trichotomy of two numbers over Q; a rational may stand for b."""
    if isinstance(b, Fraction):
        b = RealAlgebraicNumber.rational(b, "x", X)
    return compare_chain_coords(a, b, "x", [])


def refine(a, width):
    while not a.is_rational and a.interval.width >= width:
        refine_coord(a, [])
    return a


# a rational root next to an irrational one: -1 and one root near -0.33
QUARTIC = "94*x^4 + 125*x^3 + 131*x^2 + 133*x + 33"


class TestIsolation:
    def test_rational_roots_are_points(self):
        roots = isolate_roots(P("(x - 1)*(x + 2)*(3*x - 1)"))
        values = sorted(r.interval.lo for r in roots
                        if r.interval.is_point)
        assert values == [Fraction(-2), Fraction(1, 3), Fraction(1)]

    def test_sqrt2(self):
        roots = isolate_roots(P("x^2 - 2"))
        assert len(roots) == 2
        neg, pos = roots
        assert neg.interval.hi <= 0 <= pos.interval.lo
        assert compare(neg, Fraction(0)) < 0 < compare(pos, Fraction(0))
        assert compare(pos, Fraction(141, 100)) > 0
        assert compare(pos, Fraction(142, 100)) < 0

    def test_no_real_roots(self):
        assert isolate_roots(P("x^2 + 1")) == []

    def test_multiplicity(self):
        roots = isolate_with_multiplicity(P("(x - 1)^2*(x + 2)"))
        mult = {r.interval.lo: r.multiplicity for r in roots
                if r.interval.is_point}
        assert mult == {Fraction(-2): 1, Fraction(1): 2}

    def test_multiplicity_of_irrational_roots(self):
        roots = isolate_with_multiplicity(P("(x^2 - 2)^2*(x^2 - 3)*(x - 1)^3"))
        got = [(str(r.defining), r.multiplicity) for r in roots]
        assert got == [("x^2 - 3", 1), ("x^2 - 2", 2), ("x - 1", 3),
                       ("x^2 - 2", 2), ("x^2 - 3", 1)]
        for a, b in zip(roots, roots[1:]):
            assert compare(a, b) < 0

    def test_rational_root_is_no_endpoint(self):
        roots = isolate_roots(P(QUARTIC))
        assert [r.is_rational for r in roots] == [True, False]
        assert roots[0].rational_value() == -1
        assert Fraction(-1) not in (roots[1].interval.lo, roots[1].interval.hi)

    def test_against_sturm_oracle_500(self, rng):
        checked = 0
        while checked < 500:
            deg = rng.randint(1, 8)
            coeffs = rand_coeffs(rng, deg)
            p = coeffs_to_poly(coeffs, X, "x")
            if not poly_gcd(p, p.derivative("x")).is_constant:
                continue  # oracle count is for distinct roots anyway,
                          # but keep the corpus square-free as specified
            checked += 1
            roots = isolate_roots(p)
            assert len(roots) == sturm_count(coeffs)
            prev_hi = None
            for r in roots:
                iv = r.interval
                assert iv.lo <= iv.hi
                if prev_hi is not None:
                    assert prev_hi <= iv.lo
                prev_hi = iv.hi
                if iv.is_point:
                    assert oracle_eval(coeffs, iv.lo) == 0
                else:
                    # neither endpoint of an open interval is a root, so
                    # the count over (lo, hi] is the count over (lo, hi)
                    assert oracle_eval(coeffs, iv.lo) != 0
                    assert oracle_eval(coeffs, iv.hi) != 0
                    assert sturm_count(coeffs, iv.lo, iv.hi) == 1


class TestArithmetic:
    def test_compare_and_refine(self):
        pos = isolate_roots(P("x^2 - 2"))[1]
        narrower = refine(pos, Fraction(1, 10 ** 6))
        assert narrower.interval.hi - narrower.interval.lo <= Fraction(1, 10 ** 6)
        assert compare(narrower, pos) == 0

    def test_merge_roots_orders_and_dedups(self):
        a = isolate_roots(P("x^2 - 2"))
        b = isolate_roots(P("x^2 - 3"))
        c = isolate_roots(P("x^2 - 2"))
        merged = merge_chain_roots([a, b, c], "x", [])
        assert [sorted(ms) for _, ms in merged] == [[1], [0, 2], [0, 2], [1]]
        for (u, _), (v, _) in zip(merged, merged[1:]):
            assert compare(u, v) < 0

    def test_sample_between(self):
        r2, r3 = isolate_roots(P("x^2 - 2"))[1], isolate_roots(P("x^2 - 3"))[1]
        s = sample_between(r2, r3)
        assert compare(r2, s) < 0 and compare(r3, s) > 0

    def test_choose_sample_prefers_simple(self):
        assert choose_sample(Fraction(0), Fraction(10)) == 1
        assert choose_sample(None, Fraction(0)) < 0
        assert choose_sample(Fraction(0), None) > 0
        mid = choose_sample(Fraction(1, 3), Fraction(2, 3))
        assert Fraction(1, 3) < mid < Fraction(2, 3)

    def test_sign_of_poly_at(self):
        r2 = isolate_roots(P("x^2 - 2"))[1]
        assert sign_at_chain(P("x^2 - 2"), [r2]) == 0
        assert sign_at_chain(P("x - 2"), [r2]) < 0
        assert sign_at_chain(P("x - 1"), [r2]) > 0
        assert sign_at_chain(P("x^3"), [r2]) > 0

    def test_root_next_to_a_rational_root(self):
        # the root near -0.33 once had -1 (also a root) as an endpoint,
        # which sent refinement and comparison to the wrong half
        root = isolate_roots(P(QUARTIC))[1]
        assert compare(root, Fraction(-1, 2)) == 1
        assert compare(root, Fraction(-1, 3)) == 1
        assert compare(root, Fraction(-33, 100)) == 1
        assert compare(root, Fraction(-3297, 10000)) == -1
        narrow = refine(root, Fraction(1, 1024))
        assert narrow.interval.width < Fraction(1, 1024)
        # the root lies in (-0.33, -0.3297)
        assert narrow.interval.lo < Fraction(-3297, 10000)
        assert narrow.interval.hi > Fraction(-33, 100)
        assert sign_at_chain(P(QUARTIC), [root]) == 0
        assert sign_at_chain(P("x + 1"), [root]) == 1
        assert sign_at_chain(P("3*x + 1"), [root]) == 1
        assert sign_at_chain(P("100*x + 33"), [root]) == 1
        assert sign_at_chain(P("10000*x + 3297"), [root]) == -1


class TestThom:
    def test_thom_distinguishes_conjugates(self):
        p = P("x^2 - 2")
        neg, pos = isolate_roots(p)
        assert thom_encoding(p, neg) != thom_encoding(p, pos)
        # first derivative 2x has opposite signs at the two roots
        assert thom_encoding(p, neg)[0] == -1
        assert thom_encoding(p, pos)[0] == 1
