import random
from fractions import Fraction

import pytest

from cadkit import VarOrder
from cadkit.polynomial import (
    Polynomial,
    PolynomialError,
    content_in,
    discriminant,
    exact_div,
    parse_poly,
    poly_gcd,
    prem,
    primitive_in,
    pseudo_divmod,
    resultant,
    squarefree_basis,
    squarefree_part,
    parse_poly as pp,
)

from conftest import coeffs_to_poly, rand_coeffs, rand_univar

XY = VarOrder(("x", "y"))
X = VarOrder(("x",))


def P(text, order=XY):
    return parse_poly(text, order)


class TestBasics:
    def test_parse_str_round_trip(self):
        for text in ["x^2 + y^2 - 4", "x - y", "-3*x*y + 2", "x^3 - y"]:
            p = P(text)
            assert P(str(p)) == p

    def test_parse_rejects_garbage(self):
        with pytest.raises(PolynomialError):
            P("x +* y")
        with pytest.raises(PolynomialError):
            P("z + 1")  # unknown variable

    def test_parse_rejects_division_by_zero(self):
        for text in ("x/0 + y", "x/(y - y)", "1/(2 - 2)"):
            with pytest.raises(PolynomialError):
                P(text)
        with pytest.raises(PolynomialError):
            P("x/y")  # only constant divisors
        assert P("x/2 + y") == P("y + x/2")

    def test_unary_sign_binds_looser_than_power(self):
        assert P("x*-y^2") == -P("x*y^2")
        assert P("x - -y^2") == P("x + y^2")
        assert P("2*-(x+y)^2") == P("-2*x^2 - 4*x*y - 2*y^2")
        assert P("-x^2") == -P("x^2")
        assert P("x*+y") == P("x*y")

    def test_arithmetic_identities(self):
        p, q = P("x^2 - y"), P("x*y + 3")
        assert (p + q) - q == p
        assert p * q == q * p
        assert (p - p).is_zero
        assert (p * 0).is_zero
        assert p ** 2 == p * p

    def test_degree_level_main_var(self):
        p = P("x^2*y + x^3")
        assert p.degree("x") == 3
        assert p.degree("y") == 1
        assert p.level() == 2
        assert p.main_var() == "y"
        assert P("x - 4").level() == 1

    def test_evaluate_and_substitute(self):
        p = P("x^2 + y^2 - 4")
        assert p.evaluate({"x": Fraction(1), "y": Fraction(2)}) == 1
        q = p.substitute({"x": Fraction(1)})
        assert q == P("y^2 - 3")


class TestDivision:
    def test_pseudo_division_identity(self, rng):
        for _ in range(50):
            f = rand_univar(rng, rng.randint(2, 5))
            g = rand_univar(rng, rng.randint(1, 3))
            q, r = pseudo_divmod(f, g, "x")
            lc = g.leading_coeff("x")
            k = f.degree("x") - g.degree("x") + 1
            assert lc ** k * f == q * g + r
            assert r.degree("x") < g.degree("x")
            assert prem(f, g, "x") == r

    def test_pseudo_division_identity_multivariate(self, rng):
        # random trivariate f, g with non-integer rational coefficients,
        # divided in every variable; the pair (q, r) is unique, so the
        # identity and the degree bound pin it down
        order = VarOrder(("x", "y", "z"))

        def rand_poly(deg, nterms):
            return Polynomial(order, {
                tuple(rng.randint(0, deg) for _ in range(3)):
                    Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 7)))
                for _ in range(nterms)})

        cases = [(rand_poly(rng.randint(1, 3), rng.randint(1, 6)),
                  rand_poly(rng.randint(1, 2), rng.randint(1, 4)))
                 for _ in range(40)]
        seen = set()
        for f, g in cases:
            if g.is_zero:
                continue
            for v in order:
                df, dg = f.degree(v), g.degree(v)
                seen.add("df<dg" if df < dg else "dg=0" if dg == 0 else
                         "other" if v != g.main_var() else "main")
                q, r = pseudo_divmod(f, g, v)
                k = max(df - dg + 1, 0)
                assert g.leading_coeff(v) ** k * f == q * g + r
                assert r.degree(v) < dg
                assert prem(f, g, v) == r
        assert seen == {"df<dg", "dg=0", "other", "main"}

    def test_exact_div(self):
        f = P("x^2 - y^2")
        assert exact_div(f, P("x - y")) == P("x + y")
        a, b = P("x^2/3 - 2/7*x*y + 5"), P("3/2*y^2 - x/5")
        assert exact_div(a * b, b) == a
        assert exact_div(a * b, a) == b
        with pytest.raises(PolynomialError):
            exact_div(P("x^2 + 1", X), P("x - 1", X))
        with pytest.raises(PolynomialError, match="inexact polynomial division"):
            exact_div(a * b + P("y/2"), a)

    def test_content_primitive(self):
        f = P("x^2*y - x^2 + x*y - x")  # x(x+1)(y-1)
        cont = content_in(f, "y")
        assert cont == P("x^2 + x")
        assert primitive_in(f, "y") * cont == f


class TestGcd:
    def test_gcd_divides_both(self, rng):
        for _ in range(30):
            h = rand_univar(rng, rng.randint(1, 2))
            f = rand_univar(rng, rng.randint(1, 3)) * h
            g = rand_univar(rng, rng.randint(1, 3)) * h
            d = poly_gcd(f, g)
            assert exact_div(f, d) * d == f
            assert exact_div(g, d) * d == g
            assert d.degree("x") >= h.degree("x")

    def test_gcd_multivariate(self):
        f = P("x^2 - y^2") * P("x + 3")
        g = P("x - y") * P("x + 3")
        d = poly_gcd(f, g)
        assert exact_div(f, d) is not None
        assert d.degree("x") == 2  # (x - y)(x + 3) up to sign


class TestSquarefree:
    def test_squarefree_part_removes_multiplicity(self):
        f = P("(x - 1)^2*(x + 2)", X)
        sf = squarefree_part(f)
        assert exact_div(f, sf) is not None
        assert poly_gcd(sf, sf.derivative("x")).is_constant

    def test_squarefree_part_keeps_content_zeros(self):
        o = VarOrder(("x", "y", "z"))
        f = parse_poly("(y - x)*z", o)
        sf = squarefree_part(f)
        # the content y - x is a genuine factor; its zeros must survive
        assert exact_div(sf, parse_poly("z", o)) is not None
        assert sf.degree("z") == 1 and sf.degree("y") == 1

    def test_basis_pairwise_coprime_squarefree(self):
        f = P("(x - 1)*(x - 2)", X)
        g = P("(x - 2)*(x - 3)", X)
        basis = squarefree_basis([f, g])
        for i, p in enumerate(basis):
            assert poly_gcd(p, p.derivative("x")).is_constant
            for q in basis[i + 1:]:
                assert poly_gcd(p, q).is_constant
        # each input factors exactly over the basis
        for h in (f, g):
            rem = h
            for p in basis:
                while True:
                    try:
                        rem = exact_div(rem, p)
                    except PolynomialError:
                        break
            assert rem.is_constant

    def test_basis_splits_content_at_true_level(self):
        o = VarOrder(("x", "y", "z"))
        basis = squarefree_basis([parse_poly("(y - x)*z", o)])
        levels = sorted(p.level() for p in basis)
        assert levels == [2, 3]


class TestResultant:
    def test_resultant_matches_sylvester_oracle(self, rng):
        from oracles import sylvester_resultant
        for _ in range(200):
            fc = rand_coeffs(rng, rng.randint(1, 5))
            gc = rand_coeffs(rng, rng.randint(1, 5))
            f = coeffs_to_poly(fc, X, "x")
            g = coeffs_to_poly(gc, X, "x")
            r = resultant(f, g, "x")
            assert r.constant_value() == sylvester_resultant(fc, gc)

    def test_resultant_multiplicative(self, rng):
        for _ in range(200):
            f = rand_univar(rng, rng.randint(1, 3))
            g = rand_univar(rng, rng.randint(1, 3))
            h = rand_univar(rng, rng.randint(1, 3))
            lhs = resultant(f * g, h, "x")
            rhs = resultant(f, h, "x") * resultant(g, h, "x")
            assert lhs == rhs

    def test_discriminant_multiplicative(self, rng):
        # disc(fg) = disc(f) disc(g) res(f,g)^2 up to the sign fixed by
        # the degrees; compare absolute values over 200 cases
        for _ in range(200):
            f = rand_univar(rng, rng.randint(2, 3))
            g = rand_univar(rng, rng.randint(2, 3))
            lhs = discriminant(f * g, "x").constant_value()
            rhs = (discriminant(f, "x").constant_value()
                   * discriminant(g, "x").constant_value()
                   * resultant(f, g, "x").constant_value() ** 2)
            assert abs(lhs) == abs(rhs)

    def test_discriminant_of_quadratic(self):
        o = VarOrder(("a", "b", "c", "x"))
        f = parse_poly("a*x^2 + b*x + c", o)
        d = discriminant(f, "x")
        expect = parse_poly("b^2 - 4*a*c", o)
        assert d == expect or d == expect.scale(-1)

    def test_resultant_common_root_vanishes(self):
        f = P("(x - 2)*(x + 5)", X)
        g = P("(x - 2)*(x - 7)", X)
        assert resultant(f, g, "x").is_zero
