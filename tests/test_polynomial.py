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
    subresultants,
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

    def test_gcd_without_coefficient_blowup(self):
        # a primitive remainder sequence, with a content gcd per step,
        # spent 40 s of CPU on this pair
        o = VarOrder(("x", "y", "z"))
        h = "(x^2*y*z + 3*y + 9*z)"
        f = parse_poly(h + "*(4/3*x^2*y^3*z^2 - 8/3*x^2*y^2*z"
                       " + 2/3*x*y^2*z^2 + 6*x^2*y^2 - 2/3*x*y^3"
                       " - 2/9*x*y^2*z)", o)
        g = parse_poly(h + "*(-16/9*x^2*y^2*z^2 - 6*x^2*y*z^2 + 8/3*x*y^2"
                       " - 8/3*y^2*z - 4/3*y^2 + 4/9)", o)
        assert str(poly_gcd(f, g)) == "x^2*y*z + 3*y + 9*z"
        assert resultant(f, g, "y").is_zero


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


def chain_pscs(f, g, var):
    """psc_0 .. psc_(min(deg f, deg g) - 1) read off the chain."""
    pscs = [Polynomial.zero(f.order)] * min(f.degree(var), g.degree(var))
    for j, s in subresultants(f, g, var):
        if s.degree(var) == j:
            pscs[j] = s.leading_coeff(var)
    return pscs


class TestSubresultants:
    def test_pscs_match_sylvester_oracle(self, rng):
        # small sparse coefficients make defective chains common (a zero
        # psc_j above a nonzero one), and every other pair is f and
        # q*f + r, whose first remainder r may drop several degrees
        from oracles import sylvester_psc
        degree_orders, defective = set(), 0
        for k in range(300):
            f = coeffs_to_poly(rand_coeffs(rng, rng.randint(1, 6), -2, 2),
                               X, "x")
            g = coeffs_to_poly(rand_coeffs(rng, rng.randint(1, 6), -2, 2),
                               X, "x")
            if k % 2:
                g = (rand_univar(rng, rng.randint(1, 3)) * f
                     + rand_univar(rng, rng.randint(0, f.degree("x") - 1)))
            if rng.random() < 0.5:
                f, g = g, f
            fc, gc = f.univariate_coeffs("x"), g.univariate_coeffs("x")
            pscs = chain_pscs(f, g, "x")
            expect = [sylvester_psc(fc, gc, j) for j in range(len(pscs))]
            assert [p.constant_value() for p in pscs] == expect
            degree_orders.add((len(fc) > len(gc)) - (len(fc) < len(gc)))
            defective += any(expect[i] and not expect[j]
                             for j in range(len(expect)) for i in range(j))
        assert degree_orders == {-1, 0, 1}
        assert defective >= 40

    def test_multivariate_chain_specializes(self, rng):
        # PSCs and resultants commute with specializing x and y wherever
        # neither leading coefficient in z vanishes
        from oracles import sylvester_psc, sylvester_resultant
        o = VarOrder(("x", "y", "z"))

        def rand_poly():
            dz = rng.randint(1, 3)
            terms = {(rng.randint(0, 2), rng.randint(0, 1),
                      rng.randint(0, dz)): rng.randint(-3, 3)
                     for _ in range(4)}
            terms[(rng.randint(0, 1), rng.randint(0, 1), dz)] = 1
            return Polynomial(o, terms)

        checked = 0
        for _ in range(40):
            f, g = rand_poly(), rand_poly()
            pscs = chain_pscs(f, g, "z")
            res = resultant(f, g, "z")
            for _ in range(3):
                pt = {v: Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                      for v in "xy"}
                fc = [c.evaluate(pt) for c in f.coeffs_in("z")]
                gc = [c.evaluate(pt) for c in g.coeffs_in("z")]
                if fc[-1] == 0 or gc[-1] == 0:
                    continue
                assert ([p.evaluate(pt) for p in pscs]
                        == [sylvester_psc(fc, gc, j)
                            for j in range(len(pscs))])
                assert res.evaluate(pt) == sylvester_resultant(fc, gc)
                checked += 1
        assert checked >= 80
