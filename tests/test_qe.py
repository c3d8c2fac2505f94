import random
from fractions import Fraction

import pytest

from cadkit import VarOrder, qe
from cadkit.cadcore import build_cad
from cadkit.formulas import (
    And,
    Atom,
    FormulaError,
    Not,
    Or,
    Quant,
    parse_formula,
    prenex,
)
from cadkit.polynomial import parse_poly
from cadkit.projection import ProjectionConfig
from cadkit.qe import evaluate_matrix, formula_clauses, propagate, synthesize

XY = VarOrder(("x", "y"))


def sample_equiv(result, reference, free, rng, points=100, span=4):
    """Compare the synthesized formula against a reference predicate on
    random rational points."""
    for _ in range(points):
        assignment = {v: Fraction(rng.randint(-span * 6, span * 6), 6)
                      for v in free}
        assert result.evaluate(assignment) == reference(assignment), \
            "disagree at %s" % assignment


class TestParsing:
    def test_parse_print_identity(self):
        texts = [
            "x^2 + y^2 - 1 < 0",
            "exists y. y^2 = x",
            "forall y. y^2 + 1 > 0",
            "x > 0 /\\ y < 0",
            "x = 0 \\/ ~(y >= 1)",
            "x > 0 -> y^2 >= 0",
        ]
        for t in texts:
            f = parse_formula(t, XY)
            again = parse_formula(str(f), XY)
            assert str(again) == str(f)

    def test_atom_order_relations_not_flipped(self):
        X = VarOrder(("x",))
        f = parse_formula("-x < 0", X)
        assert isinstance(f, Atom)
        # -x < 0 holds exactly when x > 0, however the atom is stored
        for xval, expect in [(Fraction(1), True), (Fraction(-1), False),
                             (Fraction(0), False)]:
            v = f.poly.evaluate({"x": xval})
            assert f.holds((v > 0) - (v < 0)) is expect

    def test_rejects_rebinding(self):
        with pytest.raises(FormulaError):
            parse_formula("exists y. exists y. y = x", XY)


class TestPrenex:
    def test_negation_flips_quantifier(self):
        f = parse_formula("~(exists y. y^2 = x)", XY)
        pf = prenex(f, XY)
        assert pf.blocks == [("forall", ["y"])]

    def test_implication_antecedent_flips(self):
        o = VarOrder(("x", "y"))
        f = parse_formula("(exists y. y = x) -> x >= 0", o)
        pf = prenex(f, o)
        assert pf.blocks == [("forall", ["y"])]

    def test_same_kind_run_merges_and_sorts(self):
        o = VarOrder(("x", "y", "z"))
        f = parse_formula("exists z. exists y. y + z = x", o)
        pf = prenex(f, o)
        assert pf.blocks == [("exists", ["y", "z"])]

    def test_order_violation_rejected(self):
        o = VarOrder(("x", "y", "z"))
        f = parse_formula("forall y. exists z. y + z = x", o)
        assert prenex(f, o).alternations == 1
        bad = parse_formula("forall z. exists y. y + z = x", o)
        with pytest.raises(FormulaError):
            prenex(bad, o)

    def test_free_vars_must_be_prefix(self):
        o = VarOrder(("x", "y"))
        with pytest.raises(FormulaError):
            prenex(parse_formula("exists x. y = x", o), o)


class TestPropagation:
    def test_propagate_matches_brute_force(self):
        p = parse_poly("x^2 + y^2 - 1", XY)
        cad = build_cad([p], ProjectionConfig("mccallum", XY))
        matrix = parse_formula("x^2 + y^2 - 1 < 0", XY)
        leaf = evaluate_matrix(cad, matrix)
        tables = propagate(cad, [("exists", ["y"])], leaf)
        assert tables[2] == leaf
        got = tables[1]
        # brute force: group level-2 truths by their base index
        expect = {}
        for idx, t in leaf.items():
            expect[idx[:1]] = expect.get(idx[:1], False) or t
        assert got == expect
        got_all = propagate(cad, [("forall", ["y"])], leaf)[1]
        expect_all = {}
        for idx, t in leaf.items():
            expect_all[idx[:1]] = expect_all.get(idx[:1], True) and t
        assert got_all == expect_all


class TestQE:
    def test_sqrt_example(self, rng):
        r = qe("exists y. y^2 = x", XY)
        texts = sorted(c.describe() for c in r.formula.cells)
        assert texts == ["0 < x", "x = 0"]
        sample_equiv(r.formula, lambda a: a["x"] >= 0, ["x"], rng)

    def test_constant_atoms(self, rng):
        X = VarOrder(("x",))
        for text, want in [("exists x. x^2 - 2 = 0 /\\ 1 > 0", True),
                           ("exists x. x^2 - 2 = 0 /\\ 0 < 1", True),
                           ("exists x. x^2 - 2 = 0 /\\ 0 = 1", False),
                           ("exists x. x^2 - 2 = 0 \\/ 0 = 1", True)]:
            assert qe(text, X).is_true is want, text
        r = qe("exists y. y^2 = x /\\ 1 > 0", XY)
        sample_equiv(r.formula, lambda a: a["x"] >= 0, ["x"], rng)

    def test_universal_sentence_true(self):
        X = VarOrder(("x",))
        r = qe("forall x. x^2 >= 0", X)
        assert r.is_true is True

    def test_existential_sentence_false(self):
        X = VarOrder(("x",))
        r = qe("exists x. x^2 + 1 < 0", X)
        assert r.is_true is False

    def test_open_disc_projection(self, rng):
        r = qe("exists y. x^2 + y^2 < 1", XY)
        sample_equiv(r.formula, lambda a: -1 < a["x"] < 1, ["x"], rng)

    def test_forall_with_free_variable(self, rng):
        r = qe("forall y. y^2 + x > 0", XY)
        sample_equiv(r.formula, lambda a: a["x"] > 0, ["x"], rng)

    def test_witness_for_true_sentence(self):
        X = VarOrder(("x",))
        r = qe("exists x. x^2 - 2 = 0", X, want_witness=True)
        assert r.is_true is True and r.witness and len(r.witness) == 1

    def test_merge_adjacent_collapses_full_stacks(self, rng):
        r = qe("exists y. x^2 + y^2 < 1", XY, merge_adjacent=True)
        plain = qe("exists y. x^2 + y^2 < 1", XY)
        assert len(r.formula.cells) <= len(plain.formula.cells)
        sample_equiv(r.formula, lambda a: -1 < a["x"] < 1, ["x"], rng)

    def test_two_alternations(self, rng):
        o = VarOrder(("x", "y", "z"))
        r = qe("forall y. exists z. z > x + y", o)
        sample_equiv(r.formula, lambda a: True, ["x"], rng, points=20)

    def test_tti_operator_on_sentence(self):
        o = VarOrder(("x", "y"))
        f = ("exists x. exists y. (x^2 + y^2 - 4 = 0 /\\ (x - 3)^2 - (y + 3) > 0)"
             " \\/ ((x - 3)^2 + (y - 2) > 0 /\\ (x - 6)^2 + y^2 - 4 = 0)")
        r = qe(f, o, operator="tti", lifting="ec")
        assert r.is_true is True

    def test_ec_with_free_vars_and_ec_lifting_rejected(self):
        with pytest.raises(FormulaError):
            qe("exists y. y^2 = x /\\ y > 0", XY, operator="ec",
               lifting="ec")

    def test_constant_matrix_shortcut(self):
        X = VarOrder(("x",))
        r = qe("forall x. 1 > 0", X)
        assert r.is_true is True


class TestClauses:
    def test_formula_clauses_reads_shape(self):
        f = parse_formula(
            "(x^2 + y^2 - 4 = 0 /\\ x - y > 0) \\/ (y - 3 = 0 /\\ x < 0)",
            XY)
        clauses = formula_clauses(f)
        assert clauses is not None and len(clauses) == 2
        assert clauses[0].ec is not None
        assert len(clauses[0].others) == 1

    def test_formula_clauses_rejects_nested(self):
        f = parse_formula("~(x = 0 /\\ y = 0)", XY)
        assert formula_clauses(f) is None
