import importlib.resources as resources

import pytest

from cadkit import VarOrder
from cadkit.ccd import (
    CCDError,
    make_semialgebraic,
    parse_tree,
    validate_separation,
)
from cadkit.cadcore import cylindricity_check

from conftest import assert_cad_well_formed, assert_sign_table


def parabola_source():
    return (resources.files("cadkit") / "fixtures" / "parabola.ccd").read_text()


def tree_2d(body):
    return "(ccd (vars x y)\n%s)" % body


class TestParsing:
    def test_parabola_tree_parses(self):
        tree = parse_tree(parabola_source())
        assert tree.order == VarOrder(("a", "b", "c", "x"))
        assert tree.leaf_count() == 8
        assert [str(p) for p in tree.tracked] == ["a*x^2 + b*x + c"]

    def test_comments_and_quotes(self):
        src = tree_2d("""
          ; a comment line
          (node (eq "x - 1") (node (eq "y") ) (node (neq)))
          (node (neq) (node (whole)))
        """)
        tree = parse_tree(src)
        assert tree.leaf_count() == 3

    def test_unbalanced_rejected(self):
        with pytest.raises(CCDError):
            parse_tree("(ccd (vars x) (node (whole))")


class TestStructure:
    def test_missing_complement_rejected(self):
        src = tree_2d('(node (eq "x") (node (whole)))')
        with pytest.raises(CCDError, match="complement"):
            parse_tree(src)

    def test_non_coprime_siblings_rejected(self):
        src = tree_2d('''
          (node (eq "x") (node (whole)))
          (node (eq "x^2") (node (whole)))
          (node (neq) (node (whole)))
        ''')
        with pytest.raises(CCDError):
            parse_tree(src)

    def test_p_and_pq_rejected(self):
        src = tree_2d('''
          (node (eq "x - 1") (node (whole)))
          (node (eq "(x - 1)*(x - 2)") (node (whole)))
          (node (neq) (node (whole)))
        ''')
        with pytest.raises(CCDError, match="coprime"):
            parse_tree(src)

    def test_not_squarefree_rejected(self):
        src = tree_2d('''
          (node (eq "(x - 1)^2") (node (whole)))
          (node (neq) (node (whole)))
        ''')
        with pytest.raises(CCDError, match="square-free"):
            parse_tree(src)

    def test_wrong_main_variable_rejected(self):
        src = tree_2d('''
          (node (eq "x") (node (eq "x - 2")) (node (neq)))
          (node (neq) (node (whole)))
        ''')
        with pytest.raises(CCDError):
            parse_tree(src)

    def test_wrong_depth_rejected(self):
        src = tree_2d('(node (eq "x"))\n(node (neq) (node (whole)))')
        with pytest.raises(CCDError):
            parse_tree(src)


class TestSeparation:
    def test_parabola_tree_separates(self):
        report = validate_separation(parse_tree(parabola_source()))
        assert report.ok
        assert report.checked > 0

    def test_violation_detected(self):
        # y^2 - x is not square-free at the probe x = 0 on the branch x = 0
        src = tree_2d('''
          (node (eq "x") (node (eq "y^2 - x")) (node (neq)))
          (node (neq) (node (whole)))
        ''')
        report = validate_separation(parse_tree(src))
        assert not report.ok


class TestRealization:
    def test_parabola_realizes_27(self, rng):
        tree = parse_tree(parabola_source())
        cad = make_semialgebraic(tree)
        assert cad.per_level_counts() == {1: 3, 2: 5, 3: 11, 4: 27}
        assert cylindricity_check(cad) is None

    def test_tracked_polynomials_sign_invariant(self, rng):
        tree = parse_tree(parabola_source())
        cad = make_semialgebraic(tree)
        # Monte-Carlo F-invariance of the tracked polynomial on
        # full-dimensional cells
        from cadkit.cadcore import random_point_in_cell
        p = tree.tracked[0]
        top = cad.nvars
        for cell in cad.cells(top):
            if cell.dimension != top or str(p) not in cell.signs:
                continue
            for _ in range(20):
                point = random_point_in_cell(cad, cell, rng)
                v = p.evaluate(point)
                assert ((v > 0) - (v < 0)) == cell.signs[str(p)]

    def test_parabola_sign_table(self):
        tree = parse_tree(parabola_source())
        assert_sign_table(make_semialgebraic(tree), tree.tracked)

    def test_circle_tree_realizes(self):
        src = tree_2d('''
          (node (eq "x - 1") (node (eq "y")) (node (neq)))
          (node (neq) (node (eq "y^2 - x^2 - 1")) (node (neq)))
        ''')
        tree = parse_tree(src)
        report = validate_separation(tree)
        assert report.ok
        cad = make_semialgebraic(tree)
        assert cad.cell_count() > 0
        assert cylindricity_check(cad) is None
