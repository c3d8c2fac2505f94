"""Exact real quantifier elimination by cylindrical algebraic
decomposition: polynomial algebra, real algebraic numbers, projection
operators, sampled decompositions, formula synthesis, complex
decomposition trees, and complexity-bound calculators."""

from .polynomial import (
    Polynomial,
    PolynomialError,
    VarOrder,
    discriminant,
    parse_poly,
    resultant,
    squarefree_basis,
)
from .realalg import (
    Interval,
    RealAlgebraicNumber,
    choose_sample,
    isolate_roots,
)
from .chains import SamplePoint, sample_between, sign_at, thom_encoding
from .projection import (
    ClauseSpec,
    ProjectionConfig,
    ProjectionLevels,
    collins_step,
    mccallum_step,
    project_all,
)
from .cadcore import (
    CAD,
    Cell,
    NotWellOriented,
    Stack,
    base_cad,
    build_cad,
    cylindricity_check,
    describe_cell,
    lift,
    random_point_in_cell,
)
from .formulas import Formula, FormulaError, parse_formula, prenex
from .qe import ExtendedFormula, QEResult, evaluate_matrix, propagate, qe, synthesize
from .ccd import CCDTree, make_semialgebraic, parse_tree, validate_separation
from .meta import BoundParams, bound, generate_dh

__all__ = [n for n in dir() if not n.startswith("_")]
__version__ = "0.1.0"
