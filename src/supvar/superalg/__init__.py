"""Presented Hopf superalgebras: P_r arithmetic, group algebra constructors,
quotient classification, Hom-scheme ideals, and the coordinate-coalgebra
oracle used to cross-check everything."""

from .pr import (
    PrIndex,
    PrElement,
    gamma_product,
    gamma_coeff,
    pr_coproduct,
    pr_antipode_counit,
    PrPresentation,
)
from .algebra import (
    AlgebraError,
    GroupAlgebraSpec,
    HopfStructure,
    PresentedSuperalgebra,
    build_group_algebra,
    tensor_algebra,
    verify_algebra,
    verify_hopf,
)
from .morphisms import SuperalgebraMorphism, QuotientLabel, classify_quotient
from .homscheme import PolynomialIdeal, hom_scheme_ideal, solve_even_points
from .dual_oracle import CoordinateCoalgebraOracle, km_r_dual_oracle

__all__ = [
    "PrIndex",
    "PrElement",
    "gamma_product",
    "gamma_coeff",
    "pr_coproduct",
    "pr_antipode_counit",
    "AlgebraError",
    "GroupAlgebraSpec",
    "HopfStructure",
    "PresentedSuperalgebra",
    "build_group_algebra",
    "tensor_algebra",
    "verify_algebra",
    "verify_hopf",
    "PrPresentation",
    "SuperalgebraMorphism",
    "QuotientLabel",
    "classify_quotient",
    "PolynomialIdeal",
    "hom_scheme_ideal",
    "solve_even_points",
    "CoordinateCoalgebraOracle",
    "km_r_dual_oracle",
]
