"""Exact rational algebra for Bell, Euler, Stirling-2 and Bell-based Euler
polynomial families, with an identity-verification harness and an
umbral-calculus (Appell/Sheffer) layer."""

from .algebra import CoefficientRing, Poly, QQ, Series, XY, format_fraction, parse_fraction
from .identities import CHECKS as IDENTITY_CHECKS, Counterexample, Grid, IdentityReport
from .sequences import (
    bell_euler_number,
    bell_euler_poly,
    bell_number,
    bell_poly,
    bivariate_bell,
    euler_number_order,
    euler_poly_order,
    falling_factorial,
    special_case,
    stirling2_number,
    stirling2_poly,
)
from .umbral import (
    CHECKS as UMBRAL_CHECKS,
    AppellContext,
    AppellExpansion,
    apply_operator,
    expand_in_appell,
    pair,
    reconstruct,
)

__version__ = "0.1.0"

__all__ = [
    "AppellContext", "AppellExpansion", "CoefficientRing", "Counterexample",
    "Grid", "IdentityReport", "IDENTITY_CHECKS",
    "Poly", "QQ", "Series", "UMBRAL_CHECKS", "XY",
    "apply_operator", "bell_euler_number",
    "bell_euler_poly", "bell_number", "bell_poly", "bivariate_bell",
    "euler_number_order", "euler_poly_order", "expand_in_appell",
    "falling_factorial", "format_fraction", "pair", "parse_fraction",
    "reconstruct", "special_case", "stirling2_number", "stirling2_poly",
]
