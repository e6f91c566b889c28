"""Exact epsilon multiplicities and H^0 lengths for monomial ideals."""

from .asymptotics import (ConvergenceReport, EpsilonReport, LengthTable,
                          QuasiPolynomial, convergence_report, extract_epsilons,
                          fit_quasi_polynomial, length_table)
from .cohomology import (H0Count, SimplicialComplex, delta_complex, h0_length,
                         h0_length_takayama, h0_of_quotient, max_socle_degree,
                         reduced_betti)
from .errors import (DimensionMismatchError, EpsmultError, InsufficientDataError,
                     NoFitError, ParseError, PreconditionError,
                     TheoremViolationError, ZeroIdealError)
from .families import (CounterRule, FamilySpec, GrowthReport, HyperbolaRule,
                       LimitRecursiveRule, NoetherianSeedsRule, PowerRule,
                       ProductGridRule, SqrtPrincipalRule, StructureReport,
                       TableRule, check_structure, eval_family, family_from_json,
                       family_to_json, generation_degree, growth_constants,
                       power_family, product_grid_family)
from .ideal_core import Monomial, MonomialIdeal, format_ideal, parse_ideal
from .polyhedra import (NewtonPolyhedron, OutRegionReport, analytic_spread,
                        newton_polyhedron, out_region)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
