"""Exact invariants of Artin-Schreier curves y^p - y = f(x).

The package computes, entirely in exact arithmetic over GF(p^k):

  * the Cartier operator on regular 1-forms and its matrix, by two
    independent pipelines that cross-check each other;
  * the a-number (corank of that matrix) and, when every pole order of f
    divides p-1, the closed-form value that depends on the orders alone;
  * the p-rank as the stable rank of twisted matrix products;
  * point counts, the L-polynomial, and the Newton/Hodge slope polygons.

See the README for the file format and the `ascart` command line tool.
"""

from .cartier import CartierMatrix, cartier_matrix
from .curve import (
    INF,
    BasisForm,
    CurveInvariants,
    CurveSpec,
    PoleDatum,
    basis,
    validate,
)
from .finite_field import GF, Field, FieldElement, embedding
from .invariants import (
    ANumberReport,
    a_monomial_remark,
    a_number,
    kappa,
    p_rank_stable,
    partition_HA,
    rank,
    theorem_a_value,
    twisted_rank_profile,
)
from .ratfunc import PartialFraction, Poly, partial_fractions
from .rational import cartier_poly
from .specfile import parse_spec, parse_spec_text
from .sweep import SweepConfig, SweepReport, random_curve, run_sweep
from .zeta import (
    LPolynomial,
    SlopePolygon,
    compare_polygons,
    count_points,
    hodge_polygon,
    l_polynomial,
    newton_polygon,
)

__version__ = "0.1.0"
