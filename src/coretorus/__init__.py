"""Layered solid tori, normal meridian discs, parallelity bundles and
PL core-curve certificates, all in exact arithmetic."""

# Triangulation.boundary_complex imports this lazily; importing it with the
# package keeps that import out of the first boundary complex built, such as
# perfbench's first timed unit after its set-up re-imports the package
from .boundary import BoundaryComplex

from .bundle import (BundleComponent, ClaimsReport, CutComplex, bundle_prime,
                     check_claims, cut_along, parallelity_bundle, verify_claims)
from .curves import (CurveCertificate, PLCurve, Segment, TransverseCurve,
                     algebraic_intersection, arcs_per_face, curve_h1_class,
                     face_bound_check, is_embedded, make_61_curve,
                     min_boundary_precore_length, push_off, tet_bound_check,
                     verify_curve_bounds)
from .geometry import GeometrizedSurface
from .homology import (HomologySummary, MeridianCalibration, boundary_h1, calibrate,
                       first_homology, manifold_h1, smith_normal_form)
from .layered import BASE_T0_TEXT, LayeredTriangulation, base_t0, family, layer
from .normal import NormalVector, check_matching, edge_weight, min_curve_length, reconstruct
from .search import (BudgetExhausted, DiscSearchResult, MeridianDisc,
                     MinimalDiscResult, SearchBudget, enumerate_admissible,
                     find_meridian_discs, minimal_complexity_disc, verify_61_1,
                     verify_61_2)
from .slopes import (Slope, SlopeTriple, at_least_golden_power, elementary_move, fib,
                     intersection, lucas, mediant, normalize_slope, slope_seq)
from .triangulation import (ParseError, SkeletonSummary, Triangulation,
                            TriangulationError, parse_tri, serialize_tri)
