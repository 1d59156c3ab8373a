"""Timelike constant mean curvature surfaces in the unimodular quadric.

The quadric of unit-determinant real 2x2 matrices, carried by the flat
scalar product of signature (-,-,+,+), is a Lorentz space form of
curvature -1.  This package builds timelike surfaces of mean curvature
+-1 inside it from two families of null curves, builds their minimal
cousins in flat Minkowski 3-space from the same data, and measures
every claimed property numerically: conformality of the parameters,
mean curvature, the Hopf differential pair, the curvature relation,
and holomorphicity of the Gauss maps.
"""

from .algebra import (METRIC3, METRIC4, act, adjugate, check_unimodular,
                      cross3, cross4, det2, mat_of_vec, pack2, project_h31,
                      scalar_product3, scalar_product4, vec_of_mat)
from .config import DEFAULT_TOL, Tolerances
from .export import (export_csv, export_json, export_obj, export_surface,
                     read_json)
from .fields import (EvalError, ExprError, SampledField1D, ScalarField1D,
                     ScalarField2D, as_field1d, as_field2d, eval_expression,
                     eval_with_derivatives, fd_derivative, parse_expression,
                     print_expression)
from .gallery import GALLERY_NAMES, GalleryEntry, gallery, oracle_frame, oracle_surface
from .gaussmaps import (GaussMapGrid, HolomorphicityReport, chart_coordinates,
                        frame_gauss_coordinates, gauss_conformality_check,
                        generalized_gauss, holomorphicity_check,
                        hyperbolic_gauss)
from .geometry import (FundamentalData, GeometryReport, SurfaceGrid,
                       fundamental_data, geometry_report, lawson_shift,
                       lawson_shift_residual, second_form_residual,
                       umbilic_detect)
from .lax import (CompatibilityError, GmcData, LaxFrames,
                  extract_weierstrass_data, gmc_residual, integrate_lax,
                  lax_matrices)
from .nullcurves import (KIND_F1, KIND_F2_MU, FrameCurve, IntegrationError,
                         assemble_mu, assemble_nu, frame_metric_grid,
                         integrate_frame, null_coefficient)
from .weierstrass import (QuadratureError, WeierstrassData,
                          adaptive_quadrature, integrate_minimal,
                          minimal_metric_factor, minimal_normal,
                          projected_gauss_minimal, weierstrass_derivatives)

__version__ = "0.1.0"
