"""Shared tolerance context.

Every numerical gate in the package reads its threshold from a single
Tolerances object so that a CLI run, a library call, and a test exercise
the same policy.  All values are absolute unless noted, and none is
negative or NaN; inf turns a gate off.
"""

from dataclasses import dataclass, fields, replace


@dataclass(frozen=True)
class Tolerances:
    # unimodularity: |det - 1| above this is an error on group elements
    det: float = 1e-9
    # grid points whose conformal factor falls below this are masked
    degen: float = 1e-8
    # Gauss/Mainardi-Codazzi compatibility gate for Lax integration
    compat: float = 1e-5
    # path-independence defect of the two Lax integration sweeps
    path: float = 1e-6
    # determinant drift allowed during frame integration before the
    # integrator aborts
    drift: float = 1e-6
    # Lorentz (anti)holomorphicity residual at grid spacing 1e-2
    hol: float = 1e-4
    # denominators at or below this mark a pole, in algebra.project_h31,
    # lax._leg_data and weierstrass.projected_gauss_minimal; the Gauss-map
    # charts of gaussmaps read a pole as +-inf instead
    pole: float = 1e-10
    # conformality residual gate for second-order stencils at desk
    # resolution (h ~ 3e-2); the stencil floor is ~h^2/3 times the
    # squared-acceleration scale, so this cannot be tightened without
    # refining the grid
    conf: float = 5e-4
    # Gauss equation cross-check (two K routes); the shape-operator
    # route differences the normal field, so its error is h^2 times a
    # curvature-derivative scale and this gate suits desk resolution on
    # moderately curved windows; tighten it together with the grid
    gauss: float = 5e-3
    # second fundamental form entrywise residual at desk resolution
    sff: float = 5e-3
    # deviation of measured mean curvature from its target
    cmc: float = 5e-5
    # |Q|, |R| below this count as umbilic
    umbilic: float = 1e-4
    # quadrature target for Weierstrass antiderivatives: a Gauss-Kronrod
    # panel is accepted when |K15 - G7| <= quad * max(1, |K15|), i.e.
    # max(epsabs, epsrel * |I|) with both equal to quad (absolute below
    # |I| = 1, relative above)
    quad: float = 1e-12
    # residual statistics and exit-code gates ignore points whose
    # conformal factor is below this floor; near a degenerate curve the
    # finite-difference error grows like h^2 over the factor, so points
    # adjacent to it carry no curvature information at any tolerance
    metric_floor: float = 5e-2

    def __post_init__(self):
        # NaN or a negative bound would pass or mask every point unseen
        for f in fields(self):
            value = getattr(self, f.name)
            if not value >= 0:
                raise ValueError(f"tolerance {f.name} must be >= 0, got {value!r}")

    def with_(self, **kw):
        return replace(self, **kw)


DEFAULT_TOL = Tolerances()
