"""Spans and work counters recorded around calls into the adscmc layers.

Nothing under src/ is edited.  While installed, the tracer replaces the
public functions of each layer module, wherever the package binds them,
by wrappers that record a span: name, layer, start, end, and the span
that was open when it began.  Spans stay in memory and are reduced to
per-layer numbers when the job ends.

Functions a layer calls thousands of times from its own loops (the
field evaluations, the per-cell quadrature) get a counting wrapper
instead of a span, so that tracing costs little; their time stays in
the span of the layer that called them.
"""

import functools
import os
import time

import numpy as np

import adscmc
from adscmc import (cli, export, fields, gaussmaps, geometry, lax, nullcurves,
                    weierstrass)
from adscmc.algebra import det2

LAYERS = ("cli", "lax", "nullcurves", "weierstrass", "geometry", "gaussmaps", "export")

_MODULES = {"lax": lax, "nullcurves": nullcurves, "weierstrass": weierstrass,
            "geometry": geometry, "gaussmaps": gaussmaps, "export": export}

# public functions that get a span, wherever the package binds them
FUNCTIONS = {
    "lax": ("gmc_residual", "integrate_lax", "extract_weierstrass_data"),
    "nullcurves": ("integrate_frame", "frame_metric_grid", "assemble_mu", "assemble_nu"),
    "weierstrass": ("weierstrass_derivatives", "minimal_metric_factor",
                    "integrate_minimal", "minimal_normal", "projected_gauss_minimal"),
    "geometry": ("fundamental_data", "geometry_report", "umbilic_detect",
                 "second_form_residual", "lawson_shift_residual"),
    "gaussmaps": ("chart_coordinates", "hyperbolic_gauss", "frame_gauss_coordinates",
                  "generalized_gauss", "holomorphicity_check", "gauss_conformality_check"),
    "export": ("export_obj", "export_json", "export_csv", "export_surface", "read_json"),
}

# methods that get a span, on their class: (layer, class, names)
METHODS = (
    ("lax", lax.GmcData, ("build",)),
    ("lax", lax.LaxFrames, ("assemble",)),
    ("weierstrass", weierstrass.WeierstrassData, ("build",)),
)

# closed-form evaluations, counted with the points they cover
FIELD_METHODS = ((fields.ScalarField1D, ("__call__", "derivative")),
                 (fields.ScalarField2D, ("__call__", "with_derivatives")))

_NAME, _LAYER, _START, _END, _PARENT, _CROSSING, _HOOK = range(7)

# calls whose return value the tracer reads (health and output volume)
_READ = frozenset(("integrate_lax", "integrate_frame", "geometry_report",
                   "export_obj", "export_json", "export_csv"))


class Tracer:
    """Patches the package between begin_job and end_job."""

    def __init__(self):
        self._patches = []
        self._reset()
        modules = [adscmc, cli] + list(_MODULES.values())

        def everywhere(orig, wrapper):
            for mod in modules:
                for attr, value in vars(mod).items():
                    if value is orig:
                        self._patches.append((mod, attr, value, wrapper))

        for layer, names in FUNCTIONS.items():
            for name in names:
                orig = getattr(_MODULES[layer], name)
                everywhere(orig, self._span_wrapper(orig, layer, name))
        for layer, klass, names in METHODS:
            for name in names:
                raw = vars(klass)[name]
                label = f"{klass.__name__}.{name}"
                if isinstance(raw, classmethod):
                    wrapper = classmethod(self._span_wrapper(raw.__func__, layer, label))
                else:
                    wrapper = self._span_wrapper(raw, layer, label)
                self._patches.append((klass, name, raw, wrapper))
        for klass, names in FIELD_METHODS:
            for name in names:
                raw = vars(klass)[name]
                self._patches.append((klass, name, raw, self._field_counter(raw)))
        quad = weierstrass.adaptive_quadrature
        everywhere(quad, self._quadrature_counter(quad))

    def _reset(self):
        self.spans = []
        self._stack = []
        self._open = dict.fromkeys(LAYERS, 0)
        self._in_fields = False
        self.field_calls = 0
        self.field_points = 0
        self.quad_cells = 0
        self.quad_points = 0
        self.bytes_written = 0
        self.lax_frames = []
        self.leg_drift = []
        self.core = [0, 0]

    def _install(self):
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def _uninstall(self):
        for owner, attr, orig, _ in reversed(self._patches):
            setattr(owner, attr, orig)

    def _span_wrapper(self, fn, layer, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._call(fn, layer, name, args, kwargs)
        return wrapper

    def _field_counter(self, fn):
        """Count a field evaluation unless it is nested in another one."""
        @functools.wraps(fn)
        def counted(field, *points):
            if self._in_fields:
                return fn(field, *points)
            self._in_fields = True
            try:
                self.field_calls += 1
                self.field_points += (np.size(points[0]) if len(points) == 1
                                      else np.broadcast(*points).size)
                return fn(field, *points)
            finally:
                self._in_fields = False
        return counted

    def _quadrature_counter(self, fn):
        """Count quadrature cells and the integrand points each one costs."""
        @functools.wraps(fn)
        def counted(fun, *args, **kwargs):
            def integrand(t):
                self.quad_points += np.size(t)
                return fun(t)
            self.quad_cells += 1
            return fn(integrand, *args, **kwargs)
        return counted

    def _call(self, fn, layer, name, args, kwargs):
        is_open = self._open
        stack = self._stack
        parent = stack[-1]
        span = [name, layer, 0.0, 0.0, parent, is_open[layer] == 0, 0.0]
        stack.append(len(self.spans))
        self.spans.append(span)
        is_open[layer] += 1
        span[_START] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[_END] = time.perf_counter()
            is_open[layer] -= 1
            stack.pop()
        if name in _READ:
            t0 = time.perf_counter()
            self._read(name, result)
            # the reading is the tracer's work, not the caller's
            self.spans[parent][_HOOK] += time.perf_counter() - t0
        return result

    def _read(self, name, result):
        """Health and volume readings from a layer call's return value."""
        if name == "integrate_lax":
            self.lax_frames.append(result)
        elif name == "integrate_frame":
            self.leg_drift.append(result.det_drift)
        elif name == "geometry_report":
            self.core[0] += result.stats["n_core"]
            self.core[1] += result.stats["nu"] * result.stats["nv"]
        else:
            self.bytes_written += os.path.getsize(result)

    def begin_job(self):
        self._reset()
        self._install()
        self._open["cli"] += 1
        self.spans.append(["job", "cli", time.perf_counter(), 0.0, -1, True, 0.0])
        self._stack.append(0)

    def end_job(self, capture_s):
        """Close the job span and reduce it to per-layer numbers.

        capture_s is the time the benchmark's own output checks took
        inside the job span; it is removed from cli self time.  The
        tracer's reading of return values is already removed from the
        self time of each caller.  Returns (metrics, detail); detail
        holds the job's traced wall time and each layer's self and
        inclusive time.
        """
        self.spans[0][_END] = time.perf_counter()
        self._uninstall()
        spans = self.spans
        dur = [s[_END] - s[_START] for s in spans]
        self_time = [d - s[_HOOK] for d, s in zip(dur, spans)]
        for i, s in enumerate(spans):
            if s[_PARENT] >= 0:
                self_time[s[_PARENT]] -= dur[i]
        layer_self = dict.fromkeys(LAYERS, 0.0)
        layer_incl = dict.fromkeys(LAYERS, 0.0)
        by_name = {}
        for i, s in enumerate(spans):
            layer_self[s[_LAYER]] += self_time[i]
            if s[_CROSSING]:
                layer_incl[s[_LAYER]] += dur[i]
            by_name[s[_NAME]] = by_name.get(s[_NAME], 0.0) + dur[i]
        layer_self["cli"] -= capture_s
        wall = dur[0] - capture_s - sum(s[_HOOK] for s in spans)

        def fn(*names):
            return sum(by_name.get(n, 0.0) for n in names)

        writes = fn("export_json", "export_obj", "export_csv")
        lax_drift = [float(np.max(np.abs(det2(p) - 1.0)))
                     for f in self.lax_frames for p in (f.phi1, f.phi2)]
        metrics = {
            "fields.calls": self.field_calls,
            "fields.points": self.field_points,
            "fields.points_per_call": self.field_points / max(1, self.field_calls),
            "lax.integrate_s": fn("integrate_lax"),
            "lax.assemble_s": fn("LaxFrames.assemble"),
            "lax.path_defect": max((f.path_defect for f in self.lax_frames), default=0.0),
            "lax.det_drift": max(lax_drift, default=0.0),
            "nullcurves.integrate_s": fn("integrate_frame"),
            "nullcurves.assemble_s": fn("assemble_mu", "assemble_nu"),
            "nullcurves.det_drift": max(self.leg_drift, default=0.0),
            "weierstrass.integrate_s": fn("integrate_minimal"),
            "weierstrass.points_per_cell": self.quad_points / max(1, self.quad_cells),
            "geometry.report_s": layer_incl["geometry"],
            "geometry.core_frac": self.core[0] / max(1, self.core[1]),
            "gaussmaps.s": layer_incl["gaussmaps"],
            "export.json_write_s": fn("export_json"),
            "export.json_read_s": fn("read_json"),
            "export.obj_write_s": fn("export_obj"),
            "export.csv_write_s": fn("export_csv"),
            "export.bytes_written": self.bytes_written,
            "export.write_mb_per_s": self.bytes_written / writes / 1e6 if writes else 0.0,
            "cli.self_s": layer_self["cli"],
        }
        detail = {"wall_s": wall, "spans": len(spans),
                  "layer_self_s": layer_self, "layer_inclusive_s": layer_incl}
        self._reset()
        return metrics, detail
