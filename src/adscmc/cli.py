"""Command-line drivers for building, verifying, and exporting surfaces.

Every subcommand builds or loads one surface grid, measures it, prints
the measurement statistics, and exits 0 exactly when every gated
residual is within tolerance.  The gate is GeometryReport.worst, so the
failure line always names the worst offender.  A run is reproducible
from a checked-in argument file: `adscmc cmc1 @run.args --nu 11` reads
run.args, one argument per line, in place of `@run.args`, and later
arguments win; a blank line is a usage error, not an empty argument.
Any argument that starts with "@", a path included, is read as an
argument file.
"""

import argparse
import dataclasses
import functools
import math
import os
import re
import sys
from dataclasses import dataclass

import numpy as np

from .algebra import project_h31
from .config import DEFAULT_TOL, Tolerances
from .export import dumps, export_surface
from .export import read_json as read_surface_json
from .gallery import DEFAULT_DOMAIN, gallery, oracle_surface
from .gaussmaps import (frame_gauss_coordinates, gauss_conformality_check,
                        generalized_gauss, holomorphicity_check, hyperbolic_gauss)
from .geometry import fundamental_data, geometry_report, stat_max
from .lax import CompatibilityError, GmcData, integrate_lax
from .nullcurves import (KIND_F1, KIND_F2_MU, IntegrationError, assemble_mu,
                         assemble_nu, integrate_frame)
from .weierstrass import QuadratureError, WeierstrassData, integrate_minimal


class UsageError(Exception):
    """Bad flag value; the message names the offender."""


# the --out suffixes a command writes; the suffix picks the format
_OUT_FORMATS = {"gauss": ("json",), "project": ("obj", "json")}


@dataclass
class RunConfig:
    """Settings for one subcommand invocation: its parsed flags over these defaults."""

    command: str
    q: str = None
    f: str = None
    r: str = None
    g: str = None
    omega: str = None
    H: str = None
    Q: str = None
    R: str = None
    name: str = None
    path: str = None
    domain: tuple = DEFAULT_DOMAIN
    nu: int = 101
    nv: int = 101
    action: str = "mu"
    sign: str = "plus"
    pole: str = "plus"
    out: str = None
    substeps: int = 1
    target_h: float = None
    flip_normal: bool = False
    tol: Tolerances = DEFAULT_TOL

    def validate(self):
        if self.nu < 5 or self.nv < 5:
            raise UsageError("--nu and --nv must be at least 5")
        u0, u1, v0, v1 = self.domain
        if not (all(map(math.isfinite, self.domain)) and u1 > u0 and v1 > v0):
            raise UsageError("--domain needs four finite bounds with u1 > u0 and v1 > v0")
        if self.substeps < 1:
            raise UsageError("--substeps must be at least 1")
        formats = _OUT_FORMATS.get(self.command, ("obj", "json", "csv"))
        if self.out is not None and self.out_format not in formats:
            *rest, last = (f".{x}" for x in formats)
            names = f"{', '.join(rest)} or {last}" if rest else last
            raise UsageError(f"{self.command} --out {self.out!r} must end in {names}")

    @property
    def out_format(self):
        """The --out suffix without its dot, lower case."""
        return os.path.splitext(self.out)[1][1:].lower()


_TOL_KEYS = {f.name for f in dataclasses.fields(Tolerances)}


def _tolerances(pairs):
    """DEFAULT_TOL with the --tol KEY=VALUE overrides applied in order."""
    out = {}
    for item in pairs:
        key, sep, value = item.partition("=")
        if not sep:
            raise UsageError(f"--tol needs KEY=VALUE, got {item!r}")
        if key not in _TOL_KEYS:
            raise UsageError(f"unknown tolerance key {key!r}")
        try:
            out[key] = float(value)
        except ValueError:
            raise UsageError(f"tolerance {key} needs a number, got {value!r}") from None
    try:
        return DEFAULT_TOL.with_(**out)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _merge_config(ns):
    """The validated RunConfig of the parsed flags; a flag left unset
    keeps its RunConfig default."""
    merged = {key: value for key, value in vars(ns).items() if value is not None}
    merged["tol"] = _tolerances(ns.tol or [])
    if "domain" in merged:
        merged["domain"] = tuple(merged["domain"])
    cfg = RunConfig(**merged)
    cfg.validate()
    return cfg


def _print_stats(stats):
    for key, value in stats.items():
        print(f"{key} = {value!r}")


def _print_gate(ok, name, value, bound):
    """Print the gate line of an (ok, name, value, bound) verdict; return its exit status."""
    print(f"gate {name} = {value!r} bound {bound!r} -> {'pass' if ok else 'FAIL'}")
    return 0 if ok else 1


def _build_minimal(cfg):
    data = WeierstrassData.build(cfg.q, cfg.f, cfg.r, cfg.g)
    return integrate_minimal(data, cfg.domain, cfg.nu, cfg.nv, tol=cfg.tol), 0.0


def _build_cmc1(cfg):
    u0, u1, v0, v1 = cfg.domain
    f1 = integrate_frame(KIND_F1, cfg.q, cfg.f, (u0, u1), cfg.nu,
                         substeps=cfg.substeps, tol=cfg.tol)
    f2 = integrate_frame(KIND_F2_MU, cfg.r, cfg.g, (v0, v1), cfg.nv,
                         substeps=cfg.substeps, tol=cfg.tol)
    # both assemblies build F1 F2^T; the action only sets the label
    assemble = assemble_nu if cfg.action == "nu" else assemble_mu
    return assemble(f1, f2, tol=cfg.tol), -1.0 if cfg.flip_normal else 1.0


def _lax_surface(cfg):
    """The Lax frames of cfg's (omega, H, Q, R) and their product surface."""
    data = GmcData.build(cfg.omega, cfg.H, cfg.Q, cfg.R)
    frames = integrate_lax(data, cfg.domain, cfg.nu, cfg.nv,
                           substeps=cfg.substeps, tol=cfg.tol)
    return frames, frames.assemble(cfg.tol)


def _build_lax(cfg):
    frames, surface = _lax_surface(cfg)
    print(f"path_defect = {frames.path_defect!r}")
    return surface, -frames.data.H if cfg.flip_normal else frames.data.H


def _build_verify(cfg):
    surface, _, _ = read_surface_json(cfg.path)
    nu, nv = surface.shape
    print(f"loaded {cfg.path}: ambient {surface.ambient.lower()}, {nu}x{nv}")
    return surface, cfg.target_h


def _build_gallery(cfg):
    entry = gallery(cfg.name)
    surface = oracle_surface(entry, cfg.domain, cfg.nu, cfg.nv, tol=cfg.tol)
    target = float(entry.expected["H"])
    return surface, -target if cfg.flip_normal else target


# the subcommands that build or load one surface and measure it; each
# builder returns the surface and its target mean curvature (None: no
# mean curvature gate)
_BUILDERS = {
    "minimal": _build_minimal,
    "cmc1": _build_cmc1,
    "lax": _build_lax,
    "verify": _build_verify,
    "gallery": _build_gallery,
}


def _cmd_measure(cfg):
    """Build cfg's surface, print its statistics, export it and gate it.

    The gate is GeometryReport.worst, with the mean curvature error
    against the builder's target measured once.
    """
    surface, target_h = _BUILDERS[cfg.command](cfg)
    report = geometry_report(surface, tol=cfg.tol, flip_normal=cfg.flip_normal)
    _print_stats(report.stats)
    if cfg.out is not None:
        projection = None
        if cfg.out_format == "obj" and surface.ambient == "H31":
            projection = cfg.pole
        export_surface(surface, projection, cfg.out_format, cfg.out,
                       report=report, tol=cfg.tol)
        print(f"wrote {cfg.out}")
    h_error = None
    if target_h is not None:
        h_error = report.stats_h_error(target_h)
        print(f"max_h_error = {h_error!r}")
    return _print_gate(*report.worst(cfg.tol, target_h=target_h, h_error=h_error))


def _cmd_gauss(cfg):
    frames, surface = _lax_surface(cfg)
    fd = fundamental_data(surface, tol=cfg.tol)
    core = fd.core(cfg.tol)

    hol = holomorphicity_check(frames, sign=cfg.sign, tol=cfg.tol)
    hyp = hyperbolic_gauss(fd, sign=cfg.sign, tol=cfg.tol)
    frm = frame_gauss_coordinates(frames, sign=cfg.sign, tol=cfg.tol)
    gen = generalized_gauss(fd, sign=cfg.sign, tol=cfg.tol)
    conf = gauss_conformality_check(fd, sign=cfg.sign, tol=cfg.tol)

    def chart_gap(a, b):
        sel = a.valid() & b.valid()
        return max(stat_max(a.g1 - b.g1, sel), stat_max(a.g2 - b.g2, sel))

    findings = {
        "schema": 1,
        "command": "gauss",
        "sign": cfg.sign,
        "classification": hol.label,
        "max_identity_residual": hol.max_residual(),
        "chart_frame_vs_surface": chart_gap(frm, hyp),
        "chart_generalized_vs_surface": chart_gap(gen, hyp),
        "max_rep_det": max(hyp.max_rep_det(), gen.max_rep_det()),
        "max_conformality_residual": stat_max(conf, core),
        "chart_spread": list(hyp.spread()),
    }
    text = dumps(findings)
    print(text)
    if cfg.out is not None:
        with open(cfg.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text + "\n")
        print(f"wrote {cfg.out}")

    value = findings["max_identity_residual"]
    return _print_gate(np.isfinite(value) and value <= cfg.tol.hol,
                       "holomorphicity_identity", value, cfg.tol.hol)


def _cmd_project(cfg):
    surface, _, _ = read_surface_json(cfg.path)
    if surface.ambient != "H31":
        raise UsageError("project needs a raw quadric surface (4-component vertices)")

    x = surface.points
    y = project_h31(x, cfg.pole, tol=cfg.tol)
    good = ~surface.mask & np.isfinite(y).all(axis=-1)
    # Each pole maps its own half {±x0 > 0} into the open unit indefinite
    # ball; points from the other half land outside by construction, so
    # the interior gate only ranges over the matching half.
    half = x[..., 0] > 0.0 if cfg.pole == "plus" else x[..., 0] < 0.0
    gated = good & half
    inside = -y[..., 0] ** 2 + y[..., 1] ** 2 + y[..., 2] ** 2
    print(f"n_matching_half = {int(np.sum(gated))}")
    print(f"n_other_half = {int(np.sum(good & ~half))}")
    worst = float(np.max(inside[gated])) if np.any(gated) else float("nan")
    print(f"max_indefinite_radius = {worst!r}")

    export_surface(surface, cfg.pole, cfg.out_format, cfg.out, tol=cfg.tol, chart=y)
    print(f"wrote {cfg.out}")
    return _print_gate(not np.any(gated) or (np.isfinite(worst) and worst < 1.0),
                       "projection_interior", worst, 1.0)


_DISPATCH = {**dict.fromkeys(_BUILDERS, _cmd_measure),
             "gauss": _cmd_gauss, "project": _cmd_project}


def _add_common(sp, grid=True, out_required=False):
    sp.add_argument("--tol", action="append", metavar="KEY=VALUE",
                    help="tolerance override, repeatable")
    if grid:
        sp.add_argument("--domain", nargs=4, type=float,
                        metavar=("U0", "U1", "V0", "V1"))
        sp.add_argument("--nu", type=int, help="grid points in u")
        sp.add_argument("--nv", type=int, help="grid points in v")
    sp.add_argument("--out", required=out_required,
                    help="output file path; its suffix picks the format")


def _add_weierstrass(sp):
    for flag in ("--q", "--f", "--r", "--g"):
        sp.add_argument(flag, required=True, help=f"expression for {flag[2:]}")


def _add_gmc(sp):
    sp.add_argument("--omega", required=True, help="expression for the log conformal factor")
    sp.add_argument("--H", type=float, required=True, help="constant mean curvature of the data")
    sp.add_argument("--Q", required=True, help="expression for the uu Hopf coefficient, in u")
    sp.add_argument("--R", required=True, help="expression for the vv Hopf coefficient, in v")
    sp.add_argument("--substeps", type=int, help="Magnus substeps per grid cell")


def _add_flip(sp):
    sp.add_argument("--flip-normal", action="store_true", help="reverse the normal orientation")


class _ArgumentParser(argparse.ArgumentParser):
    """argparse with the one-argument-per-line @FILE rule, minus blank lines."""

    def convert_arg_line_to_args(self, arg_line):
        # argparse would pass a blank line on as an empty argument and
        # reject it with "unrecognized arguments: ", naming nothing
        if not arg_line.strip():
            self.error("a blank line in an @FILE is not an argument; remove it")
        return [arg_line]


def build_parser():
    parser = _ArgumentParser(
        prog="adscmc", fromfile_prefix_chars="@",
        description="Timelike constant mean curvature surfaces in the "
                    "unimodular quadric and their flat-space minimal cousins.",
        epilog="An argument @FILE is replaced by the lines of FILE, one argument "
               "per line, none of them blank; later arguments win.  Any argument "
               "that starts with @, a path included, is read as an argument file.  "
               "An expression that starts with - is joined to its flag: --Q=-u.")
    sub = parser.add_subparsers(dest="command", metavar="command")
    sub.required = True

    sp = sub.add_parser("minimal", help="build and verify a minimal surface from (q,f,r,g)")
    _add_weierstrass(sp)
    _add_common(sp)

    sp = sub.add_parser("cmc1", help="build a cousin surface from null-curve data")
    _add_weierstrass(sp)
    sp.add_argument("--action", choices=("mu", "nu"),
                    help="assembly label (default mu); both build the same surface F1 F2^T")
    sp.add_argument("--substeps", type=int, help="Magnus substeps per grid cell")
    sp.add_argument("--pole", choices=("plus", "minus"), help="projection pole for OBJ")
    _add_flip(sp)
    _add_common(sp)

    sp = sub.add_parser("lax", help="build a surface from (omega,H,Q,R) frame data")
    _add_gmc(sp)
    sp.add_argument("--pole", choices=("plus", "minus"), help="projection pole for OBJ")
    _add_flip(sp)
    _add_common(sp)

    sp = sub.add_parser("verify", help="measure a surface stored as JSON")
    sp.add_argument("path", help="JSON surface file")
    sp.add_argument("--H", dest="target_h", type=float,
                    help="expected mean curvature (omitting it skips that gate)")
    sp.add_argument("--pole", choices=("plus", "minus"))
    _add_flip(sp)
    _add_common(sp, grid=False)

    sp = sub.add_parser("gauss", help="Gauss-map grids and holomorphicity classification")
    _add_gmc(sp)
    sp.add_argument("--sign", choices=("plus", "minus"), help="which Gauss map (default plus)")
    _add_common(sp)

    sp = sub.add_parser("project", help="stereographic re-projection of a stored surface")
    sp.add_argument("path", help="JSON surface file")
    sp.add_argument("--pole", choices=("plus", "minus"), help="projection pole")
    _add_common(sp, grid=False, out_required=True)

    sp = sub.add_parser("gallery", help="build a named closed-form surface and verify it")
    sp.add_argument("name", help="gallery entry name")
    sp.add_argument("--pole", choices=("plus", "minus"), help="projection pole for OBJ")
    _add_flip(sp)
    _add_common(sp)

    # read -1e-3 as a value, not a flag: argparse's own rule (Python 3.11)
    # takes only -12 and -1.5, and each parser keeps its own copy of it
    for p in (parser, *sub.choices.values()):
        p._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")
    return parser


@functools.cache
def _parser():
    # argparse keeps no state of a parse in the parser, so one instance
    # serves every main() call of a process
    return build_parser()


def main(argv=None):
    parser = _parser()
    ns = parser.parse_args(argv)
    try:
        cfg = _merge_config(ns)
        return _DISPATCH[cfg.command](cfg)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (CompatibilityError, IntegrationError, QuadratureError,
            ValueError, ZeroDivisionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
