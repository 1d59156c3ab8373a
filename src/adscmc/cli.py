"""Command-line drivers for building, verifying, and exporting surfaces.

Every subcommand builds or loads one surface grid, measures it, prints
the measurement statistics, and exits 0 exactly when every gated
residual is within tolerance.  The gate is GeometryReport.worst, so the
failure line always names the worst offender.

The parsed namespace is the run configuration.  Each subcommand is
declared once, in its parser block in build_parser: its flags with
their defaults, the suffixes its --out takes, and with set_defaults the
handler that runs it and, for a measuring command, the builder of its
surface.

A run is reproducible from a checked-in argument file: `adscmc cmc1
@run.args --nu 11` reads run.args, one argument per line, in place of
`@run.args`, and later arguments win; a blank line is a usage error,
not an empty argument.  Any argument that starts with "@", a path
included, is read as an argument file.
"""

import argparse
import dataclasses
import functools
import math
import os
import re
import sys

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


def _check(args):
    """Raise UsageError for a grid out of range, or an --out suffix the
    command does not write."""
    if "nu" in args:
        if args.nu < 5 or args.nv < 5:
            raise UsageError("--nu and --nv must be at least 5")
        u0, u1, v0, v1 = args.domain
        if not (all(map(math.isfinite, args.domain)) and u1 > u0 and v1 > v0):
            raise UsageError("--domain needs four finite bounds with u1 > u0 and v1 > v0")
    if args.out is not None and _suffix(args.out) not in args.formats:
        *rest, last = (f".{x}" for x in args.formats)
        names = f"{', '.join(rest)} or {last}" if rest else last
        raise UsageError(f"{args.command} --out {args.out!r} must end in {names}")


def _suffix(path):
    """The suffix of path without its dot, lower case: the format it is written in."""
    return os.path.splitext(path)[1][1:].lower()


def _print_stats(stats):
    for key, value in stats.items():
        print(f"{key} = {value!r}")


def _print_gate(ok, name, value, bound):
    """Print the gate line of an (ok, name, value, bound) verdict; return its exit status."""
    print(f"gate {name} = {value!r} bound {bound!r} -> {'pass' if ok else 'FAIL'}")
    return 0 if ok else 1


def _build_minimal(args):
    data = WeierstrassData.build(args.q, args.f, args.r, args.g)
    return integrate_minimal(data, args.domain, args.nu, args.nv, tol=args.tol), 0.0


def _build_cmc1(args):
    u0, u1, v0, v1 = args.domain
    f1 = integrate_frame(KIND_F1, args.q, args.f, (u0, u1), args.nu, tol=args.tol)
    f2 = integrate_frame(KIND_F2_MU, args.r, args.g, (v0, v1), args.nv, tol=args.tol)
    # both assemblies build F1 F2^T; the action only sets the label
    assemble = assemble_nu if args.action == "nu" else assemble_mu
    return assemble(f1, f2, tol=args.tol), -1.0 if args.flip_normal else 1.0


def _lax_surface(args):
    """The Lax frames of the (omega, H, Q, R) of args and their product surface."""
    data = GmcData.build(args.omega, args.H, args.Q, args.R)
    frames = integrate_lax(data, args.domain, args.nu, args.nv, tol=args.tol)
    return frames, frames.assemble(args.tol)


def _build_lax(args):
    frames, surface = _lax_surface(args)
    print(f"path_defect = {frames.path_defect!r}")
    return surface, -frames.data.H if args.flip_normal else frames.data.H


def _build_verify(args):
    surface, _, _ = read_surface_json(args.path)
    nu, nv = surface.shape
    print(f"loaded {args.path}: ambient {surface.ambient.lower()}, {nu}x{nv}")
    return surface, args.target_h


def _build_gallery(args):
    entry = gallery(args.name)
    surface = oracle_surface(entry, args.domain, args.nu, args.nv, tol=args.tol)
    target = float(entry.expected["H"])
    return surface, -target if args.flip_normal else target


def _cmd_measure(args):
    """Build or load the surface of args, print its statistics, export it and gate it.

    The gate is GeometryReport.worst, with the mean curvature error
    against the builder's target measured once.
    """
    surface, target_h = args.build(args)
    report = geometry_report(surface, tol=args.tol, flip_normal=args.flip_normal)
    _print_stats(report.stats)
    if args.out is not None:
        fmt = _suffix(args.out)
        projection = args.pole if fmt == "obj" and surface.ambient == "H31" else None
        export_surface(surface, projection, fmt, args.out, report=report, tol=args.tol)
        print(f"wrote {args.out}")
    h_error = None
    if target_h is not None:
        h_error = report.stats_h_error(target_h)
        print(f"max_h_error = {h_error!r}")
    return _print_gate(*report.worst(args.tol, h_error=h_error))


def _cmd_gauss(args):
    frames, surface = _lax_surface(args)
    # the frame routes run first, so the frames are freed before the
    # surface is measured, and each map is dropped once its chordal gap
    # to the surface map is read; the findings keep their key order
    hol = holomorphicity_check(frames, sign=args.sign, tol=args.tol)
    frame = frame_gauss_coordinates(frames, sign=args.sign)
    del frames
    fd = fundamental_data(surface)
    hyp = hyperbolic_gauss(fd, sign=args.sign)
    frame_gap = hyp.gap(frame)
    del frame
    gen_gap = hyp.gap(generalized_gauss(fd, sign=args.sign))
    # the chart-metric identity holds for H = 1 on the plus line and for
    # H = -1 on the minus line; on any other line it is not checked
    checked = args.H == (1.0 if args.sign == "plus" else -1.0)
    conformality = stat_max(gauss_conformality_check(fd, sign=args.sign),
                            fd.core(args.tol)) if checked else None
    findings = {
        "schema": 2,
        "command": "gauss",
        "sign": args.sign,
        "classification": hol.label,
        "max_identity_residual": hol.max_residual,
        "chordal_frame_vs_surface": frame_gap,
        "chordal_generalized_vs_surface": gen_gap,
        "max_rep_det": hyp.max_rep_det,
        "max_conformality_residual": conformality,
    }
    text = dumps(findings)
    print(text)
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.out}")

    value = findings["max_identity_residual"]
    return _print_gate(np.isfinite(value) and value <= args.tol.hol,
                       "holomorphicity_identity", value, args.tol.hol)


def _cmd_project(args):
    surface, _, _ = read_surface_json(args.path)
    if surface.ambient != "H31":
        raise UsageError("project needs a raw quadric surface (4-component vertices)")

    x = surface.points
    y = project_h31(x, args.pole, tol=args.tol)
    good = ~surface.mask & np.isfinite(y).all(axis=-1)
    # Each pole maps its own half {±x0 > 0} into the open unit indefinite
    # ball; points from the other half land outside by construction, so
    # the interior gate only ranges over the matching half.
    half = x[..., 0] > 0.0 if args.pole == "plus" else x[..., 0] < 0.0
    gated = good & half
    inside = -y[..., 0] ** 2 + y[..., 1] ** 2 + y[..., 2] ** 2
    print(f"n_matching_half = {int(np.sum(gated))}")
    print(f"n_other_half = {int(np.sum(good & ~half))}")
    worst = float(np.max(inside[gated])) if np.any(gated) else float("nan")
    print(f"max_indefinite_radius = {worst!r}")

    export_surface(surface, args.pole, _suffix(args.out), args.out, tol=args.tol, chart=y)
    print(f"wrote {args.out}")
    return _print_gate(not np.any(gated) or (np.isfinite(worst) and worst < 1.0),
                       "projection_interior", worst, 1.0)


def _add_common(sp, formats=("obj", "json", "csv"), grid=True, out_required=False):
    # every default is immutable: one parser serves every main() call
    sp.add_argument("--tol", action="append", metavar="KEY=VALUE",
                    help="tolerance override, repeatable")
    if grid:
        sp.add_argument("--domain", nargs=4, type=float, default=DEFAULT_DOMAIN,
                        metavar=("U0", "U1", "V0", "V1"))
        sp.add_argument("--nu", type=int, default=101, help="grid points in u")
        sp.add_argument("--nv", type=int, default=101, help="grid points in v")
    sp.add_argument("--out", required=out_required,
                    help="output file path; its suffix picks the format")
    sp.set_defaults(formats=formats)


def _add_weierstrass(sp):
    for flag in ("--q", "--f", "--r", "--g"):
        sp.add_argument(flag, required=True, help=f"expression for {flag[2:]}")


def _add_gmc(sp):
    sp.add_argument("--omega", required=True, help="expression for the log conformal factor")
    sp.add_argument("--H", type=float, required=True, help="constant mean curvature of the data")
    sp.add_argument("--Q", required=True, help="expression for the uu Hopf coefficient, in u")
    sp.add_argument("--R", required=True, help="expression for the vv Hopf coefficient, in v")


def _add_pole_flip(sp):
    sp.add_argument("--pole", choices=("plus", "minus"), default="plus",
                    help="projection pole for OBJ")
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
    sp.set_defaults(handler=_cmd_measure, build=_build_minimal, flip_normal=False)

    sp = sub.add_parser("cmc1", help="build a cousin surface from null-curve data")
    _add_weierstrass(sp)
    sp.add_argument("--action", choices=("mu", "nu"), default="mu",
                    help="assembly label (default mu); both build the same surface F1 F2^T")
    _add_pole_flip(sp)
    _add_common(sp)
    sp.set_defaults(handler=_cmd_measure, build=_build_cmc1)

    sp = sub.add_parser("lax", help="build a surface from (omega,H,Q,R) frame data")
    _add_gmc(sp)
    _add_pole_flip(sp)
    _add_common(sp)
    sp.set_defaults(handler=_cmd_measure, build=_build_lax)

    sp = sub.add_parser("verify", help="measure a surface stored as JSON")
    sp.add_argument("path", help="JSON surface file")
    sp.add_argument("--H", dest="target_h", type=float,
                    help="expected mean curvature (omitting it skips that gate)")
    _add_pole_flip(sp)
    _add_common(sp, grid=False)
    sp.set_defaults(handler=_cmd_measure, build=_build_verify)

    sp = sub.add_parser("gauss", help="Gauss-map grids and holomorphicity classification")
    _add_gmc(sp)
    sp.add_argument("--sign", choices=("plus", "minus"), default="plus",
                    help="which Gauss map (default plus)")
    _add_common(sp, formats=("json",))
    sp.set_defaults(handler=_cmd_gauss)

    sp = sub.add_parser("project", help="stereographic re-projection of a stored surface")
    sp.add_argument("path", help="JSON surface file")
    sp.add_argument("--pole", choices=("plus", "minus"), default="plus", help="projection pole")
    _add_common(sp, formats=("obj", "json"), grid=False, out_required=True)
    sp.set_defaults(handler=_cmd_project)

    sp = sub.add_parser("gallery", help="build a named closed-form surface and verify it")
    sp.add_argument("name", help="gallery entry name")
    _add_pole_flip(sp)
    _add_common(sp)
    sp.set_defaults(handler=_cmd_measure, build=_build_gallery)

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
    args = _parser().parse_args(argv)
    try:
        args.tol = _tolerances(args.tol or ())
        _check(args)
        return args.handler(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (CompatibilityError, IntegrationError, QuadratureError,
            ValueError, ZeroDivisionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
