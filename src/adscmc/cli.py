"""Command-line drivers for building, verifying, and exporting surfaces.

Every subcommand builds or loads one surface grid, measures it, prints
the measurement statistics, and exits 0 exactly when every gated
residual is within tolerance.  The gate is GeometryReport.worst, so the
failure line always names the worst offender.  Configuration can come
from flags or from a JSON manifest (flags win), which keeps runs
reproducible from a single checked-in file.
"""

import argparse
import dataclasses
import functools
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from .algebra import project_h31
from .config import DEFAULT_TOL, Tolerances
from .export import _dumps, export_surface
from .export import read_json as read_surface_json
from .gallery import DEFAULT_DOMAIN, gallery, oracle_surface
from .gaussmaps import (frame_gauss_coordinates, gauss_conformality_check,
                        generalized_gauss, holomorphicity_check, hyperbolic_gauss)
from .geometry import fundamental_data, geometry_report
from .lax import CompatibilityError, GmcData, integrate_lax
from .nullcurves import (KIND_F1, KIND_F2_MU, IntegrationError, assemble_mu,
                         assemble_nu, integrate_frame)
from .weierstrass import QuadratureError, WeierstrassData, integrate_minimal


class UsageError(Exception):
    """Bad flag or config value; the message names the offender."""


# the --out suffixes a command writes; the suffix picks the format
_OUT_FORMATS = {"gauss": ("json",), "project": ("obj", "json")}


@dataclass
class RunConfig:
    """Merged settings for one subcommand invocation."""

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
        if not (u1 > u0 and v1 > v0):
            raise UsageError("--domain must satisfy u1 > u0 and v1 > v0")
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


def _parse_tol_overrides(pairs):
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
    return out


def _flag_value(action, key, value):
    """Convert a JSON scalar as argparse converts the same text given as the flag."""
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise UsageError(f"config key {key!r} needs a string or a number, got {value!r}")
    text = value if isinstance(value, str) else repr(value)
    try:
        out = text if action.type is None else action.type(text)
    except ValueError:
        raise UsageError(f"config key {key!r}: invalid {action.type.__name__} "
                         f"value {text!r}") from None
    if action.choices is not None and out not in action.choices:
        raise UsageError(f"config key {key!r}: {text!r} is not one of {', '.join(action.choices)}")
    return out


def _check_config(key, value, action):
    """A config value, accepted exactly when its flag accepts the same text."""
    if key == "tol":
        if not isinstance(value, dict):
            raise UsageError(f"config key 'tol' needs an object, got {value!r}")
        return _parse_tol_overrides(f"{k}={_flag_value(action, k, v)}" for k, v in value.items())
    if action.nargs == 0:
        # a switch such as --flip-normal is a JSON boolean in a config
        if not isinstance(value, bool):
            raise UsageError(f"config key {key!r} needs true or false, got {value!r}")
        return value
    if not isinstance(action.nargs, int):
        return _flag_value(action, key, value)
    if not isinstance(value, list) or len(value) != action.nargs:
        raise UsageError(f"config key {key!r} needs a list of {action.nargs} values, got {value!r}")
    return [_flag_value(action, key, x) for x in value]


def _merge_config(ns, parser):
    """Flags > config file > RunConfig defaults.

    A config file may set any option of the subcommand, and a value is
    accepted exactly when its flag would accept the same text.
    """
    flags = {k: v for k, v in vars(ns).items() if k not in ("command", "config")}
    manifest = {}
    if ns.config:
        try:
            with open(ns.config, encoding="utf-8") as fh:
                manifest = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read --config {ns.config}: {exc}") from None
        if not isinstance(manifest, dict):
            raise UsageError("--config must hold a JSON object")
        for key in manifest:
            if key not in flags:
                raise UsageError(f"unknown config key {key!r} for {ns.command}")
        sub = next(a for a in parser._actions if a.dest == "command")
        actions = {a.dest: a for a in sub.choices[ns.command]._actions}
        manifest = {key: _check_config(key, value, actions[key])
                    for key, value in manifest.items() if value is not None}

    merged = {"command": ns.command}
    for key, flag in flags.items():
        if key == "tol":
            continue
        if flag is None:
            flag = manifest.get(key)
        if flag is not None:
            merged[key] = flag

    overrides = manifest.get("tol", {})
    overrides.update(_parse_tol_overrides(ns.tol or []))
    merged["tol"] = DEFAULT_TOL.with_(**overrides)

    if "domain" in merged:
        merged["domain"] = tuple(merged["domain"])
    cfg = RunConfig(**merged)
    cfg.validate()
    return cfg


def _require(cfg, *names):
    for name in names:
        if getattr(cfg, name) is None:
            raise UsageError(f"--{name} is required for {cfg.command}")


def _print_stats(stats):
    for key, value in stats.items():
        print(f"{key} = {value!r}")


def _print_gate(ok, name, value, bound):
    """Print the gate line of an (ok, name, value, bound) verdict; return its exit status."""
    print(f"gate {name} = {value!r} bound {bound!r} -> {'pass' if ok else 'FAIL'}")
    return 0 if ok else 1


def _gate(report, cfg, target_h):
    h_error = None
    if target_h is not None:
        h_error = report.stats_h_error(target_h)
        print(f"max_h_error = {h_error!r}")
    return _print_gate(*report.worst(cfg.tol, target_h=target_h, h_error=h_error))


def _export(cfg, surface, report):
    if cfg.out is None:
        return
    fmt = cfg.out_format
    projection = None
    if fmt == "obj" and surface.ambient.name == "H31":
        projection = cfg.pole
    export_surface(surface, projection, fmt, cfg.out,
                   report=report, fd=report.fd if report else None, tol=cfg.tol)
    print(f"wrote {cfg.out}")


def _finish(cfg, surface, report, target_h):
    _print_stats(report.to_dict())
    _export(cfg, surface, report)
    return _gate(report, cfg, target_h)


def _cmd_minimal(cfg):
    _require(cfg, "q", "f", "r", "g")
    data = WeierstrassData.build(cfg.q, cfg.f, cfg.r, cfg.g)
    surface = integrate_minimal(data, cfg.domain, cfg.nu, cfg.nv, tol=cfg.tol)
    report = geometry_report(surface, tol=cfg.tol)
    return _finish(cfg, surface, report, target_h=0.0)


def _cmd_cmc1(cfg):
    _require(cfg, "q", "f", "r", "g")
    u0, u1, v0, v1 = cfg.domain
    f1 = integrate_frame(KIND_F1, cfg.q, cfg.f, (u0, u1), cfg.nu,
                         substeps=cfg.substeps, tol=cfg.tol)
    f2 = integrate_frame(KIND_F2_MU, cfg.r, cfg.g, (v0, v1), cfg.nv,
                         substeps=cfg.substeps, tol=cfg.tol)
    # both assemblies build F1 F2^T; the action only sets the label
    assemble = assemble_nu if cfg.action == "nu" else assemble_mu
    surface = assemble(f1, f2, tol=cfg.tol)
    target = -1.0 if cfg.flip_normal else 1.0
    report = geometry_report(surface, tol=cfg.tol, flip_normal=cfg.flip_normal)
    return _finish(cfg, surface, report, target_h=target)


def _cmd_lax(cfg):
    _require(cfg, "omega", "H", "Q", "R")
    data = GmcData.build(cfg.omega, cfg.H, cfg.Q, cfg.R)
    frames = integrate_lax(data, cfg.domain, cfg.nu, cfg.nv,
                           substeps=cfg.substeps, tol=cfg.tol)
    print(f"path_defect = {frames.path_defect!r}")
    surface = frames.assemble(cfg.tol)
    target = -data.H if cfg.flip_normal else data.H
    report = geometry_report(surface, tol=cfg.tol, flip_normal=cfg.flip_normal)
    return _finish(cfg, surface, report, target_h=target)


def _cmd_verify(cfg):
    _require(cfg, "path")
    surface, meta, _ = read_surface_json(cfg.path)
    print(f"loaded {cfg.path}: ambient {surface.ambient.name.lower()}, "
          f"{meta['nu']}x{meta['nv']}")
    report = geometry_report(surface, tol=cfg.tol, flip_normal=cfg.flip_normal)
    return _finish(cfg, surface, report, target_h=cfg.target_h)


def _cmd_gauss(cfg):
    _require(cfg, "omega", "H", "Q", "R")
    data = GmcData.build(cfg.omega, cfg.H, cfg.Q, cfg.R)
    frames = integrate_lax(data, cfg.domain, cfg.nu, cfg.nv,
                           substeps=cfg.substeps, tol=cfg.tol)
    surface = frames.assemble(cfg.tol)
    fd = fundamental_data(surface, tol=cfg.tol)
    core = fd.core(cfg.tol)

    hol = holomorphicity_check(frames, sign=cfg.sign, tol=cfg.tol)
    hyp = hyperbolic_gauss(surface, fd, sign=cfg.sign, tol=cfg.tol)
    frm = frame_gauss_coordinates(frames, sign=cfg.sign, tol=cfg.tol)
    gen_plus, gen_minus = generalized_gauss(surface, fd, tol=cfg.tol)
    gen = gen_plus if cfg.sign == "plus" else gen_minus
    conf = gauss_conformality_check(surface, fd, sign=cfg.sign, tol=cfg.tol)

    def chart_gap(a, b):
        sel = a.valid() & b.valid()
        if not np.any(sel):
            return float("nan")
        return max(float(np.max(np.abs(a.g1[sel] - b.g1[sel]))),
                   float(np.max(np.abs(a.g2[sel] - b.g2[sel]))))

    findings = {
        "schema": 1,
        "command": "gauss",
        "sign": cfg.sign,
        "classification": hol.label,
        "max_identity_residual": hol.max_residual(),
        "chart_frame_vs_surface": chart_gap(frm, hyp),
        "chart_generalized_vs_surface": chart_gap(gen, hyp),
        "max_rep_det": max(hyp.max_rep_det(), gen.max_rep_det()),
        "max_conformality_residual": (
            float(np.max(conf[core & np.isfinite(conf)]))
            if np.any(core & np.isfinite(conf)) else float("nan")),
        "chart_spread": list(hyp.spread()),
    }
    text = _dumps(findings)
    print(text)
    if cfg.out is not None:
        with open(cfg.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text + "\n")
        print(f"wrote {cfg.out}")

    value = findings["max_identity_residual"]
    return _print_gate(np.isfinite(value) and value <= cfg.tol.hol,
                       "holomorphicity_identity", value, cfg.tol.hol)


def _cmd_project(cfg):
    _require(cfg, "path", "out")
    surface, meta, _ = read_surface_json(cfg.path)
    if surface.ambient.name != "H31":
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


def _cmd_gallery(cfg):
    _require(cfg, "name")
    entry = gallery(cfg.name)
    surface = oracle_surface(entry, cfg.domain, cfg.nu, cfg.nv, tol=cfg.tol)
    target = float(entry.expected["H"])
    if cfg.flip_normal:
        target = -target
    report = geometry_report(surface, tol=cfg.tol, flip_normal=cfg.flip_normal)
    return _finish(cfg, surface, report, target_h=target)


_DISPATCH = {
    "minimal": _cmd_minimal,
    "cmc1": _cmd_cmc1,
    "lax": _cmd_lax,
    "verify": _cmd_verify,
    "gauss": _cmd_gauss,
    "project": _cmd_project,
    "gallery": _cmd_gallery,
}


def _add_common(sp, grid=True):
    sp.add_argument("--config", help="JSON manifest of flag values; explicit flags win")
    sp.add_argument("--tol", action="append", metavar="KEY=VALUE",
                    help="tolerance override, repeatable")
    if grid:
        sp.add_argument("--domain", nargs=4, type=float,
                        metavar=("U0", "U1", "V0", "V1"))
        sp.add_argument("--nu", type=int, help="grid points in u")
        sp.add_argument("--nv", type=int, help="grid points in v")
    sp.add_argument("--out", help="output file path; its suffix picks the format")


def _add_weierstrass(sp):
    for flag in ("--q", "--f", "--r", "--g"):
        sp.add_argument(flag, help=f"expression for {flag[2:]}")


def _add_gmc(sp):
    sp.add_argument("--omega", help="expression for the log conformal factor")
    sp.add_argument("--H", type=float, help="constant mean curvature of the data")
    sp.add_argument("--Q", help="expression for the uu Hopf coefficient, in u")
    sp.add_argument("--R", help="expression for the vv Hopf coefficient, in v")
    sp.add_argument("--substeps", type=int, help="Magnus substeps per grid cell")


def _add_flip(sp):
    sp.add_argument("--flip-normal", dest="flip_normal", action="store_const",
                    const=True, help="reverse the normal orientation")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="adscmc",
        description="Timelike constant mean curvature surfaces in the "
                    "unimodular quadric and their flat-space minimal cousins.")
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
    sp.add_argument("path", nargs="?", help="JSON surface file")
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
    sp.add_argument("path", nargs="?", help="JSON surface file")
    sp.add_argument("--pole", choices=("plus", "minus"), help="projection pole")
    _add_common(sp, grid=False)

    sp = sub.add_parser("gallery", help="build a named closed-form surface and verify it")
    sp.add_argument("name", nargs="?", help="gallery entry name")
    sp.add_argument("--pole", choices=("plus", "minus"), help="projection pole for OBJ")
    _add_flip(sp)
    _add_common(sp)

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
        cfg = _merge_config(ns, parser)
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
