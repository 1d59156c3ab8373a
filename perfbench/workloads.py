"""The benchmark's workloads and the closed-form checks on their outputs.

Every workload uses the Liouville/Enneper family

    omega = 2 ln(1 + u v),   H = 1,   (Q, R) = (1, 1),   (q, f, r, g) = (u, 1, v, 1),

whose conformal factor (1 + u v)^2 never falls below 1 on the offset
domains used here.  That gives exact oracles for every job: omega and H
at each point, and a core (interior points with a valid metric) that is
exactly the grid minus its outer ring.  The seed only picks the domain
offsets a, b in [0, 0.1]; the program receives the generated domain.
"""

import math
import random
import re
from dataclasses import dataclass, field

import numpy as np

OMEGA = "2*ln(1+u*v)"
MAX_OFFSET = 0.1
SPAN = 0.9
# the square every seed's domain contains
WINDOW = (MAX_OFFSET, SPAN)

WORKLOADS = ("lax-frames", "nullcurve-files", "minimal-strip")

# the residual gates of GeometryReport.worst, each with its tolerance field;
# its mean curvature gate is added from the closed form of H
RESIDUAL_GATES = (("conf_u", "conf"), ("conf_v", "conf"), ("gauss_eq", "gauss"),
                  ("sff", "sff"))
# printed gates that measure a residual but have no per-point field to window
PRINTED_RESIDUAL_GATES = ("holomorphicity_identity",)

_STAT = re.compile(r"^(\w+) = (.+)$")
_GATE = re.compile(r"^gate (\w+) = (\S+) bound (\S+) -> (pass|FAIL)$")


def domain_for_seed(seed):
    """(u0, u1, v0, v1) with offsets a, b drawn from [0, 0.1]."""
    rng = random.Random(seed)
    a = rng.uniform(0.0, MAX_OFFSET)
    b = rng.uniform(0.0, MAX_OFFSET)
    return (a, a + SPAN, b, b + SPAN)


@dataclass
class Command:
    """One CLI invocation of a job and what its output must satisfy."""

    argv: list
    nu: int
    nv: int
    h_star: float = None        # closed-form mean curvature; None: no surface measured
    path_defect: bool = False   # stdout carries the Lax sweep defect
    gauss: bool = False         # stdout carries the Gauss-map findings
    projection: bool = False    # stdout carries the projection interior gate
    writes: str = None          # output file name, checked after the job

    @property
    def points(self):
        return self.nu * self.nv


@dataclass
class Job:
    commands: list

    @property
    def points(self):
        return sum(c.points for c in self.commands)


def _grid(domain, nu, nv):
    u0, u1, v0, v1 = domain
    return ["--domain", repr(u0), repr(u1), repr(v0), repr(v1),
            "--nu", str(nu), "--nv", str(nv)]


def build_job(workload, seed, workdir):
    """The job a workload repeats, with output paths inside workdir."""
    dom = domain_for_seed(seed)
    gmc = [f"--omega={OMEGA}", "--H", "1", "--Q", "1", "--R", "1"]
    wei = ["--q", "u", "--f", "1", "--r", "v", "--g", "1"]
    if workload == "lax-frames":
        n = 201
        return Job([
            Command(["lax", *gmc, *_grid(dom, n, n)], n, n, h_star=1.0, path_defect=True),
            Command(["gauss", *gmc, *_grid(dom, n, n)], n, n, h_star=1.0, gauss=True),
        ])
    if workload == "nullcurve-files":
        n = 301
        js, obj, csv = (f"{workdir}/a.{ext}" for ext in ("json", "obj", "csv"))
        return Job([
            Command(["cmc1", *wei, *_grid(dom, n, n), "--out", js], n, n,
                    h_star=1.0, writes=js),
            Command(["verify", js, "--H", "1"], n, n, h_star=1.0),
            Command(["project", js, "--pole", "plus", "--out", obj], n, n,
                    projection=True, writes=obj),
            Command(["cmc1", *wei, "--action", "nu", *_grid(dom, n, n), "--out", csv],
                    n, n, h_star=1.0, writes=csv),
        ])
    if workload == "minimal-strip":
        nu, nv = 4001, 41
        return Job([
            Command(["minimal", *wei, *_grid(dom, nu, nv)], nu, nv, h_star=0.0),
        ])
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


@dataclass
class Verdict:
    """Checks of one command; problems is empty when every check passed."""

    problems: list = field(default_factory=list)
    gate_ratio: float = 0.0
    oracle_err: float = 0.0

    def need(self, ok, message):
        if not ok:
            self.problems.append(message)


def oracle(fd, domain, nu, nv, h_star, tol):
    """Max errors of a measured surface against the closed forms.

    Returns (omega_err, h_err, n_core, window_err, window_gate).  The
    first two range over the whole core and feed the checks.  The last
    two range over the core points inside [0.1, 0.9]^2 and feed the
    reported metrics: window_err is the larger of the two oracle errors
    there, window_gate the worst ratio of a residual gate to its
    tolerance there.  Every seed's domain contains that square and the
    grid spacing does not depend on the seed, so both vary with the seed
    by little more than a grid step.  The core is the program's own
    point selection; the caller checks that it is exactly the interior.
    """
    u0, u1, v0, v1 = domain
    us = np.linspace(u0, u1, nu)[:, None]
    vs = np.linspace(v0, v1, nv)[None, :]
    core = fd.core(tol) & np.isfinite(fd.omega) & np.isfinite(fd.H)
    if not core.any():
        return math.inf, math.inf, 0, math.inf, math.inf
    omega_gap = np.abs(fd.omega - 2.0 * np.log1p(us * vs))
    h_gap = np.abs(fd.H - h_star)
    lo, hi = WINDOW
    window = core & (us >= lo) & (us <= hi) & (vs >= lo) & (vs <= hi)
    window_err = max(float(np.max(omega_gap[window])), float(np.max(h_gap[window])))
    residuals = [(getattr(fd, name), getattr(tol, bound)) for name, bound in RESIDUAL_GATES]
    residuals.append((h_gap, tol.cmc))
    window_gate = max(float(np.max(np.abs(a[window]), initial=0.0,
                                   where=np.isfinite(a[window]))) / bound
                      for a, bound in residuals)
    return (float(np.max(omega_gap[core])), float(np.max(h_gap[core])),
            int(core.sum()), window_err, window_gate)


def check_command(cmd, rc, stdout, measured, tol):
    """Check one command's exit code, printed output and measured surfaces.

    measured holds the oracle() errors of every surface the command
    measured, captured at the CLI's calls into geometry.
    """
    v = Verdict()
    v.need(rc == 0, f"{cmd.argv[0]}: exit code {rc}")
    stats = {}
    gates = []
    for line in stdout.splitlines():
        g = _GATE.match(line)
        if g:
            gates.append((g.group(1), float(g.group(2)), float(g.group(3)), g.group(4)))
            continue
        s = _STAT.match(line)
        if s:
            stats[s.group(1)] = s.group(2)
    v.need(bool(gates), f"{cmd.argv[0]}: no gate line printed")
    for name, value, bound, verdict in gates:
        v.need(verdict == "pass", f"{cmd.argv[0]}: gate {name} failed")
        if name in PRINTED_RESIDUAL_GATES:
            ratio = value / bound if math.isfinite(value) else math.inf
            v.gate_ratio = max(v.gate_ratio, ratio)
        if cmd.projection and name == "projection_interior":
            v.need(value < 1.0, f"project: interior radius {value!r} not below 1")
    if cmd.projection:
        v.need(any(g[0] == "projection_interior" for g in gates),
               "project: no projection_interior gate")
    if cmd.path_defect:
        defect = float(stats.get("path_defect", "inf"))
        v.need(defect <= tol.path, f"lax: path defect {defect!r} above {tol.path!r}")
    if cmd.gauss:
        found = re.search(r'"classification":"(\w+)"', stdout)
        label = found.group(1) if found else None
        v.need(label == "none", f"gauss: classification {label!r}, expected 'none'")
    if cmd.h_star is not None:
        if "h_median" in stats:
            h_med = float(stats["h_median"])
            v.need(abs(h_med - cmd.h_star) <= tol.cmc,
                   f"{cmd.argv[0]}: h_median {h_med!r} not within {tol.cmc!r} of {cmd.h_star}")
        v.need(len(measured) == 1, f"{cmd.argv[0]}: measured {len(measured)} surfaces, expected 1")
        interior = (cmd.nu - 2) * (cmd.nv - 2)
        for omega_err, h_err, n_core, window_err, window_gate in measured:
            v.oracle_err = max(v.oracle_err, window_err)
            v.gate_ratio = max(v.gate_ratio, window_gate)
            v.need(n_core == interior,
                   f"{cmd.argv[0]}: {n_core} core points, expected the {interior} interior points")
            v.need(h_err <= tol.cmc, f"{cmd.argv[0]}: max |H - {cmd.h_star}| = {h_err!r}")
            v.need(omega_err <= tol.conf,
                   f"{cmd.argv[0]}: max |omega - 2 ln(1+uv)| = {omega_err!r}")
    return v


def check_file(cmd):
    """Check a written file by its line count, which the grid fixes."""
    with open(cmd.writes, "rb") as fh:
        lines = fh.read().count(b"\n")
    nu, nv = cmd.nu, cmd.nv
    if cmd.writes.endswith(".obj"):
        # every vertex, and two triangles per cell: no point is masked
        want = nu * nv + 2 * (nu - 1) * (nv - 1)
    elif cmd.writes.endswith(".csv"):
        # header plus every point where the two-ring curvature stencil reaches
        want = 1 + (nu - 4) * (nv - 4)
    else:
        want = 1
    if lines != want:
        return [f"{cmd.writes}: {lines} lines, expected {want}"]
    return []
