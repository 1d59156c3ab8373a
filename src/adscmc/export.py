"""Deterministic file formats: OBJ meshes, JSON grids, CSV reports.

Floats are printed as %.17g, which round-trips float64 exactly, and files
always use "\\n" line endings, so identical inputs produce identical
bytes on every platform.  The JSON layout is

    {"schema": 1,
     "meta": {"domain": [u0, u1, v0, v1], "nu": .., "nv": ..,
              "ambient": "h31" | "e31", "assembly": ..},
     "vertices": [[..4 or 3 reals..], ..],   # row-major over the grid
     "mask": [true/false, ..],               # present when any point masked
     "report": {..}}                          # optional statistics

"ambient" is the surface's AmbientSpec.name in lower case.  Quadric
surfaces are stored with their four ambient components unless a
projection pole is requested; 3-space surfaces always store three.  A
projected file keeps "ambient": "h31", adds "projected": <pole>, and
reads back as a 3-space grid.  Projection masks the points whose chart
denominator is within the run's tol.pole of zero.  read_json keeps the
vertices as written, so a grid read back holds bit for bit the
components of the surface that was exported.

The bulk arrays (OBJ vertices and faces, JSON vertices, CSV rows) are
formatted in blocks of _BLOCK_ROWS rows, one C-level ``%`` call per
block, so that memory stays bounded by the block rather than the file.
Every array formatted this way is finite: vertices are zero-filled and
CSV rows are filtered to finite values, so no ``nan`` or ``inf`` can
appear.  ``"%.17g" % x`` is the same conversion as ``f"{x:.17g}"``, so
the bytes equal those of per-float formatting.  The small parts of a
file (JSON meta and report, gauss findings) go through ``_dumps``, which
writes non-finite floats as null.
"""

import gc
import json
import sys

import numpy as np

from .algebra import project_h31
from .config import DEFAULT_TOL
from .geometry import AmbientSpec, SurfaceGrid

# rows per % call: one call over a whole 301 x 301 CSV raised peak memory
# by 15% at no gain in speed
_BLOCK_ROWS = 2048


def _write_rows(fh, rowfmt, rows, sep=""):
    """Write each row of a 2-D array through rowfmt, the rows joined by sep."""
    for start in range(0, len(rows), _BLOCK_ROWS):
        block = rows[start:start + _BLOCK_ROWS]
        if start:
            fh.write(sep)
        fh.write(sep.join([rowfmt] * len(block)) % tuple(block.ravel().tolist()))


def _emit(value, out):
    if isinstance(value, dict):
        out.append("{")
        for k, v in value.items():
            if out[-1] not in ("{",):
                out.append(",")
            out.append(json.dumps(k))
            out.append(":")
            _emit(v, out)
        out.append("}")
    elif isinstance(value, (list, tuple, np.ndarray)):
        out.append("[")
        first = True
        for item in np.asarray(value).tolist() if isinstance(value, np.ndarray) else value:
            if not first:
                out.append(",")
            first = False
            _emit(item, out)
        out.append("]")
    elif value is None:
        out.append("null")
    elif isinstance(value, (bool, np.bool_)):
        out.append("true" if value else "false")
    elif isinstance(value, (int, np.integer)):
        out.append(str(int(value)))
    elif isinstance(value, (float, np.floating)):
        out.append(f"{float(value):.17g}" if np.isfinite(value) else "null")
    else:
        out.append(json.dumps(str(value)))


def _dumps(value):
    out = []
    _emit(value, out)
    return "".join(out)


def _grid_vertices(surface, projection, tol, chart=None):
    """Zero-filled (nu*nv, k) vertex rows and the effective (nu, nv) mask.

    chart, when given, is the caller's own
    project_h31(surface.points, projection, tol=tol), so that a grid is
    projected once.
    """
    comps = surface.points
    if projection is not None:
        if surface.ambient.name != "H31":
            raise ValueError("projection applies only to quadric surfaces")
        comps = chart if chart is not None else project_h31(comps, projection, tol=tol)
    finite = np.isfinite(comps)
    mask = np.asarray(surface.mask, dtype=bool) | ~finite.all(axis=-1)
    return np.where(finite, comps, 0.0).reshape(-1, comps.shape[-1]), mask


def export_obj(surface, projection, path, tol=DEFAULT_TOL, chart=None):
    vertices, mask = _grid_vertices(surface, projection, tol, chart)
    if vertices.shape[1] != 3:
        raise ValueError("OBJ output needs 3 coordinates; project the surface first")
    nv = mask.shape[1]
    # a quad (i, j) keeps its two triangles when none of its corners is masked
    keep = ~(mask[:-1, :-1] | mask[1:, :-1] | mask[1:, 1:] | mask[:-1, 1:])
    i, j = np.nonzero(keep)
    a = i * nv + j + 1
    b = a + nv
    faces = np.stack([a, b, b + 1, a, b + 1, a + 1], axis=-1).reshape(-1, 3)
    with open(path, "w", newline="\n") as fh:
        _write_rows(fh, "v %.17g %.17g %.17g\n", vertices)
        _write_rows(fh, "f %d %d %d\n", faces)
    return path


def _meta(surface):
    us, vs = np.asarray(surface.us), np.asarray(surface.vs)
    return {"domain": [float(us[0]), float(us[-1]), float(vs[0]), float(vs[-1])],
            "nu": int(len(us)), "nv": int(len(vs)),
            "ambient": surface.ambient.name.lower(), "assembly": str(surface.assembly)}


def export_json(surface, projection, path, report=None, tol=DEFAULT_TOL, chart=None):
    vertices, mask = _grid_vertices(surface, projection, tol, chart)
    meta = _meta(surface)
    if projection is not None:
        meta["projected"] = str(projection)
    with open(path, "w", newline="\n") as fh:
        fh.write('{"schema":1,"meta":' + _dumps(meta) + ',"vertices":[')
        rowfmt = "[" + ",".join(["%.17g"] * vertices.shape[1]) + "]"
        _write_rows(fh, rowfmt, vertices, sep=",")
        fh.write("]")
        if mask.any():
            fh.write(',"mask":[' + ",".join(
                np.where(mask.reshape(-1), "true", "false").tolist()) + "]")
        if report is not None:
            if hasattr(report, "to_dict"):
                report = report.to_dict()
            fh.write(',"report":' + _dumps(report))
        fh.write("}\n")
    return path


def _grid_field(path, doc, key, shape, dtype):
    """doc[key] as an array of the given shape, else a ValueError naming
    the file, the field, and the expected and found shapes."""
    try:
        arr = np.asarray(doc[key], dtype=dtype)
    except (TypeError, ValueError):
        found = "a ragged or non-numeric list"
    else:
        if arr.shape == shape:
            return arr
        found = f"shape {arr.shape}"
    raise ValueError(f"{path}: field {key!r} should have shape {shape} "
                     f"(nu*nv = {shape[0]} entries), found {found}")


def _is_number(x):
    """A JSON number (not a bool) that is finite as a float64."""
    return isinstance(x, (int, float)) and not isinstance(x, bool) \
        and abs(x) <= sys.float_info.max


def read_json(path):
    """Rebuild (surface, meta, report) from an exported JSON grid.

    The vertices are kept as written, so the grid holds exactly the
    values of the surface that was exported.
    """
    # a parsed document holds no reference cycles, yet the collector would
    # rescan its growing row lists about a quarter of the parse time
    enabled = gc.isenabled()
    gc.disable()
    try:
        with open(path) as fh:
            doc = json.load(fh)
    finally:
        if enabled:
            gc.enable()
    if doc.get("schema") != 1:
        raise ValueError(f"unsupported schema {doc.get('schema')!r}")
    meta = doc.get("meta")
    if not isinstance(meta, dict):
        raise ValueError(f"{path}: field 'meta' is missing or not an object")
    for key in ("nu", "nv", "domain", "ambient"):
        if key not in meta:
            raise ValueError(f"{path}: field 'meta.{key}' is missing")
    if meta["ambient"] not in ("h31", "e31"):
        raise ValueError(f"{path}: field 'meta.ambient' should be 'h31' or 'e31', "
                         f"found {meta['ambient']!r}")
    nu, nv, domain = meta["nu"], meta["nv"], meta["domain"]
    for key, n in (("nu", nu), ("nv", nv)):
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            raise ValueError(f"{path}: field 'meta.{key}' should be a positive "
                             f"integer, found {n!r}")
    if not (isinstance(domain, list) and len(domain) == 4 and all(map(_is_number, domain))):
        raise ValueError(f"{path}: field 'meta.domain' should be four finite "
                         f"numbers, found {domain!r}")
    quadric = meta["ambient"] == "h31" and "projected" not in meta
    ambient, assembly, k = ((AmbientSpec.h31(), "mu", 4) if quadric
                            else (AmbientSpec.e31(), "minimal", 3))
    verts = _grid_field(path, doc, "vertices", (nu * nv, k), float)
    if "mask" in doc:
        mask = _grid_field(path, doc, "mask", (nu * nv,), bool).reshape(nu, nv)
    else:
        mask = np.zeros((nu, nv), dtype=bool)
    u0, u1, v0, v1 = domain
    surface = SurfaceGrid(np.linspace(u0, u1, nu), np.linspace(v0, v1, nv),
                          verts.reshape(nu, nv, k), mask, ambient,
                          meta.get("assembly", assembly))
    return surface, meta, doc.get("report")


CSV_HEADER = "u,v,omega,H,Q,R,K,conf_u,conf_v,gauss_eq,sff"


def export_csv(fd, path):
    """One row per interior grid point of measured fundamental data."""
    cols = (fd.omega, fd.H, fd.Q, fd.R, fd.K,
            fd.conf_u, fd.conf_v, fd.gauss_eq, fd.sff)
    finite = np.isfinite(np.stack(cols)).all(axis=0) & fd.valid()
    i, j = np.nonzero(finite)
    rows = np.column_stack([fd.us[i], fd.vs[j]] + [c[finite] for c in cols])
    with open(path, "w", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        _write_rows(fh, ",".join(["%.17g"] * rows.shape[1]) + "\n", rows)
    return path


def export_surface(surface, projection, fmt, path, report=None, fd=None, tol=DEFAULT_TOL,
                   chart=None):
    """Write a surface grid in the requested format.

    chart is the projected grid when the caller has already projected it
    (see _grid_vertices).
    """
    if fmt == "obj":
        return export_obj(surface, projection, path, tol=tol, chart=chart)
    if fmt == "json":
        return export_json(surface, projection, path, report=report, tol=tol, chart=chart)
    if fmt == "csv":
        if fd is None:
            raise ValueError("CSV export needs measured fundamental data")
        return export_csv(fd, path)
    raise ValueError(f"unknown format {fmt!r}; use obj, json, or csv")
