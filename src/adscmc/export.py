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

"ambient" is the surface's ambient name in lower case.  Quadric
surfaces are stored with their four ambient components unless a
projection pole is requested; 3-space surfaces always store three.  A
projected file keeps "ambient": "h31", adds "projected": <pole>, and
reads back as a 3-space grid.  Projection masks the points whose chart
denominator is within the run's tol.pole of zero.  read_json keeps the
vertices as written, so a grid read back holds bit for bit the
components of the surface that was exported.  That includes the sign
of zero: the writer prints -0.0 as "-0", which json reads as the int 0,
so the reader reads every "-0" of a file as -0.0.

read_json reads the file once, as bytes, and does not touch the cyclic
collector.  The vertices span of a file this module wrote is converted
by printf.read_rows, the inverse of the formatter, and the rest of the
file (schema, meta, mask, report) by json with the span replaced by [].
A file the converter declines (whitespace in the span, a value that is
no number, ragged rows, a span at the very start of the file) is parsed
by json as a whole, and its grid checked as before, with the same errors.

The bulk arrays (OBJ vertices and faces, JSON vertices, CSV rows) are
written in blocks of _BLOCK_ROWS rows by one vectorized formatter
(printf.write_rows), so that memory stays bounded by the block rather
than the file.  Its bytes are those of ``"%.17g" % x`` and ``"%d" % i``.
Every array formatted this way is finite: vertices are zero-filled and
CSV rows are filtered to finite values, so no ``nan`` or ``inf`` can
appear.  ``"%.17g" % x`` is the same conversion as ``f"{x:.17g}"``, so
the bytes equal those of per-float formatting.  The small parts of a
file (JSON meta and report, gauss findings) go through ``dumps``, which
writes non-finite floats as null.
"""

import io
import itertools
import json
import re
import sys

import numpy as np

from .algebra import project_h31
from .config import DEFAULT_TOL
from .geometry import SurfaceGrid

# rows per block: the formatter holds about 360 bytes per value of a
# block, 2 MB for 512 eleven-column CSV rows.  Per value, 512 rows run
# within 10% of 1024 and 2048 rows; 128 rows run 15-90% slower, the most
# on the narrow OBJ face rows
_BLOCK_ROWS = 512


def _blocks(rows):
    """rows in consecutive slices of _BLOCK_ROWS."""
    return (rows[start:start + _BLOCK_ROWS] for start in range(0, len(rows), _BLOCK_ROWS))


def _write_rows(fh, rowfmt, blocks, sep=""):
    """printf.write_rows, imported on first use, so that a command that
    writes no file does not load the formatter."""
    from .printf import write_rows
    write_rows(fh, rowfmt, blocks, sep)


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


def dumps(value):
    out = []
    _emit(value, out)
    return "".join(out)


def _grid_vertices(surface, projection, tol, chart=None):
    """The (nu*nv, k) vertex rows as zero-filled blocks, k, and the
    effective (nu, nv) mask.

    Each block zero-fills its own non-finite components, so no second
    grid is held.  chart, when given, is the caller's own
    project_h31(surface.points, projection, tol=tol), so that a grid is
    projected once.
    """
    comps = surface.points
    if projection is not None:
        if surface.ambient != "H31":
            raise ValueError("projection applies only to quadric surfaces")
        comps = chart if chart is not None else project_h31(comps, projection, tol=tol)
    mask = np.asarray(surface.mask, dtype=bool) | ~np.isfinite(comps).all(axis=-1)
    rows = comps.reshape(-1, comps.shape[-1])
    return (np.where(np.isfinite(b), b, 0.0) for b in _blocks(rows)), rows.shape[1], mask


def export_obj(surface, projection, path, tol=DEFAULT_TOL, chart=None):
    vertices, k, mask = _grid_vertices(surface, projection, tol, chart)
    if k != 3:
        raise ValueError("OBJ output needs 3 coordinates; project the surface first")
    nv = mask.shape[1]
    # a quad (i, j) keeps its two triangles when none of its corners is masked
    keep = ~(mask[:-1, :-1] | mask[1:, :-1] | mask[1:, 1:] | mask[:-1, 1:])

    def faces(quads):
        a = quads + quads // (nv - 1) + 1        # vertex i * nv + j + 1 of quad (i, j)
        b = a + nv
        return np.stack([a, b, b + 1, a, b + 1, a + 1], axis=-1).reshape(-1, 3)

    with open(path, "wb") as fh:
        _write_rows(fh, "v %.17g %.17g %.17g\n", vertices)
        _write_rows(fh, "f %d %d %d\n", map(faces, _blocks(np.flatnonzero(keep))))
    return path


def _meta(surface):
    us, vs = np.asarray(surface.us), np.asarray(surface.vs)
    return {"domain": [float(us[0]), float(us[-1]), float(vs[0]), float(vs[-1])],
            "nu": int(len(us)), "nv": int(len(vs)),
            "ambient": surface.ambient.lower(), "assembly": str(surface.assembly)}


def export_json(surface, projection, path, stats=None, tol=DEFAULT_TOL, chart=None):
    vertices, k, mask = _grid_vertices(surface, projection, tol, chart)
    meta = _meta(surface)
    if projection is not None:
        meta["projected"] = str(projection)
    with open(path, "wb") as fh:
        fh.write(('{"schema":1,"meta":' + dumps(meta) + ',"vertices":[').encode())
        _write_rows(fh, "[" + ",".join(["%.17g"] * k) + "]", vertices, sep=",")
        tail = "]"
        if mask.any():
            tail += ',"mask":[' + ",".join(
                np.where(mask.reshape(-1), "true", "false").tolist()) + "]"
        if stats is not None:
            tail += ',"report":' + dumps(stats)
        fh.write((tail + "}\n").encode())
    return path


def _grid_field(path, doc, key, shape, numeric):
    """doc[key] as an array of the given shape, of finite float64 numbers
    when numeric and of bools otherwise, else a ValueError naming the
    file and the field, with the expected and found shapes or the first
    offending flat index.

    The dtype is numpy's inference over the parsed lists, and only a
    grid it does not infer as finite numbers is searched entry by entry;
    a JSON true mixed into numeric rows is therefore still read as 1.0
    and an integer beyond int64 as its float, while a string, a null, an
    all-bool grid or a non-finite number is rejected.
    """
    if key not in doc:
        raise ValueError(f"{path}: field {key!r} is missing")
    try:
        arr = np.asarray(doc[key])
    except ValueError:
        found = "a ragged list"
    else:
        if arr.shape != shape:
            found = f"shape {arr.shape}"
        elif numeric and arr.dtype.kind in "iuf" and np.isfinite(arr).all():
            return arr.astype(float, copy=False)
        elif not numeric and arr.dtype == bool:
            return arr
        else:
            entries = itertools.chain.from_iterable(doc[key]) if numeric else doc[key]
            is_entry = _is_number if numeric else (lambda x: type(x) is bool)
            bad = next(((i, x) for i, x in enumerate(entries) if not is_entry(x)), None)
            if bad is None:
                # integers of 2**64 and above leave numpy an object array
                return arr.astype(float)
            i, value = bad
            raise ValueError(f"{path}: field {key!r} should hold "
                             f"{'finite numbers' if numeric else 'true or false'}, "
                             f"found {value!r} at flat index {i}")
    raise ValueError(f"{path}: field {key!r} should have shape {shape} "
                     f"(nu*nv = {shape[0]} entries), found {found}")


def _is_number(x):
    """A JSON number (not a bool) that is finite as a float64."""
    return isinstance(x, (int, float)) and not isinstance(x, bool) \
        and abs(x) <= sys.float_info.max


_VERTICES = b'"vertices":'


# the integer literal -0: no digit, point or exponent follows it, while
# the -0 of -0.5 or of an exponent e-05 starts no integer literal
_NEGATIVE_ZERO = re.compile(rb"-0(?![0-9.eE])")


def _load(data):
    """json.load of the bytes data, decoded as open() decodes a file,
    with each -0 read as the float -0.0 (json reads it as the int 0).
    Bytes without an integer -0 keep json's own integer parse."""
    hook = ((lambda s: -0.0 if s == "-0" else int(s))
            if _NEGATIVE_ZERO.search(data) else None)
    return json.load(io.TextIOWrapper(io.BytesIO(data)), parse_int=hook)


def _whole_document(buf):
    """The document of the file in buf parsed by json as a whole."""
    return _load(buf)


def _document(buf):
    """The document of the file in buf, its "vertices" an array when
    printf.read_rows reads them.

    A compact vertices span, "vertices":[[..],..,[..]] as export_json
    writes it, is read by read_rows, and the rest of the file is parsed
    by json with the span replaced by []; the key must appear once.  Any
    other file is parsed whole.
    """
    from .printf import read_rows
    key = buf.find(b'"vertices"')
    lo = key + len(_VERTICES)
    if key < 0 or buf[key:lo + 2] != _VERTICES + b"[[":
        return _whole_document(buf)
    # the span ends at the last "]]" of the file: whatever follows the
    # vertices in a file of this writer holds none, and a span that takes
    # in more than the vertices holds a character no number does
    hi = buf.rfind(b"]]", lo) + 2
    if hi < 2 or buf.find(b'"vertices"', hi) >= 0:
        return _whole_document(buf)
    verts = read_rows(buf, lo, hi)
    if verts is None:
        return _whole_document(buf)
    try:
        doc = _load(buf[:lo] + b"[]" + buf[hi:])
    except ValueError:      # a syntax or decoding error, raised again at its place
        return _whole_document(buf)
    if not isinstance(doc, dict) or doc.get("vertices") != []:
        return _whole_document(buf)
    doc["vertices"] = verts
    return doc


def read_json(path):
    """Rebuild (surface, meta, report) from an exported JSON grid.

    The file is read once, as bytes, and the collector is not touched.
    The vertices are kept as written, so the grid holds exactly the
    values of the surface that was exported, the sign of each zero
    included: json reads the "-0" that the writer prints for -0.0 as the
    int 0, so every -0 in the file is read as -0.0.

    A compact vertices span, as export_json writes it, is read by the
    vectorized parser printf.read_rows, which gives every number the
    value json gives it.  On anything else (whitespace, a value that is
    no number, a ragged row) the whole file goes through json, with the
    same errors: vertices that are not all finite numbers, or a mask
    that is not all true and false, raise a ValueError naming the first
    offending flat index.  That check is numpy's dtype inference over
    the parsed rows, so a true mixed into numeric rows is still read as
    1.0.  Vertices of the wrong shape raise the same error on both paths.
    """
    with open(path, "rb") as fh:
        doc = _document(fh.read())
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
    if not (isinstance(domain, list) and len(domain) == 4 and all(map(_is_number, domain))
            and domain[0] < domain[1] and domain[2] < domain[3]):
        raise ValueError(f"{path}: field 'meta.domain' should be four finite numbers "
                         f"with u0 < u1 and v0 < v1, found {domain!r}")
    quadric = meta["ambient"] == "h31" and "projected" not in meta
    assembly, k = ("mu", 4) if quadric else ("minimal", 3)
    verts = _grid_field(path, doc, "vertices", (nu * nv, k), numeric=True)
    if "mask" in doc:
        mask = _grid_field(path, doc, "mask", (nu * nv,), numeric=False).reshape(nu, nv)
    else:
        mask = np.zeros((nu, nv), dtype=bool)
    u0, u1, v0, v1 = domain
    surface = SurfaceGrid(np.linspace(u0, u1, nu), np.linspace(v0, v1, nv),
                          verts.reshape(nu, nv, k), mask, meta.get("assembly", assembly))
    return surface, meta, doc.get("report")


CSV_HEADER = "u,v,omega,H,Q,R,K,conf_u,conf_v,gauss_eq,sff"


def export_csv(fd, path):
    """One row per interior grid point of measured fundamental data."""
    cols = [np.ravel(c) for c in (fd.omega, fd.H, fd.Q, fd.R, fd.K,
                                  fd.conf_u, fd.conf_v, fd.gauss_eq, fd.sff)]
    finite = fd.valid().ravel()
    for c in cols:
        finite &= np.isfinite(c)
    us, vs = np.asarray(fd.surface.us), np.asarray(fd.surface.vs)
    # each block's rows are gathered from the grids, not from one table
    rows = (np.column_stack([us[k // len(vs)], vs[k % len(vs)]] + [c[k] for c in cols])
            for k in _blocks(np.flatnonzero(finite)))
    with open(path, "wb") as fh:
        fh.write((CSV_HEADER + "\n").encode())
        _write_rows(fh, ",".join(["%.17g"] * (2 + len(cols))) + "\n", rows)
    return path


def export_surface(surface, projection, fmt, path, report=None, tol=DEFAULT_TOL,
                   chart=None):
    """Write a surface grid in the requested format.

    report, a GeometryReport, gives a JSON file its statistics and a CSV
    file its measured fundamental data.  chart is the projected grid
    when the caller has already projected it (see _grid_vertices).
    """
    if fmt == "obj":
        return export_obj(surface, projection, path, tol=tol, chart=chart)
    if fmt == "json":
        stats = None if report is None else report.stats
        return export_json(surface, projection, path, stats=stats, tol=tol, chart=chart)
    if fmt == "csv":
        if report is None:
            raise ValueError("CSV export needs measured fundamental data")
        return export_csv(report.fd, path)
    raise ValueError(f"unknown format {fmt!r}; use obj, json, or csv")
