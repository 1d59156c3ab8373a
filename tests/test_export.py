"""Exact bytes and failure modes of the OBJ/JSON/CSV writers and reader."""

import dataclasses
import hashlib
import io
import json
import os
import pathlib
import re
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adscmc import export, printf
from adscmc.cli import main
from adscmc.export import (CSV_HEADER, dumps, export_csv, export_json, export_obj,
                           export_surface, read_json)
from adscmc.gallery import oracle_surface
from adscmc.geometry import fundamental_data
from adscmc.nullcurves import KIND_F1, KIND_F2_MU, assemble_mu, integrate_frame

SMALL = ["--domain", "-0.5", "0.5", "-0.5", "0.5", "--nu", "11", "--nv", "11"]
# one masked interior vertex (see test_cli.test_masked_points_drop_their_faces)
MASKED = ["gallery", "enneper-isothermic", "--domain", "-1.5", "-0.5", "0.5", "1.5",
          "--nu", "11", "--nv", "11", "--pole", "plus"]
GAUSS = ["gauss", "--omega=2*ln(1+u*v)", "--H", "1", "--Q", "1", "--R", "1",
         "--domain", "0.1", "0.9", "0.1", "0.9", "--nu", "21", "--nv", "21"]

# sha256 of each file as the per-float writers printed it; gauss.json
# since the tangents generalized_gauss reads are differences of component
# grids, which moves chart_generalized_vs_surface in its 13th digit, and
# since the Lax frames are marched by Magnus steps
GOLDEN = {
    "horosphere.obj": (["gallery", "horosphere", *SMALL, "--pole", "plus"],
        "86471575744ef600642cc031af378d1143dfccd22db38b62c2d7a7c4b0fdafb2"),
    "horosphere.json": (["gallery", "horosphere", *SMALL],
        "3cebb26f7609feb70510e0593c8b08876173fcefe79f9f424fabc68e964fc999"),
    "horosphere.csv": (["gallery", "horosphere", *SMALL],
        "db5925ecc9208491437bb5e3ecc2aa3c8cc7e8204f0da017b7aa7b3aec058a50"),
    "masked.obj": (MASKED,
        "554417ea93a6cf4bba8b2da4f763cc475471deb6cbe11e511d5db42c49f1a787"),
    "masked.json": (MASKED,
        "954b36ec314107bf84147ea5cd376c3e4567084fa1ea10de4cec1c51a8b99147"),
    "gauss.json": (GAUSS,
        "d7ee45c47b003d16b9eeeb890154724b3d7d8c1ec012db8d2189a7f59a2e563f"),
}


@pytest.mark.parametrize("block_rows", [None, 1, 7])
@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_files_match_golden_bytes(tmp_path, monkeypatch, capsys, name, block_rows):
    # block sizes 1 and 7 put block boundaries mid-grid (11 x 11, 21 x 21)
    if block_rows is not None:
        monkeypatch.setattr(export, "_BLOCK_ROWS", block_rows)
    argv, digest = GOLDEN[name]
    out = tmp_path / name
    main([*argv, "--out", str(out)])
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_masked_json_lists_the_masked_vertex(tmp_path, capsys):
    out = tmp_path / "masked.json"
    main([*MASKED, "--out", str(out)])
    doc = json.loads(out.read_text())
    assert len(doc["mask"]) == 121 and sum(doc["mask"]) == 1


def test_csv_with_no_finite_row_is_the_header_alone(tmp_path):
    surface = oracle_surface("horosphere", (-0.5, 0.5, -0.5, 0.5), 7, 7)
    fd = fundamental_data(surface)
    fd = dataclasses.replace(fd, mask=np.ones_like(fd.mask))
    path = tmp_path / "empty.csv"
    export_csv(fd, str(path))
    assert path.read_bytes() == (CSV_HEADER + "\n").encode()


def test_obj_with_every_face_masked_keeps_its_vertex_lines(tmp_path):
    surface = oracle_surface("horosphere", (-0.5, 0.5, -0.5, 0.5), 7, 7)
    full, bare = tmp_path / "full.obj", tmp_path / "bare.obj"
    export_obj(surface, "plus", str(full))
    export_obj(dataclasses.replace(surface, mask=np.ones_like(surface.mask)),
               "plus", str(bare))
    vertex_lines = [l for l in full.read_text().splitlines() if l.startswith("v ")]
    assert len(vertex_lines) == 49
    assert bare.read_text() == "\n".join(vertex_lines) + "\n"


def test_numpy_bools_are_json_literals():
    assert dumps({"a": np.bool_(True), "b": [np.bool_(False), True]}) == \
        '{"a":true,"b":[false,true]}'


def test_none_is_json_null():
    assert dumps({"a": None}) == '{"a":null}'


def _doctored(tmp_path, edit):
    """A 7 x 7 horosphere grid file with its parsed document edited."""
    path = tmp_path / "grid.json"
    export.export_json(oracle_surface("horosphere", (-0.5, 0.5, -0.5, 0.5), 7, 7),
                       None, str(path))
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    return path


def test_truncated_vertices_name_the_file_and_counts(tmp_path):
    path = _doctored(tmp_path, lambda doc: doc["vertices"].pop())
    with pytest.raises(ValueError) as err:
        read_json(str(path))
    msg = str(err.value)
    assert str(path) in msg and "vertices" in msg
    assert "49" in msg and "48" in msg


def test_short_mask_names_the_file_and_counts(tmp_path):
    def edit(doc):
        doc["mask"] = [False] * 40
    path = _doctored(tmp_path, edit)
    with pytest.raises(ValueError) as err:
        read_json(str(path))
    msg = str(err.value)
    assert str(path) in msg and "mask" in msg
    assert "49" in msg and "40" in msg


def test_absent_mask_reads_as_an_unmasked_array(tmp_path):
    path = _doctored(tmp_path, lambda doc: doc.pop("mask", None))
    surface, _, _ = read_json(str(path))
    assert isinstance(surface.mask, np.ndarray)
    assert surface.mask.dtype == bool and surface.mask.shape == (7, 7)
    assert not surface.mask.any()


@pytest.mark.parametrize("field", ["meta", "meta.nu", "meta.nv", "meta.domain",
                                   "meta.ambient"])
def test_missing_meta_field_names_the_file_and_field(tmp_path, field):
    def edit(doc):
        *parent, key = field.split(".")
        (doc["meta"] if parent else doc).pop(key)
    path = _doctored(tmp_path, edit)
    with pytest.raises(ValueError) as err:
        read_json(str(path))
    assert str(path) in str(err.value) and f"'{field}'" in str(err.value)


@pytest.mark.parametrize("field, value", [
    ("nu", "7"), ("nv", "7"), ("nu", 0), ("nv", -7), ("nu", True), ("nv", 7.0), ("nu", None),
    ("domain", [-0.5, 0.5, -0.5]), ("domain", [-0.5, 0.5, -0.5, "0.5"]),
    ("domain", [-0.5, 0.5, -0.5, float("nan")]), ("domain", [-0.5, 0.5, -0.5, False]),
    ("domain", "(-0.5, 0.5, -0.5, 0.5)"), ("domain", None),
    ("domain", [0, 0, 0, 1]), ("domain", [1, 0, 0, 1]), ("domain", [0, 1, 0.5, -0.5]),
])
def test_mistyped_meta_field_names_the_file_and_field(tmp_path, field, value):
    def edit(doc):
        doc["meta"][field] = value
    path = _doctored(tmp_path, edit)
    with pytest.raises(ValueError) as err:
        read_json(str(path))
    assert str(path) in str(err.value) and f"'meta.{field}'" in str(err.value)


def test_mistyped_meta_is_an_error_line_not_a_traceback(tmp_path, capsys):
    def edit(doc):
        doc["meta"]["nu"] = "7"
    path = _doctored(tmp_path, edit)
    assert main(["verify", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'meta.nu'" in err


def test_unknown_ambient_is_rejected(tmp_path):
    def edit(doc):
        doc["meta"]["ambient"] = "ads"
    path = _doctored(tmp_path, edit)
    with pytest.raises(ValueError) as err:
        read_json(str(path))
    msg = str(err.value)
    assert str(path) in msg and "meta.ambient" in msg and "'ads'" in msg


def _seven_by_seven(name):
    return oracle_surface(name, (-0.5, 0.5, -0.5, 0.5), 7, 7)


@pytest.mark.parametrize("call, message", [
    (lambda path: export_json(_seven_by_seven("minimal-enneper"), "plus", path),
     "projection applies only to quadric surfaces"),
    (lambda path: read_json(str(_doctored(path.parent, lambda doc: doc.update(schema=2)))),
     "unsupported schema 2"),
    (lambda path: export_surface(_seven_by_seven("horosphere"), None, "csv", path),
     "CSV export needs measured fundamental data"),
    (lambda path: export_surface(_seven_by_seven("horosphere"), None, "ply", path),
     "unknown format 'ply'; use obj, json, or csv"),
])
def test_unsupported_request_is_rejected(tmp_path, call, message):
    with pytest.raises(ValueError, match=message):
        call(tmp_path / "out")


def test_malformed_json_raises_a_json_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"schema": 1, "meta": ')
    with pytest.raises(json.JSONDecodeError):
        read_json(str(path))


def test_a_file_without_an_integer_negative_zero_keeps_the_json_integer_parse(
        tmp_path, monkeypatch):
    # the -0 of the domain's -0.5 and of an exponent e-05 is no integer -0
    def edit(doc):
        doc["vertices"] = [[1, 2, 3, 4]] * 49
        doc["report"] = {"max_sff": 1e-05}
    path = _doctored(tmp_path, edit)
    assert b"-0.5" in path.read_bytes() and b"1e-05" in path.read_bytes()
    real_load, hooks = json.load, []

    def spy(fh, **kw):
        hooks.append(kw.get("parse_int"))
        return real_load(fh, **kw)

    monkeypatch.setattr(json, "load", spy)
    surface, _, _ = read_json(str(path))
    assert hooks == [None]
    assert surface.points.dtype == float and (surface.points == [1, 2, 3, 4]).all()


def _raw_doctored(tmp_path, edit, raw):
    """_doctored, with the JSON string "RAW" in the edited document
    replaced by the literal text raw."""
    path = _doctored(tmp_path, edit)
    path.write_text(path.read_text().replace('"RAW"', raw))
    return path


def _set(field, index, value):
    def edit(doc):
        if field == "mask":
            doc["mask"] = [False] * 49
            doc["mask"][index] = value
        elif index is None:
            doc["vertices"] = [[value] * 4 for _ in doc["vertices"]]
        else:
            doc["vertices"][index // 4][index % 4] = value
    return edit


@pytest.mark.parametrize("field, index, value, raw, shown", [
    ("vertices", 13, "1.5", None, "'1.5'"),
    ("vertices", None, True, None, "True"),
    ("vertices", 22, "RAW", "1e400", "inf"),
    ("mask", 4, 2.5, None, "2.5"),
    ("mask", 6, "no", None, "'no'"),
])
def test_malformed_grid_names_the_file_field_and_flat_index(tmp_path, field, index,
                                                            value, raw, shown):
    # a string or a bool grid is no numeric dtype, 1e400 parses as inf, and
    # a mask holding anything but true and false is no bool dtype
    edit = _set(field, index, value)
    path = _doctored(tmp_path, edit) if raw is None else _raw_doctored(tmp_path, edit, raw)
    with pytest.raises(ValueError) as err:
        read_json(str(path))
    msg = str(err.value)
    assert str(path) in msg and f"'{field}'" in msg
    assert f"found {shown} at flat index {index or 0}" in msg


def test_missing_vertices_name_the_file_and_field(tmp_path):
    path = _doctored(tmp_path, lambda doc: doc.pop("vertices"))
    with pytest.raises(ValueError) as err:
        read_json(str(path))
    assert str(path) in str(err.value) and "'vertices' is missing" in str(err.value)


def test_integer_vertices_read_as_floats(tmp_path):
    # "%.17g" writes an integral component without a point, so a grid of
    # zeros parses as ints
    path = _doctored(tmp_path, lambda doc: doc.update(vertices=[[0, 1, 0, 0]] * 49))
    surface, _, _ = read_json(str(path))
    assert surface.points.dtype == float and (surface.points[..., 1] == 1.0).all()


@pytest.mark.parametrize("separators", [(",", ":"), (", ", ": ")], ids=["compact", "spaced"])
def test_an_integer_beyond_int64_reads_as_its_float(tmp_path, separators):
    # numpy keeps 2**64 and above as objects, so no dtype says the grid is
    # numeric; the entry is still a finite number
    path = _doctored(tmp_path, _set("vertices", 11, 2 ** 70))
    path.write_text(json.dumps(json.loads(path.read_text()), separators=separators))
    surface, _, _ = read_json(str(path))
    assert surface.points.dtype == float
    assert surface.points.reshape(-1)[11] == float(2 ** 70)


def _written(rowfmt, rows, sep=""):
    fh = io.BytesIO()
    export._write_rows(fh, rowfmt, export._blocks(np.asarray(rows)), sep=sep)
    return fh.getvalue()


def _spelled(rowfmt, rows, sep=""):
    return sep.join(rowfmt % tuple(row) for row in np.asarray(rows).tolist()).encode()


@pytest.fixture(params=[None, 1, 7])
def block_rows(request, monkeypatch):
    """The writer's default blocks, then blocks of 1 and 7 rows."""
    if request.param is not None:
        monkeypatch.setattr(export, "_BLOCK_ROWS", request.param)
    return request.param


@pytest.fixture
def fallbacks(monkeypatch):
    """The number of values the writer spells with "%.17g" % x itself."""
    count = [0]
    real = printf._spell

    def spy(x, rows, *args):
        count[0] += len(rows)
        return real(x, rows, *args)

    monkeypatch.setattr(printf, "_spell", spy)
    return count


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=60))
def test_floats_are_spelled_as_printf_17g(values):
    rows = np.reshape(values, (-1, 1))
    assert _written("%.17g\n", rows) == _spelled("%.17g\n", rows)


def _hard_floats():
    tiny, big = 5e-324, sys.float_info.max
    powers = np.array([float(f"1e{k}") for k in range(-300, 301)])
    # odd multiples of 2**-17 in [1, 10) end in a 5 at their 18th digit
    ties = (2 * np.arange(2 ** 16, 5 * 2 ** 16, 997) + 1) / 2.0 ** 17
    ends = np.array([0.0, -0.0, tiny, -tiny, big, -big, np.nextafter(big, 0.0)])
    # the smallest normal float, and where "%.17g" turns to exponent notation
    near = np.concatenate([powers, [sys.float_info.min, 1e-5, 1e-4, 1e16, 1e17]])
    return np.concatenate([ends, near, np.nextafter(near, np.inf), np.nextafter(near, -np.inf),
                           -powers, ties, -ties])


def test_hard_floats_are_spelled_as_printf_17g(block_rows, fallbacks):
    values = _hard_floats()
    for rowfmt, sep in (("%.17g\n", ""), ("[%.17g,%.17g]", ","), ("v %.17g %.17g %.17g\n", "")):
        c = rowfmt.count("%")
        rows = values[:len(values) // c * c].reshape(-1, c)
        assert _written(rowfmt, rows, sep) == _spelled(rowfmt, rows, sep)
    # subnormals, the largest floats and the exact ties take the fallback
    assert fallbacks[0] > 0


def test_zeros_are_spelled_without_fallback(fallbacks):
    # zero-filled masked vertices are common, so zeros take the fast path
    assert _written("%.17g,%.17g\n", [[0.0, -0.0], [-0.0, 0.0]]) == b"0,-0\n-0,0\n"
    assert fallbacks[0] == 0


def test_exact_ties_fall_back_and_round_to_even(fallbacks):
    ties = (2 * np.arange(2 ** 16, 5 * 2 ** 16, 61) + 1) / 2.0 ** 17
    rows = ties.reshape(-1, 1)
    assert _written("%.17g\n", rows) == _spelled("%.17g\n", rows)
    assert fallbacks[0] == len(ties)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2 ** 63 - 1), min_size=3, max_size=60))
def test_integers_are_spelled_as_printf_d(values):
    rows = np.array(values[:len(values) // 3 * 3], dtype=np.int64).reshape(-1, 3)
    assert _written("f %d %d %d\n", rows) == _spelled("f %d %d %d\n", rows)


def test_integer_edges_are_spelled_as_printf_d(block_rows):
    edges = [0, 1, 9, 10, 9999, 10 ** 4, 10 ** 8 - 1, 10 ** 8, 10 ** 18, 2 ** 63 - 1]
    rows = np.array(edges + edges[::-1], dtype=np.int64).reshape(-1, 4)
    assert _written("%d,%d,%d,%d\n", rows) == _spelled("%d,%d,%d,%d\n", rows)


def test_negative_integer_rows_are_refused():
    with pytest.raises(ValueError, match="non-negative"):
        _written("f %d %d %d\n", [[1, 2, -3]])


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_exported_values_take_no_fallback(tmp_path, capsys, fallbacks, name):
    argv, _ = GOLDEN[name]
    main([*argv, "--out", str(tmp_path / name)])
    assert fallbacks[0] == 0


def _writers(surface, fd, folder):
    """Each format's writer of the surface (projected for OBJ) or its data."""
    return {"json": lambda: export.export_json(surface, None, str(folder / "a.json")),
            "obj": lambda: export_obj(surface, "plus", str(folder / "a.obj")),
            "csv": lambda: export_csv(fd, str(folder / "a.csv"))}


# (q, f, r, g) = (u, 1, v, 1) at 301 x 301, the surface the nullcurve-files
# benchmark workload exports
@pytest.fixture(scope="module")
def cmc1_grid(tmp_path_factory):
    f1 = integrate_frame(KIND_F1, "u", "1", (0.05, 0.95), 301)
    f2 = integrate_frame(KIND_F2_MU, "v", "1", (0.05, 0.95), 301)
    surface = assemble_mu(f1, f2)
    fd = fundamental_data(surface)
    # a first write builds the formatter's cached tables, so that the peaks
    # do not depend on which tests ran before
    for write in _writers(surface, fd, tmp_path_factory.mktemp("warm")).values():
        write()
    return surface, fd


# tracemalloc peak of each writer over points.nbytes on cmc1_grid, as
# measured by this test (EXPORT_PEAKS) plus a 5% margin.  One more (nu, nv)
# plane is 1/4 of points.nbytes, more than the margin, so it shows.  OBJ's
# peak is mostly its projection of the grid.  Writers that formatted each
# value with "%" read 1.21 (json), 4.05 (obj) and 5.88 (csv): they held a
# second zero-filled grid, a full face table and a stacked copy of every
# CSV column.
EXPORT_PEAKS = {"json": 0.285, "obj": 1.785, "csv": 0.967}
EXPORT_PEAK_RATIO_BOUND = {fmt: round(1.05 * peak, 2) for fmt, peak in EXPORT_PEAKS.items()}


@pytest.mark.parametrize("fmt", sorted(EXPORT_PEAK_RATIO_BOUND))
def test_export_peak_memory_stays_flat(tmp_path, cmc1_grid, fmt):
    surface, fd = cmc1_grid
    write = _writers(surface, fd, tmp_path)[fmt]
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        write()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak / surface.points.nbytes <= EXPORT_PEAK_RATIO_BOUND[fmt]


# tracemalloc peak of read_json over points.nbytes on the cmc1_grid file,
# as measured by this test (READ_PEAK) plus a 5% margin.  The file's bytes
# are 2.55 of points.nbytes and the grid read from them 1; json.load of
# the whole file read 8.58.
READ_PEAK = 3.95
READ_PEAK_RATIO_BOUND = round(1.05 * READ_PEAK, 2)


def test_read_peak_memory_stays_flat(tmp_path, cmc1_grid):
    surface, _ = cmc1_grid
    path = export_json(surface, None, str(tmp_path / "a.json"))
    read_json(path)          # the reader's tables are built on first use
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        read_json(path)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak / surface.points.nbytes <= READ_PEAK_RATIO_BOUND


GRID_JSON = sorted(name for name, (argv, _) in GOLDEN.items()
                   if name.endswith(".json") and argv[0] != "gauss")


@pytest.fixture
def read_fallbacks(monkeypatch):
    """Files read by json as a whole, and numbers left to json by the
    vectorized reader, while grids are read."""
    count = {"files": 0, "numbers": 0}
    whole, numbers = export._whole_document, printf._float_tokens

    def whole_spy(buf):
        count["files"] += 1
        return whole(buf)

    def numbers_spy(buf, start, end, rows, out):
        count["numbers"] += len(rows)
        return numbers(buf, start, end, rows, out)

    monkeypatch.setattr(export, "_whole_document", whole_spy)
    monkeypatch.setattr(printf, "_float_tokens", numbers_spy)
    return count


def _assert_same_bits(a, b):
    assert a.dtype == b.dtype == float and a.shape == b.shape
    assert np.array_equal(a.view(np.int64), b.view(np.int64))


def _assert_read_without_fallback(path, fallbacks, monkeypatch):
    """read_json reads path's vertices without parsing the file by json,
    leaves to json only the numbers in exponent notation, and they are
    the grid json reads, "-0" read as -0.0."""
    points = read_json(str(path))[0].points
    text = pathlib.Path(path).read_text()
    span = text[text.index('"vertices":') + len('"vertices":'):text.rindex("]]")]
    exponents = sum(1 for token in re.split(r"[\[\],]", span) if "e" in token)
    assert fallbacks == {"files": 0, "numbers": exponents}
    monkeypatch.setattr(printf, "read_rows", lambda buf, lo, hi: None)
    _assert_same_bits(points, read_json(str(path))[0].points)
    assert fallbacks == {"files": 1, "numbers": exponents}
    # json reads "-0" as 0, so the values, not the bits, are compared
    ref = np.asarray(json.loads(text)["vertices"], dtype=float)
    assert np.array_equal(points.reshape(ref.shape), ref)
    return points


@pytest.mark.parametrize("name", GRID_JSON)
def test_exported_grids_are_read_without_fallback(tmp_path, capsys, monkeypatch,
                                                  read_fallbacks, name):
    argv, _ = GOLDEN[name]
    main([*argv, "--out", str(tmp_path / name)])
    _assert_read_without_fallback(tmp_path / name, read_fallbacks, monkeypatch)


def test_workload_grid_is_read_without_fallback(tmp_path, monkeypatch, read_fallbacks,
                                                cmc1_grid):
    path = export_json(cmc1_grid[0], None, str(tmp_path / "a.json"))
    points = _assert_read_without_fallback(path, read_fallbacks, monkeypatch)
    _assert_same_bits(points, cmc1_grid[0].points)


def test_spaced_grid_takes_the_fallback_and_reads_the_same(tmp_path, read_fallbacks):
    path = _doctored(tmp_path, lambda doc: None)
    compact = tmp_path / "compact.json"
    export_json(read_json(str(path))[0], None, str(compact))
    read_fallbacks.update(files=0, numbers=0)
    _assert_same_bits(read_json(str(compact))[0].points, read_json(str(path))[0].points)
    assert read_fallbacks["files"] == 1


def test_negative_zero_reads_back_signed(tmp_path, read_fallbacks):
    surface = oracle_surface("horosphere", (-0.5, 0.5, -0.5, 0.5), 2, 2)
    points = surface.points.copy()
    points[0, 0, 1:] = -0.0
    points[1, 1, 2] = 0.0
    path = tmp_path / "zeros.json"
    export_json(dataclasses.replace(surface, points=points), None, str(path))
    assert b",-0,-0,-0]" in path.read_bytes()
    spaced = tmp_path / "spaced.json"
    spaced.write_bytes(path.read_bytes().replace(b'"vertices":', b'"vertices": '))
    for p in (path, spaced):
        _assert_same_bits(read_json(str(p))[0].points, points)
    assert read_fallbacks == {"files": 1, "numbers": 0}


def _compact(tmp_path, edit):
    """_doctored, written by json without spaces, so that its vertices
    span is one read_rows takes, and the vertices json reads from it."""
    path = _doctored(tmp_path, edit)
    doc = json.loads(path.read_text())
    path.write_text(json.dumps(doc, separators=(",", ":")))
    return path, np.asarray(doc.get("vertices"), dtype=float)


def test_a_vertices_key_after_the_span_takes_the_fallback(tmp_path, read_fallbacks):
    path, want = _compact(tmp_path, lambda doc: doc.update(report={"vertices": 1}))
    surface, _, report = read_json(str(path))
    _assert_same_bits(surface.points.reshape(want.shape), want)
    assert report == {"vertices": 1} and read_fallbacks["files"] == 1


def test_a_span_at_the_start_of_the_file_reads_as_json_reads_it(tmp_path, read_fallbacks):
    # every key but the vertices moves after them
    path, want = _compact(tmp_path, lambda doc: doc.update(
        {key: doc.pop(key) for key in list(doc) if key != "vertices"}))
    assert path.read_bytes().startswith(b'{"vertices":[[')
    _assert_same_bits(read_json(str(path))[0].points.reshape(want.shape), want)
    # read_rows declines a span that starts within printf.READ_PAD bytes
    assert read_fallbacks["files"] == 1


def test_a_file_cut_after_the_span_raises_a_json_error(tmp_path, read_fallbacks):
    path, _ = _compact(tmp_path, lambda doc: doc.update(report={"a": 1}))
    text = path.read_text()
    path.write_text(text[:text.rindex(',"report"')])
    with pytest.raises(json.JSONDecodeError):
        read_json(str(path))
    assert read_fallbacks["files"] == 1


def test_vertices_only_inside_meta_are_missing(tmp_path, read_fallbacks):
    path, _ = _compact(tmp_path, lambda doc: doc["meta"].update(vertices=doc.pop("vertices")))
    with pytest.raises(ValueError) as err:
        read_json(str(path))
    assert str(path) in str(err.value) and "'vertices' is missing" in str(err.value)
    assert read_fallbacks["files"] == 1


def test_a_short_row_is_a_ragged_list(tmp_path):
    path = _doctored(tmp_path, lambda doc: doc["vertices"][3].pop())
    with pytest.raises(ValueError) as err:
        read_json(str(path))
    msg = str(err.value)
    assert str(path) in msg and "'vertices'" in msg and "found a ragged list" in msg


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_grid_is_read_from_a_pipe(tmp_path):
    # a pipe has no size to allocate the buffer by
    path = export_json(oracle_surface("horosphere", (-0.5, 0.5, -0.5, 0.5), 7, 7), None,
                       str(tmp_path / "grid.json"))
    fifo = tmp_path / "grid.fifo"
    os.mkfifo(fifo)
    data = pathlib.Path(path).read_bytes()
    writer = threading.Thread(target=fifo.write_bytes, args=(data,), daemon=True)
    writer.start()
    try:
        points = read_json(str(fifo))[0].points
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()
    _assert_same_bits(points, read_json(path)[0].points)


def _json_spellings(x):
    """Ways JSON can spell the float x, "%.17g" and repr among them."""
    r = repr(x)
    mantissa, _, exp = ("%.16e" % x).partition("e")
    return [("%.17g" % x), r, "%.3E" % x, "%.6e" % x, "%.0e" % x, "%.2f" % x,
            f"{mantissa}e{int(exp):+05d}", f"{mantissa}E{int(exp)}",
            r if "e" in r or "." not in r else r + "e+00"]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 1e5, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 1e-300,
     1.9016352983759945, 9007199254740993.0, 123456789012345678.0]), min_size=1, max_size=20),
       st.integers(1, 4))
def test_spans_read_as_float_reads_them(values, k):
    # a spelling rounded to fewer digits can overflow, which is declined
    tokens = [t for x in values for t in _json_spellings(x) if np.isfinite(float(t))]
    # exact ties between two floats round to even
    tokens += ["9007199254740993", "9007199254740995", "4503599627370496.5",
               "4503599627370497.5", "4.5035996273704965e15", "9007199254740993e0"]
    tokens += ["-0", "0", "1E5", "1.0e+00", "1e-0005", "12e-3", "100", "-0.0", "0e10"]
    tokens += ["1"] * (-len(tokens) % k)
    rows = [tokens[i:i + k] for i in range(0, len(tokens), k)]
    span = ("[" + ",".join("[" + ",".join(row) + "]" for row in rows) + "]").encode()
    buf = bytearray(printf.READ_PAD) + span
    got = printf.read_rows(buf, printf.READ_PAD, len(buf))
    want = np.array([[float(t) for t in row] for row in rows])
    _assert_same_bits(got, want)


@pytest.mark.parametrize("token", ["01", "1.", ".5", "+1", "1e", "--1", "1.2.3", "-", "1e+",
                                   "true", " 1", "1 ", "1234567890123456789", "1e400", "0x1",
                                   "NaN", "1ee5", "1e5e5", "1.5e-3.2", "\u00b01"])
def test_spans_with_a_non_number_are_declined(token):
    span = ("[[1," + token + "],[2,3]]").encode().decode("unicode_escape").encode("utf-8")
    buf = bytearray(printf.READ_PAD) + span
    assert printf.read_rows(buf, printf.READ_PAD, len(buf)) is None


def _first_token_read(token):
    buf = bytearray(printf.READ_PAD) + ("[[" + token + ",1],[2,3]]").encode()
    return printf.read_rows(buf, printf.READ_PAD, len(buf))


def test_a_token_longer_than_a_read_block_is_read_as_json_reads_it():
    # the first read block holds no comma; the integer token is declined
    # like any of more than 18 digits, the float token reads as its float
    assert printf._READ_BLOCK < 200_000
    assert _first_token_read("9" * 200_000) is None
    token = "0." + "3" * 199_999
    _assert_same_bits(_first_token_read(token), np.array([[float(token), 1.0], [2.0, 3.0]]))


@pytest.mark.parametrize("span", ["[[1,2],[3]]", "[[1,2],[3,4,5]]", "[[1,2] ,[3,4]]",
                                  "[[1,2],[3,4],5]", "[[]]", "[[1,2],,[3,4]]", "[[1,[2]]]"])
def test_ragged_or_spaced_spans_are_declined(span):
    buf = bytearray(printf.READ_PAD) + span.encode()
    assert printf.read_rows(buf, printf.READ_PAD, len(buf)) is None


def test_the_cli_loads_the_reader_only_to_read(tmp_path):
    # setup_s compiles every module the CLI imports, so the codec is
    # imported by the first export or read, not by the CLI
    path = tmp_path / "grid.json"
    export_json(oracle_surface("horosphere", (-0.5, 0.5, -0.5, 0.5), 7, 7), None, str(path))
    script = ("import sys\nfrom adscmc.cli import main\n"
              "print('adscmc.printf' in sys.modules)\n"
              f"main(['verify', {str(path)!r}])\n"
              "print('adscmc.printf' in sys.modules)\n")
    src = str(pathlib.Path(export.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True).stdout.splitlines()
    assert (out[0], out[-1]) == ("False", "True")
