"""Exact bytes and failure modes of the OBJ/JSON/CSV writers and reader."""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from adscmc import export
from adscmc.cli import main
from adscmc.export import CSV_HEADER, _dumps, export_csv, export_obj, read_json
from adscmc.gallery import oracle_surface
from adscmc.geometry import fundamental_data

SMALL = ["--domain", "-0.5", "0.5", "-0.5", "0.5", "--nu", "11", "--nv", "11"]
# one masked interior vertex (see test_cli.test_masked_points_drop_their_faces)
MASKED = ["gallery", "enneper-isothermic", "--domain", "-1.5", "-0.5", "0.5", "1.5",
          "--nu", "11", "--nv", "11", "--pole", "plus"]
GAUSS = ["gauss", "--omega=2*ln(1+u*v)", "--H", "1", "--Q", "1", "--R", "1",
         "--domain", "0.1", "0.9", "0.1", "0.9", "--nu", "21", "--nv", "21"]

# sha256 of each file as the per-float writers printed it
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
        "e43b9548184e2a565172b3faf3c6c806a8be33441c129b466c207ddeee0293da"),
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
    assert _dumps({"a": np.bool_(True), "b": [np.bool_(False), True]}) == \
        '{"a":true,"b":[false,true]}'


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


def test_unknown_ambient_is_rejected(tmp_path):
    def edit(doc):
        doc["meta"]["ambient"] = "ads"
    path = _doctored(tmp_path, edit)
    with pytest.raises(ValueError) as err:
        read_json(str(path))
    msg = str(err.value)
    assert str(path) in msg and "meta.ambient" in msg and "'ads'" in msg
