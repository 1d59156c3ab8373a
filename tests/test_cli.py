"""End-to-end runs of the command line tool and the file formats."""

import json

import numpy as np
import pytest

from adscmc.cli import main
from adscmc.export import CSV_HEADER, read_json

SMALL = ["--domain", "-0.5", "0.5", "-0.5", "0.5", "--nu", "11", "--nv", "11"]
ENNEPER_ARGS = ["--q", "u", "--f", "1", "--r", "v", "--g", "1",
                "--domain", "-0.1", "0.1", "-0.1", "0.1",
                "--nu", "51", "--nv", "51"]


def test_minimal_subcommand_passes_its_gates(capsys):
    assert main(["minimal", *ENNEPER_ARGS]) == 0
    out = capsys.readouterr().out
    assert "-> pass" in out
    assert "h_median" in out


def test_cmc1_subcommand_passes_its_gates(capsys):
    assert main(["cmc1", *ENNEPER_ARGS]) == 0
    assert "-> pass" in capsys.readouterr().out


def test_gate_failure_exits_nonzero_and_names_the_offender(capsys):
    code = main(["gallery", "b-scroll", *SMALL])
    out = capsys.readouterr().out
    assert code == 1
    assert "gate conf_u" in out
    assert "FAIL" in out


def test_wide_tolerance_turns_the_same_run_green(capsys):
    # conf and sff both sit on the same h^2 floor at this resolution
    code = main(["gallery", "b-scroll", *SMALL,
                 "--tol", "conf=0.01", "--tol", "sff=0.01"])
    assert code == 0
    assert "-> pass" in capsys.readouterr().out


def test_missing_required_flag_is_a_usage_error(capsys):
    assert main(["minimal", "--q", "u"]) == 2
    assert "usage error" in capsys.readouterr().err


def test_bad_domain_is_a_usage_error():
    assert main(["gallery", "horosphere", "--domain", "1", "0", "0", "1"]) == 2


def test_incompatible_lax_data_exits_one(capsys):
    code = main(["lax", "--omega", "0", "--H", "1", "--Q", "1", "--R", "1",
                 "--domain", "0", "1", "0", "1", "--nu", "11", "--nv", "11"])
    assert code == 1
    assert "integrability" in capsys.readouterr().err


def test_unknown_gallery_name_exits_one(capsys):
    assert main(["gallery", "nope", *SMALL]) == 1
    assert "valid names" in capsys.readouterr().err


def _run_export(tmp_path, fname, extra=()):
    out = tmp_path / fname
    code = main(["gallery", "horosphere", *SMALL, *extra, "--out", str(out)])
    assert code == 0
    return out.read_bytes()


@pytest.mark.parametrize("fname, extra", [
    ("s.obj", ("--pole", "plus")),
    ("s.json", ()),
    ("s.csv", ()),
])
def test_exports_are_byte_deterministic(tmp_path, fname, extra, capsys):
    first = _run_export(tmp_path, "a-" + fname, extra)
    second = _run_export(tmp_path, "b-" + fname, extra)
    assert first == second
    assert b"\r" not in first


def test_obj_mesh_counts(tmp_path, capsys):
    out = tmp_path / "mesh.obj"
    assert main(["gallery", "horosphere", *SMALL, "--pole", "plus",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert sum(1 for l in lines if l.startswith("v ")) == 121
    assert sum(1 for l in lines if l.startswith("f ")) == 200


def test_masked_points_drop_their_faces(tmp_path, capsys):
    out = tmp_path / "masked.obj"
    main(["gallery", "enneper-isothermic", "--domain", "-1.5", "-0.5", "0.5", "1.5",
          "--nu", "11", "--nv", "11", "--pole", "plus", "--out", str(out)])
    lines = out.read_text().splitlines()
    assert sum(1 for l in lines if l.startswith("v ")) == 121
    # one masked interior vertex removes the four quads around it
    assert sum(1 for l in lines if l.startswith("f ")) == 200 - 8


def test_quadric_obj_needs_a_projection(tmp_path):
    # the command line always supplies its default pole, so the
    # constraint lives in the writer itself
    from adscmc.export import export_surface
    from adscmc.gallery import oracle_surface
    surface = oracle_surface("horosphere", (-0.5, 0.5, -0.5, 0.5), 7, 7)
    with pytest.raises(ValueError, match="3 coordinates"):
        export_surface(surface, None, "obj", str(tmp_path / "x.obj"))


def test_unrecognized_extension_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "surface.xyz"
    assert main(["gallery", "horosphere", *SMALL, "--out", str(out)]) == 2


def test_json_round_trip_is_lossless(tmp_path, capsys):
    out = tmp_path / "grid.json"
    assert main(["gallery", "b-scroll", *SMALL, "--tol", "conf=0.01",
                 "--tol", "sff=0.01", "--out", str(out)]) == 0
    surface, meta, report = read_json(str(out))
    assert meta["ambient"] == "h31"
    assert meta["nu"] == meta["nv"] == 11
    assert surface.points.shape == (11, 11, 2, 2)
    # the measurement border falls away, leaving the 9x9 interior
    assert report["n_valid"] == 81
    from adscmc.algebra import vec_of_mat
    from adscmc.gallery import oracle_surface
    exact = oracle_surface("b-scroll", (-0.5, 0.5, -0.5, 0.5), 11, 11)
    # the stored components round-trip bitwise; reassembling matrices
    # from them costs half an ulp in the summed entries
    doc = json.loads(out.read_text())
    assert np.array_equal(np.asarray(doc["vertices"]),
                          vec_of_mat(exact.points).reshape(-1, 4))
    assert np.allclose(surface.points, exact.points, rtol=0.0, atol=1e-15)


def test_csv_rows_cover_the_double_interior(tmp_path, capsys):
    out = tmp_path / "report.csv"
    assert main(["gallery", "horosphere", *SMALL, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    # the curvature columns need a two-deep stencil, so 11x11 keeps 7x7
    assert len(lines) == 1 + 49


def test_verify_round_trip(tmp_path, capsys):
    out = tmp_path / "check.json"
    assert main(["gallery", "horosphere", *SMALL, "--out", str(out)]) == 0
    assert main(["verify", str(out), "--H", "1.0"]) == 0
    assert main(["verify", str(out), "--H", "2.0"]) == 1
    final = capsys.readouterr().out.strip().splitlines()[-1]
    assert "mean_curvature" in final


def test_verify_flip_normal_flips_the_target(tmp_path, capsys):
    out = tmp_path / "flip.json"
    assert main(["gallery", "horosphere", *SMALL, "--out", str(out)]) == 0
    assert main(["verify", str(out), "--H", "-1.0", "--flip-normal"]) == 0


def test_config_file_supplies_defaults_and_flags_win(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "name": "horosphere",
        "domain": [-0.5, 0.5, -0.5, 0.5],
        "nu": 7, "nv": 9,
    }))
    assert main(["gallery", "--config", str(cfg), "--nu", "11"]) == 0
    out = capsys.readouterr().out
    assert "nu = 11" in out
    assert "nv = 9" in out


def test_config_tolerances_apply_and_flag_overrides(tmp_path, capsys):
    cfg = tmp_path / "tol.json"
    cfg.write_text(json.dumps({"tol": {"conf": 1e-09, "sff": 0.01}}))
    args = ["gallery", "b-scroll", *SMALL, "--config", str(cfg)]
    assert main(args) == 1
    assert main([*args, "--tol", "conf=0.01"]) == 0


def test_unknown_config_key_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"frobnicate": 1}))
    assert main(["gallery", "horosphere", *SMALL, "--config", str(cfg)]) == 2
    assert "frobnicate" in capsys.readouterr().err


def test_bad_tol_syntax_is_a_usage_error(capsys):
    assert main(["gallery", "horosphere", *SMALL, "--tol", "conf"]) == 2
    assert main(["gallery", "horosphere", *SMALL, "--tol", "bogus=1"]) == 2
    assert main(["gallery", "horosphere", *SMALL, "--tol", "conf=abc"]) == 2


def test_gauss_writes_machine_readable_findings(tmp_path, capsys):
    out = tmp_path / "gauss.json"
    code = main(["gauss", "--omega=2*ln(1+u*v)", "--H", "1", "--Q", "1", "--R", "1",
                 "--domain", "0.1", "0.9", "0.1", "0.9",
                 "--nu", "41", "--nv", "41", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["classification"] == "none"
    assert doc["max_identity_residual"] < 1e-4
    # chart gaps are pole-amplified maxima, so only their presence and
    # finiteness belong at this grid size
    assert np.isfinite(doc["chart_frame_vs_surface"])
    assert np.isfinite(doc["chart_generalized_vs_surface"])
    assert doc["max_rep_det"] < 1e-8
    assert doc["chart_spread"][0] == pytest.approx(doc["chart_spread"][1], rel=1e-6)


def test_gauss_flags_degenerate_family_as_constant(capsys):
    code = main(["gauss", "--omega", "0", "--H", "1", "--Q", "0", "--R", "0",
                 "--domain", "0", "1", "0", "1", "--nu", "21", "--nv", "21"])
    assert code == 0
    assert '"classification":"constant"' in capsys.readouterr().out


def test_project_plus_pole_keeps_the_matching_half(tmp_path, capsys):
    raw = tmp_path / "raw.json"
    assert main(["gallery", "horosphere", *SMALL, "--out", str(raw)]) == 0
    capsys.readouterr()
    assert main(["project", str(raw), "--pole", "plus",
                 "--out", str(tmp_path / "ball.obj")]) == 0
    out = capsys.readouterr().out
    assert "n_matching_half = 121" in out
    assert "n_other_half = 0" in out
    assert "-> pass" in out
    assert (tmp_path / "ball.obj").exists()


def test_project_minus_pole_is_vacuous_for_this_orbit(tmp_path, capsys):
    raw = tmp_path / "raw.json"
    assert main(["gallery", "horosphere", *SMALL, "--out", str(raw)]) == 0
    capsys.readouterr()
    assert main(["project", str(raw), "--pole", "minus",
                 "--out", str(tmp_path / "other.obj")]) == 0
    out = capsys.readouterr().out
    # 21 grid points sit exactly on the x0 = 1 denominator locus of the
    # minus pole and are excluded before the halves are counted
    assert "n_matching_half = 0" in out
    assert "n_other_half = 100" in out


def test_projected_faces_follow_the_gate_tolerance(tmp_path, capsys):
    raw, obj = tmp_path / "raw.json", tmp_path / "wide.obj"
    # the residual gates fail at this spacing; only the written grid matters
    main(["cmc1", "--q", "u", "--f", "1", "--r", "v", "--g", "1",
          "--domain", "0.05", "0.95", "0.02", "0.92", "--nu", "21", "--nv", "21",
          "--out", str(raw)])
    capsys.readouterr()
    assert main(["project", str(raw), "--tol", "pole=2.2", "--out", str(obj)]) == 0
    out = capsys.readouterr().out
    surface, _, _ = read_json(str(raw))
    x0 = surface.components()[..., 0]
    good = ~surface.mask & (np.abs(1.0 + x0) > 2.2)
    assert f"n_matching_half = {int(good.sum())}" in out
    # a quad keeps its two faces exactly when the gate kept all four corners
    quads = good[:-1, :-1] & good[1:, :-1] & good[1:, 1:] & good[:-1, 1:]
    faces = sum(1 for l in obj.read_text().splitlines() if l.startswith("f "))
    assert 0 < faces == 2 * int(quads.sum()) < 2 * 20 * 20


def test_project_rejects_flat_surfaces(tmp_path, capsys):
    flat = tmp_path / "flat.json"
    assert main(["minimal", *ENNEPER_ARGS, "--out", str(flat)]) == 0
    code = main(["project", str(flat), "--pole", "plus",
                 "--out", str(tmp_path / "x.obj")])
    assert code == 2
    assert "quadric" in capsys.readouterr().err


def test_project_rejects_csv(tmp_path, capsys):
    raw = tmp_path / "raw.json"
    assert main(["gallery", "horosphere", *SMALL, "--out", str(raw)]) == 0
    assert main(["project", str(raw), "--pole", "plus",
                 "--out", str(tmp_path / "x.csv")]) == 2
