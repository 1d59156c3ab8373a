"""End-to-end runs of the command line tool and the file formats."""

import json
import tracemalloc

import numpy as np
import pytest

from adscmc.cli import main
from adscmc.export import CSV_HEADER, read_json
from adscmc.gallery import DEFAULT_DOMAIN

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


def test_parser_is_built_once_and_keeps_no_state_between_calls(capsys, monkeypatch):
    from adscmc import cli
    real = cli.build_parser
    built = []

    def counted():
        built.append(1)
        return real()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    try:
        # the appended --tol values of the first call must not leak into the second
        wide = ["--tol", "conf=0.01", "--tol", "sff=0.01"]
        assert main(["gallery", "b-scroll", *SMALL, *wide]) == 0
        assert main(["gallery", "b-scroll", *SMALL]) == 1
        assert main(["gallery", "b-scroll", *SMALL, *wide]) == 0
    finally:
        cli._parser.cache_clear()
    assert built == [1]


def test_missing_required_flag_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["minimal", "--q", "u"])
    assert exc.value.code == 2
    assert "the following arguments are required: --f, --r, --g" in capsys.readouterr().err


def test_bad_domain_is_a_usage_error():
    assert main(["gallery", "horosphere", "--domain", "1", "0", "0", "1"]) == 2


@pytest.mark.parametrize("flag", ["--nu", "--nv"])
def test_grid_below_five_nodes_is_a_usage_error(capsys, flag):
    assert main(["gallery", "horosphere", flag, "4"]) == 2
    assert "--nu and --nv must be at least 5" in capsys.readouterr().err


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
    assert surface.points.shape == (11, 11, 4)
    # the measurement border falls away, leaving the 9x9 interior
    assert report["n_valid"] == 81
    from adscmc.gallery import oracle_surface
    exact = oracle_surface("b-scroll", (-0.5, 0.5, -0.5, 0.5), 11, 11)
    # the components are written and read back bit for bit
    doc = json.loads(out.read_text())
    assert np.array_equal(np.asarray(doc["vertices"]), exact.points.reshape(-1, 4))
    assert np.array_equal(surface.points, exact.points)


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


WRITERS = {
    "cmc1": (["cmc1", *ENNEPER_ARGS[:-4], "--nu", "31", "--nv", "31"], "1"),
    "lax": (["lax", "--omega=2*ln(1+u*v)", "--H", "1", "--Q", "1", "--R", "1",
             "--domain", "0.2", "0.6", "0.2", "0.6", "--nu", "31", "--nv", "31"], "1"),
    "gallery": (["gallery", "minimal-enneper", "--domain", "-0.3", "0.3", "-0.3", "0.3",
                 "--nu", "31", "--nv", "31"], "0"),
}


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_verify_prints_the_writers_measurement(tmp_path, capsys, writer):
    argv, target = WRITERS[writer]
    out = tmp_path / "grid.json"
    assert main([*argv, "--out", str(out)]) == 0
    wrote = capsys.readouterr().out.splitlines()
    assert main(["verify", str(out), "--H", target]) == 0
    checked = capsys.readouterr().out.splitlines()
    # the file holds the written surface exactly, so every statistic and
    # the gate line agree to the last digit
    assert [l for l in wrote if not l.startswith(("path_defect", "wrote"))] == checked[1:]


def test_verify_names_the_ambient_it_measures(tmp_path, capsys):
    raw, proj = tmp_path / "raw.json", tmp_path / "proj.json"
    assert main(["gallery", "horosphere", *SMALL, "--out", str(raw)]) == 0
    assert main(["project", str(raw), "--pole", "plus", "--out", str(proj)]) == 0
    capsys.readouterr()
    main(["verify", str(proj)])
    out = capsys.readouterr().out.splitlines()
    assert out[0] == f"loaded {proj}: ambient e31, 11x11"
    assert "ambient = 'E31'" in out


def test_verify_flip_normal_flips_the_target(tmp_path, capsys):
    out = tmp_path / "flip.json"
    assert main(["gallery", "horosphere", *SMALL, "--out", str(out)]) == 0
    assert main(["verify", str(out), "--H", "-1.0", "--flip-normal"]) == 0


def _args_file(tmp_path, *lines):
    """An argument file holding one argument per line, as its @-argument."""
    path = tmp_path / "run.args"
    path.write_text("".join(f"{line}\n" for line in lines))
    return f"@{path}"


def _exit_code(argv):
    """main's exit status, also when argparse rejects argv."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def test_config_file_supplies_defaults_and_flags_win(tmp_path, capsys):
    run = _args_file(tmp_path, "horosphere", "--domain", "-0.5", "0.5", "-0.5", "0.5",
                     "--nu", "7", "--nv", "9")
    assert main(["gallery", run, "--nu", "11"]) == 0
    out = capsys.readouterr().out
    assert "nu = 11" in out
    assert "nv = 9" in out


def test_config_tolerances_apply_and_flag_overrides(tmp_path, capsys):
    run = _args_file(tmp_path, "--tol", "conf=1e-09", "--tol", "sff=0.01")
    args = ["gallery", "b-scroll", *SMALL, run]
    assert main(args) == 1
    assert main([*args, "--tol", "conf=0.01"]) == 0


def test_unknown_config_key_is_a_usage_error(tmp_path, capsys):
    run = _args_file(tmp_path, "--frobnicate", "1")
    assert _exit_code(["gallery", "horosphere", *SMALL, run]) == 2
    assert "--frobnicate" in capsys.readouterr().err


def test_missing_args_file_is_a_usage_error(tmp_path, capsys):
    missing = tmp_path / "missing.args"
    assert _exit_code(["gallery", "horosphere", *SMALL, f"@{missing}"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and str(missing) in err


@pytest.mark.parametrize("blank", ["", "  "])
def test_blank_line_in_an_args_file_is_a_usage_error(tmp_path, capsys, blank):
    run = _args_file(tmp_path, "horosphere", blank, "--nu", "11")
    assert _exit_code(["gallery", run]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "a blank line in an @FILE is not an argument" in err


def test_args_file_may_carry_the_subcommand(tmp_path, capsys):
    assert main(["gallery", "horosphere", *SMALL]) == 0
    direct = capsys.readouterr().out
    assert main([_args_file(tmp_path, "gallery", "horosphere", *SMALL)]) == 0
    assert capsys.readouterr().out == direct


@pytest.mark.parametrize("argv", [
    ["cmc1", "--q", "u", "--f", "1", "--r", "v", "--g", "1", *SMALL, "--action", "nu"],
    ["lax", "--omega=2*ln(1+u*v)", "--H", "1", "--Q", "1", "--R", "1",
     "--domain", "0.2", "0.6", "0.2", "0.6", "--nu", "11", "--nv", "11", "--flip-normal"],
    ["gauss", "--omega", "2*ln(1+u*v)", "--H", "1", "--Q", "1", "--R", "1",
     "--domain", "0.2", "0.6", "0.2", "0.6", "--nu", "11", "--nv", "11", "--sign", "minus"],
    ["gallery", "b-scroll", *SMALL, "--tol", "conf=0.01", "--tol", "sff=0.01"],
])
def test_args_file_prints_what_the_command_line_prints(tmp_path, capsys, argv):
    code = main(argv)
    direct = capsys.readouterr().out
    assert main([argv[0], _args_file(tmp_path, *argv[1:])]) == code
    assert capsys.readouterr().out == direct


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


# tracemalloc peak of a 201 x 201 gauss run over the surface's
# points.nbytes, as measured by this test (GAUSS_PEAK) plus a 2% margin.
# Every map is built in row blocks, so only its (nu, nv) grids span the
# whole grid; the frames are freed before the surface is measured, and
# each map once its chart gap is read.  With full-grid representatives,
# tangents and Wronskians and the frames live throughout, the same run
# read 11.36; with every map also keeping its representatives, 15.02.
GAUSS_PEAK = 7.12
GAUSS_PEAK_RATIO_BOUND = round(1.02 * GAUSS_PEAK, 2)
GAUSS_201 = ["gauss", "--omega=2*ln(1+u*v)", "--H", "1", "--Q", "1", "--R", "1",
             "--domain", "0.1", "0.9", "0.1", "0.9", "--nu", "201", "--nv", "201"]


def test_gauss_peak_memory_stays_flat(capsys):
    assert main(GAUSS_201) == 0     # the first run builds the argument parser
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        assert main(GAUSS_201) == 0
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    points_nbytes = 201 * 201 * 4 * 8
    assert peak / points_nbytes <= GAUSS_PEAK_RATIO_BOUND, peak / points_nbytes


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
    x0 = surface.points[..., 0]
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


@pytest.mark.parametrize("argv", [
    ["cmc1", *ENNEPER_ARGS],
    ["minimal", *ENNEPER_ARGS],
    ["project", "missing.json", "--pole", "plus"],
])
def test_output_suffix_is_checked_before_the_build(tmp_path, capsys, monkeypatch, argv):
    # the missing input of project shows the check comes before any read
    monkeypatch.chdir(tmp_path)
    assert main([*argv, "--out", "foo.txt"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage error:") and "'foo.txt'" in err
    assert ".obj" in err and ".json" in err
    assert (".csv" in err) == (argv[0] != "project")
    assert list(tmp_path.iterdir()) == []


def test_format_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["cmc1", *ENNEPER_ARGS, "--format", "json"])
    assert exc.value.code == 2
    assert "--format" in capsys.readouterr().err


def test_project_projects_the_grid_once(tmp_path, capsys, monkeypatch):
    from adscmc import algebra, cli, export
    grid = tmp_path / "grid.json"
    assert main(["gallery", "horosphere", *SMALL, "--out", str(grid)]) == 0
    calls = []

    def counted(x, *args, **kwargs):
        calls.append(np.shape(x))
        return algebra.project_h31(x, *args, **kwargs)

    monkeypatch.setattr(cli, "project_h31", counted)
    monkeypatch.setattr(export, "project_h31", counted)
    for out in ("p.obj", "p.json"):
        del calls[:]
        assert main(["project", str(grid), "--pole", "plus", "--out", str(tmp_path / out)]) == 0
        assert calls == [(11, 11, 4)]


@pytest.mark.parametrize("argv", [
    ["minimal", "--q", "u", "--f", "1", "--r", "v", "--g", "1", *SMALL],
    ["cmc1", "--q", "u", "--f", "1", "--r", "v", "--g", "1", *SMALL],
    ["lax", "--omega", "2*ln(1+u*v)", "--H", "1", "--Q", "1", "--R", "1",
     "--domain", "0", "0.9", "0", "0.9", "--nu", "11", "--nv", "11"],
    ["gallery", "horosphere", *SMALL],
])
def test_gate_measures_the_h_error_once(argv, capsys, monkeypatch):
    from adscmc.geometry import GeometryReport
    measure = GeometryReport.stats_h_error
    calls = []

    def counted(self, target_h):
        calls.append(target_h)
        return measure(self, target_h)

    monkeypatch.setattr(GeometryReport, "stats_h_error", counted)
    main(argv)
    assert "max_h_error = " in capsys.readouterr().out
    assert len(calls) == 1


def test_unconverged_quadrature_names_its_panel(capsys):
    code = main(["minimal", "--q", "u", "--f", "1/(u-0.537)", "--r", "v", "--g", "1",
                 "--domain", "0", "1", "0", "1", "--nu", "11", "--nv", "11"])
    assert code == 1
    err = capsys.readouterr().err
    assert "quadrature did not converge" in err and "of cell 5" in err


CMC1_SMALL = ["cmc1", "--q", "u", "--f", "1", "--r", "v", "--g", "1", *SMALL]
GAUSS_SMALL = ["gauss", "--omega", "2*ln(1+u*v)", "--H", "1", "--Q", "1", "--R", "1",
               "--domain", "0", "0.9", "0", "0.9", "--nu", "11", "--nv", "11"]


def test_config_switch_is_a_bare_flag_line(tmp_path, capsys):
    main(CMC1_SMALL)
    assert "h_median = 0.99" in capsys.readouterr().out
    main([*CMC1_SMALL, _args_file(tmp_path, "--flip-normal")])
    assert "h_median = -0.99" in capsys.readouterr().out


def test_config_choice_outside_the_flag_choices_is_a_usage_error(tmp_path, capsys):
    assert _exit_code([*CMC1_SMALL, _args_file(tmp_path, "--action", "MU")]) == 2
    err = capsys.readouterr().err
    assert "--action" in err and "'MU'" in err


def test_lax_has_no_action_option(tmp_path, capsys):
    # lax integrates one set of frames, so it takes no action, on the
    # command line or in an argument file
    lax = ["lax", "--omega", "2*ln(1+u*v)", "--H", "1", "--Q", "1", "--R", "1",
           "--domain", "0.2", "0.6", "0.2", "0.6", "--nu", "11", "--nv", "11"]
    with pytest.raises(SystemExit) as exc:
        main([*lax, "--action", "nu"])
    assert exc.value.code == 2
    assert "--action" in capsys.readouterr().err
    assert _exit_code([*lax, _args_file(tmp_path, "--action", "mu")]) == 2
    assert "unrecognized arguments: --action mu" in capsys.readouterr().err


def test_config_number_as_text_converts_like_the_flag(tmp_path, capsys):
    args = ["cmc1", "--q", "u", "--f", "1", "--r", "v", "--g", "1",
            "--domain", "-0.5", "0.5", "-0.5", "0.5", "--nv", "11"]
    code = main([*args, _args_file(tmp_path, "--nu", "11")])
    from_file = capsys.readouterr().out
    assert code == main(CMC1_SMALL)
    assert from_file == capsys.readouterr().out
    assert _exit_code([*args, _args_file(tmp_path, "--nu", "11.5")]) == 2
    assert "argument --nu: invalid int value: '11.5'" in capsys.readouterr().err


def test_config_gauss_sign_is_checked_before_the_build(tmp_path, capsys):
    assert _exit_code([*GAUSS_SMALL, _args_file(tmp_path, "--sign", "up")]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "argument --sign: invalid choice: 'up'" in err


def test_gauss_writes_json_findings_only(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*GAUSS_SMALL, "--format", "json"])
    assert exc.value.code == 2
    capsys.readouterr()
    out = tmp_path / "g.obj"
    assert main([*GAUSS_SMALL, "--out", str(out)]) == 2
    assert "must end in .json" in capsys.readouterr().err
    assert not out.exists()
    assert _exit_code([*GAUSS_SMALL, _args_file(tmp_path, "--fmt", "json")]) == 2
    assert "--fmt" in capsys.readouterr().err


def test_config_tolerances_go_through_the_tol_checks(tmp_path, capsys):
    args = ["gallery", "horosphere", *SMALL]
    for bad in ("conf=abc", "inv=1e-12", "conf=-1", "degen=nan"):
        assert main([*args, _args_file(tmp_path, "--tol", bad)]) == 2
    assert main([*args, "--tol", "inv=1e-12"]) == 2
    assert main([*args, _args_file(tmp_path, "--tol", "conf=1e-3")]) == 0


@pytest.mark.parametrize("argv, bad", [
    (["gallery", "horosphere", *SMALL], "conf=-1"),
    (["gallery", "horosphere", *SMALL], "degen=nan"),
    (GAUSS_SMALL, "pole=nan"),
])
def test_nan_or_negative_tolerance_is_a_usage_error(argv, bad, capsys):
    assert main([*argv, "--tol", bad]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"usage error: tolerance {bad.split('=')[0]} ")


@pytest.mark.parametrize("domain", [("0", "inf", "0", "1"), ("0", "1", "0", "inf"),
                                    ("0", "1", "0", "nan")])
def test_nonfinite_domain_is_a_usage_error_before_the_build(domain, capsys):
    argv = ["minimal", "--q", "u", "--f", "1", "--r", "v", "--g", "1",
            "--domain", *domain, "--nu", "11", "--nv", "11"]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("usage error: --domain needs four finite bounds")


WEIERSTRASS = ["--q", "u", "--f", "1", "--r", "v", "--g", "1"]
GMC = ["--omega", "0", "--H", "1", "--Q", "1", "--R", "1"]
GRID_DEFAULTS = {"domain": DEFAULT_DOMAIN, "nu": 101, "nv": 101, "out": None}


@pytest.mark.parametrize("argv, want", [
    (["minimal", *WEIERSTRASS], {**GRID_DEFAULTS, "flip_normal": False}),
    (["cmc1", *WEIERSTRASS], {**GRID_DEFAULTS, "action": "mu", "pole": "plus",
                              "flip_normal": False}),
    (["lax", *GMC], {**GRID_DEFAULTS, "pole": "plus", "flip_normal": False}),
    (["verify", "s.json"], {"target_h": None, "pole": "plus", "flip_normal": False,
                            "out": None}),
    (["gauss", *GMC], {**GRID_DEFAULTS, "sign": "plus"}),
    (["project", "s.json", "--out", "p.obj"], {"pole": "plus"}),
    (["gallery", "horosphere"], {**GRID_DEFAULTS, "pole": "plus", "flip_normal": False}),
])
def test_each_subcommand_defaults_every_flag_it_is_not_given(argv, want):
    # no pinned stdout case runs on these defaults, so only this test
    # sees one of them change
    from adscmc.cli import build_parser
    ns = vars(build_parser().parse_args(argv))
    assert {key: ns[key] for key in want} == want


@pytest.mark.parametrize("argv", [["cmc1", *WEIERSTRASS], ["lax", *GMC], ["gauss", *GMC]])
def test_frame_commands_take_no_substeps(argv, capsys):
    # one Magnus step per grid cell: its O(h^4) error sits far below the
    # O(h^2) stencil floor of every gate, so nothing refines it
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--substeps", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --substeps 2" in capsys.readouterr().err


def _h_median(out):
    return float(next(line for line in out.splitlines()
                      if line.startswith("h_median = ")).split(" = ")[1])


def test_power_of_a_negative_base_builds_the_same_lax_surface(capsys):
    # ln((-1-uv)^2) is 2 ln(1+uv); its power takes the power rule, not ln(-1-uv)
    lax = ["lax", "--H", "1", "--Q", "1", "--R", "1",
           "--domain", "0.2", "0.6", "0.2", "0.6", "--nu", "21", "--nv", "21"]
    assert main([*lax, "--omega=ln((-1-u*v)^(1+1))"]) == 0
    squared = _h_median(capsys.readouterr().out)
    assert main([*lax, "--omega=2*ln(1+u*v)"]) == 0
    doubled = _h_median(capsys.readouterr().out)
    from adscmc.config import DEFAULT_TOL
    assert abs(squared - doubled) <= DEFAULT_TOL.cmc


def test_negative_domain_bound_in_exponent_notation(capsys):
    assert main(["gallery", "horosphere", "--domain", "-1e-3", "1", "0", "1",
                 "--nu", "11", "--nv", "11"]) == 0
    assert main(["gallery", "horosphere", "--domain", "-0.001", "1", "0", "1",
                 "--nu", "11", "--nv", "11"]) == 0
    exponent, decimal = capsys.readouterr().out.split("ambient = ")[1:]
    assert exponent == decimal


def test_negative_mean_curvature_in_exponent_notation(capsys):
    # constant omega = 0 meets the integrability condition when QR = (H^2 - 1)/4
    lax = ["lax", "--omega", "0", "--Q", "1", "--R", "-0.2475",
           "--domain", "0.2", "0.6", "0.2", "0.6", "--nu", "11", "--nv", "11"]
    code = main([*lax, "--H", "-1e-1"])
    out = capsys.readouterr().out
    assert code == main([*lax, "--H=-0.1"])
    assert out == capsys.readouterr().out
    assert abs(_h_median(out) + 0.1) < 1e-3


@pytest.mark.parametrize("argv", [
    ["minimal", "--q", "u", "--f", "1", "--r", "v", "--g", "1"],
    ["cmc1", "--q", "u", "--f", "1", "--r", "v", "--g", "1"],
    ["lax", "--omega", "0", "--H", "-1E+0", "--Q", "1", "--R", "1"],
    ["gauss", "--omega", "0", "--H", "-.5e1", "--Q", "1", "--R", "1"],
    ["gallery", "horosphere"],
])
def test_every_grid_subcommand_reads_exponent_notation(argv):
    from adscmc.cli import build_parser
    ns = build_parser().parse_args([*argv, "--domain", "-1e-3", "-2.5E-1", "-4e0", "3"])
    assert ns.domain == [-1e-3, -0.25, -4.0, 3.0]
    if "--H" in argv:
        assert ns.H == float(argv[argv.index("--H") + 1])


def test_verify_reads_a_target_in_exponent_notation():
    from adscmc.cli import build_parser
    assert build_parser().parse_args(["verify", "s.json", "--H", "-1e-1"]).target_h == -0.1
