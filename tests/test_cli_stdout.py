"""Exact stdout of every subcommand on small grids, pinned by sha256.

A refactor that changes what any subcommand prints, or the exit code it
returns, fails here.  Files are written by relative path inside a
scratch directory, so the "wrote" and "loaded" lines do not depend on
where the tests run.
"""

import hashlib

import pytest

from adscmc.cli import main

ENNEPER = ["--q", "u", "--f", "1", "--r", "v", "--g", "1",
           "--domain", "-0.2", "0.2", "-0.2", "0.2", "--nu", "21", "--nv", "21"]
LIOUVILLE = ["--omega=2*ln(1+u*v)", "--H", "1", "--Q", "1", "--R", "1",
             "--domain", "0.2", "0.6", "0.2", "0.6", "--nu", "21", "--nv", "21"]
SMALL = ["--domain", "-0.5", "0.5", "-0.5", "0.5", "--nu", "11", "--nv", "11"]
GRID = ["cmc1", *ENNEPER, "--out", "grid.json"]
PROJECTED = ["project", "grid.json", "--pole", "plus", "--out", "proj.json"]

# name: (commands run first, unpinned; pinned command; exit code; sha256 of its stdout)
CASES = {
    "minimal": ([], ["minimal", *ENNEPER], 0,
        "ada5950adb37d05a6dce10e00ed6a9396897f758e5e6851448a95cfee964f51f"),
    "cmc1-mu-json": ([], GRID, 0,
        "bd895919d6f4ebea7f2abba496dba181d2584dc44681a6b44b33ac9886603e75"),
    "cmc1-nu-csv": ([], ["cmc1", *ENNEPER, "--action", "nu", "--out", "s.csv"], 0,
        "e31b4595f5329e54347ef96dfc3fb0b69046ddf4187407e470a96d78bb444b4b"),
    "lax-mu-obj": ([], ["lax", *LIOUVILLE, "--out", "s.obj"], 0,
        "12d43c438466be55db7e688428f7e79957ee834d80c8f53f66d37718539a54df"),
    "lax-flipped": ([], ["lax", *LIOUVILLE, "--flip-normal"], 0,
        "cff580864988be1372838dfbf81891304f9c61dc19fae52c73adad74dfe4b08f"),
    "gauss": ([], ["gauss", *LIOUVILLE, "--out", "g.json"], 0,
        "2e1cb03075c40e816bc92ff78aa4a657e410b74e90fc8a58f9406e784f79a73a"),
    "verify": ([GRID], ["verify", "grid.json", "--H", "1"], 0,
        "9c712c42d638a0f025085003abe6b04dcaa3bd4a08cddec46f735b35e7966d55"),
    "project-plus-json": ([GRID], PROJECTED, 0,
        "43912bfcdc7982e8c27c8254e98f682f89c90681237ef9b848aa27549d68e177"),
    "project-minus-obj": ([GRID], ["project", "grid.json", "--pole", "minus", "--out", "p.obj"], 0,
        "c825c9838916ea1676117954eb8970685579f8fdca0bd50cfc2505ed5707571f"),
    "verify-projected": ([GRID, PROJECTED], ["verify", "proj.json"], 1,
        "7d572f891be4ad31efc1217722d3fdd84192454d7fdb82cc19f9ceb6df06acdd"),
    "gallery-fail": ([], ["gallery", "b-scroll", *SMALL], 1,
        "5a1bcb5605ce04676d567ea89d01c35aebea35f843647bcc633303e34fa76d87"),
    "gallery-minimal-json": ([], ["gallery", "minimal-enneper", "--domain", "-0.3", "0.3",
                                  "-0.3", "0.3", "--nu", "31", "--nv", "31",
                                  "--out", "m.json"], 0,
        "c2d77650d967ee621e83556eb2b5186bce90f8bea3cbf1cd17f525bb6b86ce58"),
}


# the parser is shared by every main() call of a process: a nu run must
# leave a following plain run printing exactly the mu output
CASES["cmc1-mu-json-after-nu"] = ([["cmc1", *ENNEPER, "--action", "nu"]], GRID, 0,
                                  CASES["cmc1-mu-json"][3])


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden_digest(tmp_path, monkeypatch, capsys, name):
    setup, argv, code, digest = CASES[name]
    monkeypatch.chdir(tmp_path)
    for pre in setup:
        assert main(pre) == 0
    capsys.readouterr()
    assert main(argv) == code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_cmc1_nu_prints_the_mu_output(capsys):
    # the nu assembly is the mu product F1 F2^T under another label, and
    # stdout does not print the label
    outs = []
    for extra in ([], ["--action", "nu"]):
        assert main(["cmc1", *ENNEPER, *extra]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


def test_cmc1_nu_writes_the_mu_json_but_its_label(tmp_path, capsys):
    # the benchmark's nu job relies on this: the same grid, labelled nu
    paths = [tmp_path / "mu.json", tmp_path / "nu.json"]
    for path, extra in zip(paths, ([], ["--action", "nu"])):
        assert main(["cmc1", *ENNEPER, *extra, "--out", str(path)]) == 0
    mu, nu = (p.read_bytes() for p in paths)
    assert mu.count(b'"assembly":"mu"') == 1
    assert nu == mu.replace(b'"assembly":"mu"', b'"assembly":"nu"')
