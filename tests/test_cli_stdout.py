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
        "8e958e89db7607f11fbd0a16b4b859d98f5920383ad3472c0e10ced2b2e083ff"),
    "cmc1-mu-json": ([], GRID, 0,
        "0c056d0cac858de3fe1f508596e31ff3e9fc13b46148f27a1d9e4988b16d51fa"),
    "cmc1-nu-csv": ([], ["cmc1", *ENNEPER, "--action", "nu", "--out", "s.csv"], 0,
        "9e4e87777305aa24741f25d8327e6a784dc8697eb13660cc7f42094784b2a319"),
    "lax-mu-obj": ([], ["lax", *LIOUVILLE, "--out", "s.obj"], 0,
        "fc6ca27a3a2c50779cfae3bed52fe09e501772e9e8f06007c95887a133832ec0"),
    "lax-nu-flipped": ([], ["lax", *LIOUVILLE, "--action", "nu", "--flip-normal"], 0,
        "9a205808db693c64f9c55350be70ba6a266dca8f76b6278e81af1c3547820d09"),
    "gauss": ([], ["gauss", *LIOUVILLE, "--out", "g.json"], 0,
        "d368bec9510d95cbc6a9bd7c02584a751c6652537943399ec75514457a391094"),
    "verify": ([GRID], ["verify", "grid.json", "--H", "1"], 0,
        "623b46f6512b50e41ed75736e63c84f374ed1d31335e5340ea1c9c34d66ffb35"),
    "project-plus-json": ([GRID], PROJECTED, 0,
        "e0cda421f75f2d13b33c3b5899290b80d32def57762b1c66e8d9e0de976134f0"),
    "project-minus-obj": ([GRID], ["project", "grid.json", "--pole", "minus", "--out", "p.obj"], 0,
        "c825c9838916ea1676117954eb8970685579f8fdca0bd50cfc2505ed5707571f"),
    "verify-projected": ([GRID, PROJECTED], ["verify", "proj.json"], 1,
        "157b41cdb951e97a9cc1de907afce4501f2aaa0a351e0f1b16c62e9320378ac4"),
    "gallery-fail": ([], ["gallery", "b-scroll", *SMALL], 1,
        "5a1bcb5605ce04676d567ea89d01c35aebea35f843647bcc633303e34fa76d87"),
    "gallery-minimal-json": ([], ["gallery", "minimal-enneper", "--domain", "-0.3", "0.3",
                                  "-0.3", "0.3", "--nu", "31", "--nv", "31",
                                  "--out", "m.json"], 0,
        "c2d77650d967ee621e83556eb2b5186bce90f8bea3cbf1cd17f525bb6b86ce58"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden_digest(tmp_path, monkeypatch, capsys, name):
    setup, argv, code, digest = CASES[name]
    monkeypatch.chdir(tmp_path)
    for pre in setup:
        assert main(pre) == 0
    capsys.readouterr()
    assert main(argv) == code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
