"""Every tolerance is a live policy: some code under src/adscmc reads it.

A Tolerances field that nothing reads is still a --tol key, so a run
could set it and see no effect.  Removing its last reader must remove
the field too.  A NaN or negative value would silently pass or mask
every point, so Tolerances refuses it by name.
"""

import dataclasses
import math
import re
from pathlib import Path

import pytest

import adscmc
from adscmc.config import DEFAULT_TOL, Tolerances

SRC = Path(adscmc.__file__).resolve().parent


def test_every_tolerance_field_is_read_in_the_package():
    text = "\n".join(p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py")))
    read = set(re.findall(r"\btol\.(\w+)", text))
    unread = [f.name for f in dataclasses.fields(Tolerances) if f.name not in read]
    assert unread == []


@pytest.mark.parametrize("value", [float("nan"), -1.0, -1e-300])
def test_nan_or_negative_tolerance_is_refused_and_named(value):
    with pytest.raises(ValueError, match="tolerance conf "):
        Tolerances(conf=value)
    with pytest.raises(ValueError, match="tolerance degen "):
        DEFAULT_TOL.with_(degen=value)


def test_infinite_tolerance_turns_a_gate_off():
    assert Tolerances(compat=math.inf).compat == math.inf
