"""Every tolerance is a live policy: some code under src/adscmc reads it.

A Tolerances field that nothing reads is still a --tol key, so a run
could set it and see no effect.  Removing its last reader must remove
the field too.
"""

import dataclasses
import re
from pathlib import Path

import adscmc
from adscmc.config import Tolerances

SRC = Path(adscmc.__file__).resolve().parent


def test_every_tolerance_field_is_read_in_the_package():
    text = "\n".join(p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py")))
    read = set(re.findall(r"\btol\.(\w+)", text))
    unread = [f.name for f in dataclasses.fields(Tolerances) if f.name not in read]
    assert unread == []
