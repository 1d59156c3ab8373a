import importlib

import pytest

from adscmc import fundamental_data, geometry

_gallery = importlib.import_module("adscmc.gallery")

H31_NAMES = ("enneper-isothermic", "enneper-anti", "b-scroll", "horosphere")
E31_NAMES = ("minimal-enneper", "minimal-b-scroll")

# Window where every closed-form gallery surface is far from its
# degeneracies (1 + uv = 0 for the Enneper pair).
STD_DOMAIN = (-0.75, 0.75, -0.75, 0.75)
STD_N = 51

# blocks of 1, 2, 3 and 7 rows, and one block covering the grid (None)
SEAM_ROWS = (1, 2, 3, 7, None)


def each_row_block(monkeypatch, nu, nv):
    """Patch geometry.BLOCK_POINTS to each of SEAM_ROWS rows of nv points
    in turn (None: all nu rows), yielding the rows."""
    for rows in SEAM_ROWS:
        monkeypatch.setattr(geometry, "BLOCK_POINTS", (rows or nu) * nv)
        yield rows


@pytest.fixture(scope="session")
def std_surfaces():
    """Gallery surfaces at h = 3e-2 with their measured geometry."""
    out = {}
    for name in H31_NAMES + E31_NAMES:
        entry = _gallery.gallery(name)
        surface = _gallery.oracle_surface(entry, STD_DOMAIN, STD_N, STD_N)
        out[name] = (entry, surface, fundamental_data(surface))
    return out


@pytest.fixture(scope="session")
def gallery_module():
    return _gallery
