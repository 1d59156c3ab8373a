"""Curvature measurement, residual gates, and the parallel-shift identities."""

import dataclasses
import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from adscmc import geometry
from adscmc.gallery import DEFAULT_DOMAIN
from adscmc.gaussmaps import gauss_conformality_check
from adscmc.geometry import (
    DEFAULT_TOL,
    FundamentalData,
    SurfaceGrid,
    central_difference,
    fundamental_data,
    geometry_report,
    lawson_shift,
    lawson_shift_residual,
    second_form_residual,
    umbilic_detect,
)
from adscmc.lax import GmcData, gmc_residual

from conftest import E31_NAMES, H31_NAMES, STD_DOMAIN, each_row_block


def _core(fd):
    return fd.core(DEFAULT_TOL)


def _finite_max(arr, sel):
    # second-difference residuals are NaN on a deeper boundary ring than
    # the core mask removes, so statistics must drop non-finite entries
    keep = sel & np.isfinite(arr)
    assert np.any(keep)
    return float(np.max(np.abs(arr[keep])))


@pytest.mark.parametrize("name", H31_NAMES + E31_NAMES)
def test_gallery_invariants_match_expected_values(name, std_surfaces):
    entry, _, fd = std_surfaces[name]
    core = _core(fd)
    assert np.max(np.abs(fd.H - entry.expected["H"])[core]) < 5e-5
    # Q and R come out of second differences, so they carry an h^2 floor
    # that H does not (measured ~1.5e-3 at h = 0.03 on the cubic-growth
    # entries, exact to rounding on the ruled ones).
    assert np.max(np.abs(fd.Q - entry.expected["Q"])[core]) < 5e-3
    assert np.max(np.abs(fd.R - entry.expected["R"])[core]) < 5e-3


@pytest.mark.parametrize("name", ["b-scroll", "horosphere", "minimal-b-scroll"])
def test_ruled_and_orbit_surfaces_close_the_gauss_equation(name, std_surfaces):
    _, _, fd = std_surfaces[name]
    assert _finite_max(fd.gauss_eq, _core(fd)) < 1e-10


def test_orbit_coordinate_curves_are_null_to_rounding(std_surfaces):
    _, _, fd = std_surfaces["horosphere"]
    core = _core(fd)
    assert _finite_max(fd.conf_u, core) < 1e-12
    assert _finite_max(fd.conf_v, core) < 1e-12


@pytest.mark.parametrize("name", ["b-scroll", "minimal-b-scroll"])
def test_scroll_rulings_are_null_while_the_base_carries_the_floor(name, std_surfaces):
    _, _, fd = std_surfaces[name]
    core = _core(fd)
    # straight rulings along v differentiate exactly; the cubic base
    # curve picks up the h^2/3 <psi_u, psi_uuu> term of the central
    # difference (3.0e-4 at h = 0.03)
    assert _finite_max(fd.conf_v, core) < 1e-12
    assert 1e-5 < _finite_max(fd.conf_u, core) < 5e-4


@pytest.mark.parametrize("name", ["horosphere", "minimal-b-scroll"])
def test_flat_second_form_reconstruction_is_exact(name, std_surfaces):
    _, _, fd = std_surfaces[name]
    resid = second_form_residual(fd)
    assert np.nanmax(np.abs(resid)) < 1e-11


def test_second_form_residual_carries_the_differencing_floor(std_surfaces):
    _, _, fd = std_surfaces["b-scroll"]
    resid = second_form_residual(fd)
    assert np.nanmax(np.abs(resid)) < 1e-3


@pytest.mark.parametrize("name", ["b-scroll", "minimal-enneper"])
def test_orientation_flip_negates_curvatures_only(name, std_surfaces):
    _, surface, fd = std_surfaces[name]
    flipped = fundamental_data(surface, flip_normal=True)
    core = _core(fd)
    assert _finite_max(flipped.H + fd.H, core) == 0.0
    assert _finite_max(flipped.Q + fd.Q, core) == 0.0
    assert _finite_max(flipped.R + fd.R, core) == 0.0
    assert _finite_max(flipped.gauss_eq - fd.gauss_eq, core) == 0.0
    assert _finite_max(flipped.conf_u - fd.conf_u, core) == 0.0
    assert _finite_max(flipped.metric - fd.metric, core) == 0.0


def _frame_det(surface, normal):
    """det[x, x_u - x_v, x_u + x_v, N] (H31) or det[x_u - x_v, x_u + x_v, N]
    (E31) on the grid interior, from central differences."""
    x = surface.points
    hu = surface.us[1] - surface.us[0]
    hv = surface.vs[1] - surface.vs[0]
    xu = (x[2:, 1:-1] - x[:-2, 1:-1]) / (2.0 * hu)
    xv = (x[1:-1, 2:] - x[1:-1, :-2]) / (2.0 * hv)
    rows = [xu - xv, xu + xv, normal[1:-1, 1:-1]]
    if surface.ambient == "H31":
        rows.insert(0, x[1:-1, 1:-1])
    return np.linalg.det(np.stack(rows, axis=-2))


@pytest.mark.parametrize("name", H31_NAMES + E31_NAMES)
def test_normal_has_the_positive_frame_orientation(name, std_surfaces):
    # fundamental_data orients the normal by a closed-form sign, not a
    # determinant; the convention it must meet is checked here directly
    _, surface, fd = std_surfaces[name]
    finite = np.all(np.isfinite(fd.normal[1:-1, 1:-1]), axis=-1)
    assert finite.sum() > 0.9 * finite.size
    assert np.all(_frame_det(surface, fd.normal)[finite] > 0.0)
    flipped = fundamental_data(surface, flip_normal=True)
    assert np.all(_frame_det(surface, flipped.normal)[finite] < 0.0)


@pytest.mark.parametrize("name", ["enneper-isothermic", "minimal-enneper"])
def test_tangents_are_views_of_the_differenced_planes(name, std_surfaces):
    # the Gauss maps difference the tangents again through fd.tangents(),
    # so they must be exactly the central differences of the points (the
    # planes the block kernel differenced; they are no longer stored)
    _, surface, fd = std_surfaces[name]
    for got, h, axis in zip(fd.tangents(), (fd.hu, fd.hv), (0, 1)):
        want = central_difference(surface.points, h, axis)
        assert np.array_equal(got, want, equal_nan=True)


# the (nu, nv) grids a measurement stores besides its mask and normal
GRID_FIELDS = ("metric", "omega", "H", "Q", "R", "K", "K_shape", "conf_u", "conf_v",
               "gauss_eq", "sff")


@pytest.mark.parametrize("name", ["enneper-isothermic", "minimal-enneper"])
def test_measurement_stores_one_component_plane(name, std_surfaces):
    # the memory contract: the eleven grids, the mask and the normal,
    # whose (c, nu, nv) planes are the only ones a measurement keeps
    _, surface, fd = std_surfaces[name]
    arrays = {key: a for key, a in vars(fd).items() if isinstance(a, np.ndarray)}
    assert sorted(arrays) == sorted(GRID_FIELDS + ("mask", "normal"))
    for key in GRID_FIELDS + ("mask",):
        assert arrays[key].shape == surface.shape, key
    planes = fd.normal.base
    assert fd.normal.shape == surface.points.shape
    assert planes.shape == (surface.points.shape[-1],) + surface.shape
    assert planes.flags.c_contiguous and np.shares_memory(fd.normal, planes)


@pytest.mark.parametrize("name, domain", [("enneper-isothermic", DEFAULT_DOMAIN),
                                          ("minimal-enneper", STD_DOMAIN)])
def test_tangents_are_the_block_kernel_differences(name, domain, gallery_module,
                                                   monkeypatch):
    # each block differences the tangents of its rows [a - 1, b + 1) for
    # the normal (the last two operands of cross4 / cross3); fd.tangents()
    # must give those bits at every block size
    surface = gallery_module.oracle_surface(name, domain, SEAM_NU, SEAM_NV)
    cross = "cross4" if surface.ambient == "H31" else "cross3"
    kernel = getattr(geometry, cross)
    seen = []

    def spy(*operands, out):
        seen.append([np.copy(t) for t in operands[-2:]])
        return kernel(*operands, out=out)

    monkeypatch.setattr(geometry, cross, spy)
    for rows in each_row_block(monkeypatch, SEAM_NU, SEAM_NV):
        seen.clear()
        tangents = [np.moveaxis(t, -1, 0) for t in fundamental_data(surface).tangents()]
        blocks = geometry.row_blocks(SEAM_NU, SEAM_NV)
        assert len(seen) == len(blocks), rows
        for (a, b), block in zip(blocks, seen):
            s0, s1 = max(a - 1, 0), min(b + 1, SEAM_NU)
            for want, got in zip(tangents, block):
                assert np.array_equal(got, want[:, s0:s1], equal_nan=True), (rows, a)


# sha256 of each field, NaN made canonical.  The first eight fields of the
# two Enneper entries were measured with the normal oriented by a
# per-point frame determinant, everything else with the einsum products
# that the component-plane sums replaced: the closed-form sign and the
# plane layout must reproduce every bit.  The stdout digests pin only the
# maxima.
FD_FIELDS = ("normal", "H", "Q", "R", "K", "K_shape", "gauss_eq", "sff", "metric", "conf_u",
             "conf_v")
FD_DIGESTS = {
    ('enneper-isothermic', False): {
        'normal': '052e3487c6de02abab3ae61d9870ae79b6bc12a9f4fc245e0995156bc29405f5',
        'H': 'fa230c110b6a98021b3a09bcd3b99c3b6503d64bc7ec02f6276bebd44f865f34',
        'Q': 'c1cee9fb993522d76bd2f12401a58cdd994bf4bf7770681091e76b18b5d51a0a',
        'R': '93c8d833f9c25241d937aae5115e9d71db4153a16cc070d1f0a489440b4b2e2f',
        'K': 'f4c105209c9384e20bd3b70afd5e1eeb12e892264f582498ecb7534723faeb6b',
        'K_shape': '5c86c965c27ff152becc37cad4b0e14e347725fff9a1913eb9a06982d697ec37',
        'gauss_eq': 'b0c98452752b73155ee8367e07e89451be9065c70d92f937c4939bc99dbcec85',
        'sff': 'bc67f99ea1c0d6b34a4b61af3fd19fdd96456b11acaa6ff2fa9d1db108d2fe2b',
        'metric': 'b66ebe74f1c76c8b500fb9cda841362383532198ac9c224a952c00cfff5e5434',
        'conf_u': '2926a498309dde6bcedf5c2992ff41d556ca271ad2b1e3d7f58f1b7e07339f0c',
        'conf_v': '128bc4db924ac19bef6c129b214299ac092d804f5c4733df5e01c6e342548a02',
    },
    ('enneper-isothermic', True): {
        'normal': 'db8ed01650b358c0b23326097f480017c36ed0c6013a7ddda96a377737d9d3e7',
        'H': '8e99cbf2e22f9b4bce446065677b4151dc2c8c4791e3640d50582364f096c825',
        'Q': '9d904c5d8b22774f13efc74167161907b8a3d2b1af1e07e130d120f27770597a',
        'R': '6a24ebe1f7e2dfbf67fe9ecb66b30aaf92cdf08f49453213cbf47e67a7813f62',
        'K': 'f4c105209c9384e20bd3b70afd5e1eeb12e892264f582498ecb7534723faeb6b',
        'K_shape': '5c86c965c27ff152becc37cad4b0e14e347725fff9a1913eb9a06982d697ec37',
        'gauss_eq': 'b0c98452752b73155ee8367e07e89451be9065c70d92f937c4939bc99dbcec85',
        'sff': 'bc67f99ea1c0d6b34a4b61af3fd19fdd96456b11acaa6ff2fa9d1db108d2fe2b',
        'metric': 'b66ebe74f1c76c8b500fb9cda841362383532198ac9c224a952c00cfff5e5434',
        'conf_u': '2926a498309dde6bcedf5c2992ff41d556ca271ad2b1e3d7f58f1b7e07339f0c',
        'conf_v': '128bc4db924ac19bef6c129b214299ac092d804f5c4733df5e01c6e342548a02',
    },
    ('enneper-anti', False): {
        'normal': '876cfdea14dd5432691b88d47038014ba44315d27880300e9987b015e109625d',
        'H': '56eb709ab2f26ecaad906182d0884df2f51d0451476ac4297ab133424454229f',
        'Q': '3533fa0c1ffede9e8102d8d05a110b837c1550248056a78d18775c21685673b2',
        'R': '916c9c65892e9376591a9f4357c1bc22425b0478c37fdc9dffe820e2997fb29d',
        'K': 'cc9d41616ea51069a12c3cfac453d8411b2b9a0890fc810a1f94ea504c22710b',
        'K_shape': 'f6621a7345e74b4da42884e3d624efdbddcb81d377ebd0cd35dcd3f865df7d1a',
        'gauss_eq': '3e9b4da7799f06f6311e35eb0c58a94fda24fba87d88ac867ece3c2495fba068',
        'sff': 'cfbdfd1a24ba3e971cac6974709801122c5f88151b1bdb611003d8a41c8869cc',
        'metric': 'ffebe80d4c666cf8053f3155d13bdd3d6b0371b61e97d15c93b37f2575c90a24',
        'conf_u': '612a6eb850915ebc1c8877750c87a203513bdeb160389806b374aa1398c6815d',
        'conf_v': 'ddc459e620fe814efb94a737e1167f82198d3006e902ade53e279e6b8b42acfb',
    },
    ('enneper-anti', True): {
        'normal': '61ecc15d9b0c1b9b9022cbac4fad79581691bdc822518501d0624228919849ae',
        'H': '1073eba6f54d8645cecff7250e8af81f916b596923d201943878918b396934f9',
        'Q': '77640923c9cf8248e80bd3136059175bbf48e78f6d26438d18ec3a84b63bab2e',
        'R': '78db9be0297b597a0eca4a43dbd5c64ba6c10599209f6fd6e5122cbe6a29026a',
        'K': 'cc9d41616ea51069a12c3cfac453d8411b2b9a0890fc810a1f94ea504c22710b',
        'K_shape': 'f6621a7345e74b4da42884e3d624efdbddcb81d377ebd0cd35dcd3f865df7d1a',
        'gauss_eq': '3e9b4da7799f06f6311e35eb0c58a94fda24fba87d88ac867ece3c2495fba068',
        'sff': 'cfbdfd1a24ba3e971cac6974709801122c5f88151b1bdb611003d8a41c8869cc',
        'metric': 'ffebe80d4c666cf8053f3155d13bdd3d6b0371b61e97d15c93b37f2575c90a24',
        'conf_u': '612a6eb850915ebc1c8877750c87a203513bdeb160389806b374aa1398c6815d',
        'conf_v': 'ddc459e620fe814efb94a737e1167f82198d3006e902ade53e279e6b8b42acfb',
    },
    ('b-scroll', False): {
        'normal': '0db0f4b300fef425be9c22fc52fa1aa4e3e0d3a75e1d799df01c3b618443b938',
        'H': '7cc3b460740965f853ca62377f2fd733f3cb361a227bd34871abf916fae1aa86',
        'Q': 'a3047a218b67f4141cab47fe45f457059b64384b38de7cb49355a1b90e3266ef',
        'R': '6ed3b235e22330f7495e69a8a4901bdf5150818a80169ccdd64aa49b8f159eca',
        'K': '625640cf4a7f4ed9ac21b95d20c8a5d4756f6aa9885b2bfa2ab103c42e71fcb8',
        'K_shape': 'f5645f48e8f6b1a01629612e79263f8fb2ff4cccf50bbaf95b61ab8890f5f350',
        'gauss_eq': 'caf51507aff45a9e86fecb7fcf0d0a171510375f62e874912e52ec025959daa3',
        'sff': 'ce0833c51cda223281c983adcb2e67e84c1e8e4d4bd5f626f1dc1fe79a5bcae0',
        'metric': 'e87db16aa77311e8e160aa096232ac9a98c3e58f1adb6abd5da898f1b61db0af',
        'conf_u': 'ff6565166d2bcf79e490c3d765ef736274e9b9439da65da5a15f0218b1f3ad4d',
        'conf_v': 'edea48acb55e7ce1baae5eb81a159e9fdd407aa43e186a901b79a7f1031b6507',
    },
    ('b-scroll', True): {
        'normal': '20d6f54498b24ba583fa55c958353eec2c8796ed59468c6004ecb9b3c49f1760',
        'H': 'f36fdc5e76586aa0b48b3c4096dc99004ea1384c3b78559ed1697d0b3c44dedd',
        'Q': 'f7e6759cf8aa35122ae6074922f34f1f55134c3177130554a5c2c2d5e5fda143',
        'R': '083324bb2fb92a8a1e8d169e9ab7ee12057cbf2513f702aaaefc63539236c435',
        'K': '625640cf4a7f4ed9ac21b95d20c8a5d4756f6aa9885b2bfa2ab103c42e71fcb8',
        'K_shape': 'f5645f48e8f6b1a01629612e79263f8fb2ff4cccf50bbaf95b61ab8890f5f350',
        'gauss_eq': 'caf51507aff45a9e86fecb7fcf0d0a171510375f62e874912e52ec025959daa3',
        'sff': 'ce0833c51cda223281c983adcb2e67e84c1e8e4d4bd5f626f1dc1fe79a5bcae0',
        'metric': 'e87db16aa77311e8e160aa096232ac9a98c3e58f1adb6abd5da898f1b61db0af',
        'conf_u': 'ff6565166d2bcf79e490c3d765ef736274e9b9439da65da5a15f0218b1f3ad4d',
        'conf_v': 'edea48acb55e7ce1baae5eb81a159e9fdd407aa43e186a901b79a7f1031b6507',
    },
    ('horosphere', False): {
        'normal': 'c64e66d24df2dd04f93745634a087e1fb45dbbc3b0b10dbc3ae30177fd9f9f22',
        'H': 'da1bcdee7aa9ed27fec3ad63cea0b7c86c9289fde3a6467c1f89e93ef3092efc',
        'Q': '77db556902f02754c0ecfc4077a9632778e563909ef08779855a4c738e074f04',
        'R': '2dc6d69ae5ae02a9fa0c72613f4901a5403a90c75c933a3c889a447434b40b26',
        'K': '50790b1b126d41ec74f1f1d18f8f39ae29c9f293467162af3bddd10905239ca6',
        'K_shape': '1264b203addb1695ce6a98454c887fbf375bb7dd9587f051f5f862571bec6d58',
        'gauss_eq': 'f637de5489e791012502b19e5ba3de0d94f6de4190a7c2da9e6184dab0b16e8a',
        'sff': '65a83216924a7e30581ae5aced574e78fde38577413718b9b5daf76e7e654272',
        'metric': 'b04fb5d98995d5ecbc63a5c16346ce23f7f8cd3da70d6566ee4cd9c7e9b90431',
        'conf_u': 'd26597b7554cc5f1f7a24c0d5cfb3d6ae75ff2dc6e4572c90c5a1959752a79a7',
        'conf_v': '2cddc2dfeddbb83069b2fcaffcb8a4c299eaca8ec8337dfc7ad5017bdecb78d7',
    },
    ('horosphere', True): {
        'normal': 'b8b090451875d5e375edb1728f0458e42289af307aaa64e2e0dfb7d1f7491110',
        'H': '17a28ef124310b1c9acb678ed3bcb20eb29f9a5e4fd24bf55b49bcff3cca39d6',
        'Q': '95d2e86509c33401ad7e0daf87459c33d9d0cd560a1b633a71f057a717b74135',
        'R': '9d313678ba5e2a755e8a3c03e9ce8a0c76ee72abfca43cc5b6f8c90cdefccc52',
        'K': '50790b1b126d41ec74f1f1d18f8f39ae29c9f293467162af3bddd10905239ca6',
        'K_shape': '1264b203addb1695ce6a98454c887fbf375bb7dd9587f051f5f862571bec6d58',
        'gauss_eq': 'f637de5489e791012502b19e5ba3de0d94f6de4190a7c2da9e6184dab0b16e8a',
        'sff': '65a83216924a7e30581ae5aced574e78fde38577413718b9b5daf76e7e654272',
        'metric': 'b04fb5d98995d5ecbc63a5c16346ce23f7f8cd3da70d6566ee4cd9c7e9b90431',
        'conf_u': 'd26597b7554cc5f1f7a24c0d5cfb3d6ae75ff2dc6e4572c90c5a1959752a79a7',
        'conf_v': '2cddc2dfeddbb83069b2fcaffcb8a4c299eaca8ec8337dfc7ad5017bdecb78d7',
    },
    ('minimal-enneper', False): {
        'normal': 'a70ec4123dd228bd953dcfc735e324eac6ba067713e195785ac9562ce9436c8c',
        'H': '714578e26d3606280972ed100444878b4198299dfb5c3e6e7e99fa70b06b41d7',
        'Q': '75dab1ea5314a37aab4fe2000fd5224b79af1d110dfc79f0cc2550507d189361',
        'R': 'd5ec361f37cc586c01b1c27f3ea45e6c06b3658b775af47c9aadb02c8a9c8f37',
        'K': '410992ec775faf0d363b6b139a2fc1f9a345ea94254392507e81c1006d281926',
        'K_shape': '76dd2430672fb712d0e01b7b56a1e8e03d5c21278798b6a229c04573922ae439',
        'gauss_eq': '22c097c4caa9753178d957fce6a85f28cd5528b37fced3ad26000fcf513294d6',
        'sff': '179a2abe32fa8adad3109552479a92f1ea4277d4dcb1fe9ec7412b466d75cc09',
        'metric': '77515303ed1dd43a29eee2520f7f21d458bc11b80497c5fc794697d85a8b9bf6',
        'conf_u': 'aef2088e28e7410f2295b76164f69ec628df5233c4cf8136f0cfa83984890ed3',
        'conf_v': '4335ccd0977eb08dd32ff908833b3874bd27f15cd2033ded37ec5d44c217f711',
    },
    ('minimal-enneper', True): {
        'normal': 'e58697f6601b45275f99e9d05b35f0925ea71f3fbc82849352237b9d98d15539',
        'H': 'dccdab48741951498315d4250439e7ec076fc98c034ba483af3261e60bbf3e02',
        'Q': 'bb900e3ccb1f2730bb873ed4ab5a4f7fe24f3f5793282ac44cae96c95d3685b4',
        'R': '4b894b779cfdb1c428b3ae0220876c76ad4bc9ea29e168006c583ef12a2eb911',
        'K': '410992ec775faf0d363b6b139a2fc1f9a345ea94254392507e81c1006d281926',
        'K_shape': '76dd2430672fb712d0e01b7b56a1e8e03d5c21278798b6a229c04573922ae439',
        'gauss_eq': '22c097c4caa9753178d957fce6a85f28cd5528b37fced3ad26000fcf513294d6',
        'sff': '179a2abe32fa8adad3109552479a92f1ea4277d4dcb1fe9ec7412b466d75cc09',
        'metric': '77515303ed1dd43a29eee2520f7f21d458bc11b80497c5fc794697d85a8b9bf6',
        'conf_u': 'aef2088e28e7410f2295b76164f69ec628df5233c4cf8136f0cfa83984890ed3',
        'conf_v': '4335ccd0977eb08dd32ff908833b3874bd27f15cd2033ded37ec5d44c217f711',
    },
    ('minimal-b-scroll', False): {
        'normal': '7903a019d6497086a02729688db3a22212f59c8d5aab4c5f78b565aae1684edb',
        'H': 'e35bf913854ebdd46d53126e12ad9df8a3f054b9c24e27d30dbd023302607f6d',
        'Q': '70eb1e5cf75d4831ee2a730ccaac1d5fcc687733fc9dbd697b8c82687dfb5482',
        'R': '3d59a4807333f049fbbf1381e5680de41be3d387cbedfabee1a6ab4dc516a4cf',
        'K': '085a78c41901856f73e452bfd6c389e00d07d5cf4e89e402a7466af30cf2d598',
        'K_shape': 'd3b340f6e79d97e87cbbebe04a3f9863bb913a5fab5fe6b979f6e1778ff6a45a',
        'gauss_eq': '8cead7daff271754c673431d4f1c076d59a652532a4060190c92f713384048d1',
        'sff': '0b2c7f2a136a5968a1ac3c62d7c6ce2d79dc1d8e7e8d5883c9fefb05dad6a889',
        'metric': '874ea79ba69297af23b783fbca1f9594505f733ecad69057877547a368ce5cfb',
        'conf_u': '132f0cc0a4d5945f4e843e8399a7a06cbf34ac338cc0ae7bd36e8b670eb06497',
        'conf_v': 'e54629d5832b02ee91b35e3a2871282b6d80e6433e0476de0b81c0052011f109',
    },
    ('minimal-b-scroll', True): {
        'normal': 'c2d84b2b026a8d357e431b16fd8ab9667337a954ba26b17c14e329511a65d728',
        'H': '69aab1f86a414beb42e7888d5cafa64150878e5c1535a7fcfacf0544d6d9dc52',
        'Q': 'c3bad4c949dd29022be845e92129e25c42ebd9a13b9ff7845fbacfe5afb680f7',
        'R': 'aae5b6b3828b64014a18348829af2ee264b7ce1cc30534f9f802e839766c8614',
        'K': '085a78c41901856f73e452bfd6c389e00d07d5cf4e89e402a7466af30cf2d598',
        'K_shape': 'd3b340f6e79d97e87cbbebe04a3f9863bb913a5fab5fe6b979f6e1778ff6a45a',
        'gauss_eq': '8cead7daff271754c673431d4f1c076d59a652532a4060190c92f713384048d1',
        'sff': '0b2c7f2a136a5968a1ac3c62d7c6ce2d79dc1d8e7e8d5883c9fefb05dad6a889',
        'metric': '874ea79ba69297af23b783fbca1f9594505f733ecad69057877547a368ce5cfb',
        'conf_u': '132f0cc0a4d5945f4e843e8399a7a06cbf34ac338cc0ae7bd36e8b670eb06497',
        'conf_v': 'e54629d5832b02ee91b35e3a2871282b6d80e6433e0476de0b81c0052011f109',
    },
}


def _digest(a):
    a = np.where(np.isnan(a), np.nan, a)
    return hashlib.sha256(np.ascontiguousarray(a, dtype="<f8").tobytes()).hexdigest()


@pytest.mark.parametrize("name, flip", sorted(FD_DIGESTS))
def test_fundamental_data_is_pinned_point_by_point(name, flip, std_surfaces):
    _, surface, fd = std_surfaces[name]
    if flip:
        fd = fundamental_data(surface, flip_normal=True)
    got = {field: _digest(getattr(fd, field)) for field in FD_FIELDS}
    assert got == FD_DIGESTS[(name, flip)]


# tracemalloc peak of fundamental_data over points.nbytes on 401 x 41 and
# 1601 x 41 strips, as measured by these tests with the grid measured in
# row blocks written straight into the outputs and the tangents kept in
# block buffers (8.051 and 4.828 in H31, 9.058 and 5.767 in E31) plus a
# 2% margin: the geometry peak must not rise above it.  One more (nu, nv)
# plane is 1/4 (H31) or 1/3 (E31) of points.nbytes, more than the margin,
# so it shows.  The outputs alone are 3.78 (H31) and 4.71 (E31) of
# points.nbytes.
PEAK_RATIO_BOUND = {"enneper-isothermic": 8.22, "minimal-enneper": 9.24}
LONG_PEAK_RATIO_BOUND = {"enneper-isothermic": 4.93, "minimal-enneper": 5.89}


def _peak_ratio(gallery_module, name, nu):
    surface = gallery_module.oracle_surface(gallery_module.gallery(name), STD_DOMAIN, nu, 41)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fundamental_data(surface)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return peak / surface.points.nbytes


@pytest.mark.parametrize("name", sorted(PEAK_RATIO_BOUND))
def test_fundamental_data_peak_memory_stays_flat(name, gallery_module):
    assert _peak_ratio(gallery_module, name, 401) <= PEAK_RATIO_BOUND[name]


@pytest.mark.parametrize("name", sorted(LONG_PEAK_RATIO_BOUND))
def test_fundamental_data_peak_does_not_grow_with_the_grid(name, gallery_module):
    # a full-grid intermediate would hold the ratio level as the strip
    # grows four times longer; block intermediates make it fall
    long_ratio = _peak_ratio(gallery_module, name, 1601)
    assert long_ratio <= LONG_PEAK_RATIO_BOUND[name]
    assert long_ratio <= _peak_ratio(gallery_module, name, 401)


# 25 rows leave a part block at the end for blocks of 2, 3 and 7 rows
# (SEAM_ROWS), and on the default domain the node (u, v) = (1, -1) lies on
# the Enneper pair's degenerate line 1 + uv = 0, so that grid carries
# masked points
SEAM_NU, SEAM_NV = 25, 13
FD_ARRAYS = tuple(f.name for f in dataclasses.fields(FundamentalData)
                  if f.name not in ("surface", "hu", "hv"))


@pytest.mark.parametrize("name, domain", [("enneper-isothermic", DEFAULT_DOMAIN),
                                          ("minimal-enneper", STD_DOMAIN)])
@pytest.mark.parametrize("flip", [False, True])
def test_row_blocks_leave_no_seam(name, domain, flip, gallery_module, monkeypatch):
    surface = gallery_module.oracle_surface(name, domain, SEAM_NU, SEAM_NV)
    assert surface.mask.any() == (domain == DEFAULT_DOMAIN)
    want = fundamental_data(surface, flip_normal=flip)
    for rows in each_row_block(monkeypatch, SEAM_NU, SEAM_NV):
        got = fundamental_data(surface, flip_normal=flip)
        for field in FD_ARRAYS:
            assert np.array_equal(getattr(got, field), getattr(want, field),
                                  equal_nan=True), (rows, field)


@pytest.mark.parametrize("sign", ["plus", "minus"])
def test_gauss_conformality_blocks_leave_no_seam(sign, gallery_module, monkeypatch):
    surface = gallery_module.oracle_surface("enneper-isothermic", DEFAULT_DOMAIN,
                                            SEAM_NU, SEAM_NV)
    fd = fundamental_data(surface)
    want = gauss_conformality_check(fd, sign)
    for rows in each_row_block(monkeypatch, SEAM_NU, SEAM_NV):
        got = gauss_conformality_check(fd, sign)
        assert np.array_equal(got, want, equal_nan=True), rows


def test_gmc_residual_blocks_leave_no_seam(monkeypatch):
    data = GmcData.build("u*sin(v) + exp(u - v)", -1.0, "u^2", "cos(v)")
    us, vs = np.linspace(0.1, 0.9, SEAM_NU), np.linspace(0.05, 0.8, SEAM_NV)
    want = gmc_residual(data, us, vs)
    for rows in each_row_block(monkeypatch, SEAM_NU, SEAM_NV):
        assert np.array_equal(gmc_residual(data, us, vs), want), rows


def test_residuals_shrink_quadratically_under_grid_halving(gallery_module):
    entry = gallery_module.gallery("enneper-isothermic")
    maxima = {}
    for n in (51, 101):
        surface = gallery_module.oracle_surface(entry, (-0.5, 0.5, -0.5, 0.5), n, n)
        fd = fundamental_data(surface)
        core = _core(fd)
        maxima[n] = (
            _finite_max(fd.gauss_eq, core),
            _finite_max(fd.sff, core),
        )
    gauss_ratio = maxima[51][0] / maxima[101][0]
    sff_ratio = maxima[51][1] / maxima[101][1]
    assert 2.8 < gauss_ratio < 4.6
    assert 2.8 < sff_ratio < 4.6


def test_parallel_shift_corner_values():
    assert lawson_shift(0.0, 0.0, 1.0) == (1.0, -1.0)
    assert lawson_shift(0.0, 1.0, 1.0) == (1.0, 0.0)
    assert lawson_shift(1.0, -1.0, 1.0) == (2.0, -4.0)


@given(
    h=st.floats(-5, 5, allow_nan=False),
    kbar=st.floats(-5, 5, allow_nan=False),
    c=st.floats(-3, 3, allow_nan=False),
)
def test_parallel_shift_closed_form(h, kbar, c):
    hs, ks = lawson_shift(h, kbar, c)
    assert hs == pytest.approx(h + c, abs=1e-12)
    assert ks == pytest.approx(kbar - 2.0 * c * h - c * c, abs=1e-12)


def test_parallel_shift_at_zero_is_identity():
    assert lawson_shift(0.75, -1.0, 0.0) == (0.75, -1.0)


@pytest.mark.parametrize("name", ["horosphere", "b-scroll"])
@pytest.mark.parametrize("c", [1.0, -1.0, 0.5])
def test_shifted_shape_operator_keeps_the_curvature_relation(name, c, std_surfaces):
    _, _, fd = std_surfaces[name]
    resid = lawson_shift_residual(fd, c)
    assert np.nanmax(np.abs(resid)) < 1e-10


@pytest.mark.parametrize("name", H31_NAMES + E31_NAMES)
@pytest.mark.parametrize("c", [-1.0, 0.5, 1.0])
def test_shift_residual_is_the_gauss_residual(name, c, std_surfaces):
    # det(S + c I) = det S + c tr S + c^2 with det S = K_shape - kbar and
    # tr S = 2H, so the shifted relation leaves |K - K_shape| up to the
    # rounding of its terms: the gap reads at most 1.33 eps of the scale
    # below (7.1e-15 where |K| reaches 74), bounded at 2 eps
    _, _, fd = std_surfaces[name]
    resid = lawson_shift_residual(fd, c)
    gauss = np.abs(fd.gauss_eq)
    assert np.array_equal(np.isnan(resid), np.isnan(gauss)) and np.isfinite(gauss).any()
    scale = 1.0 + np.abs(fd.K) + np.abs(fd.K_shape) + abs(c) * (2.0 * np.abs(fd.H) + abs(c))
    with np.errstate(invalid="ignore"):
        assert not np.any(np.abs(resid - gauss) > 2.0 * np.finfo(float).eps * scale)


def test_umbilic_detection_separates_orbit_from_scroll(std_surfaces):
    _, _, fd_horo = std_surfaces["horosphere"]
    _, _, fd_scroll = std_surfaces["b-scroll"]
    _, _, fd_enneper = std_surfaces["enneper-isothermic"]
    assert np.all(umbilic_detect(fd_horo)[_core(fd_horo)])
    assert not np.any(umbilic_detect(fd_scroll)[_core(fd_scroll)])
    assert not np.any(umbilic_detect(fd_enneper)[_core(fd_enneper)])


def test_report_gate_passes_on_exact_orbit(std_surfaces):
    _, surface, _ = std_surfaces["horosphere"]
    report = geometry_report(surface)
    ok, name, value, bound = report.worst(h_error=report.stats_h_error(1.0))
    assert ok
    assert value <= bound
    assert report.stats["umbilic_fraction"] == 1.0
    assert report.stats["ambient"] == "H31"
    assert report.stats["n_core"] <= report.stats["n_valid"]
    assert report.stats["nu"] == report.stats["nv"] == 51


def test_report_gate_flags_wrong_target_curvature(std_surfaces):
    _, surface, _ = std_surfaces["horosphere"]
    report = geometry_report(surface)
    ok, name, value, bound = report.worst(h_error=report.stats_h_error(2.0))
    assert not ok
    assert name == "mean_curvature"
    assert value == pytest.approx(1.0, abs=1e-10)


def _cousin_leg_a(u):
    return np.stack([u / 2 + u**3 / 6, -u / 2 + u**3 / 6, -(u**2) / 2], axis=-1)


def _cousin_leg_b(v):
    return np.stack([-v / 2 - v**3 / 6, -v / 2 + v**3 / 6, -(v**2) / 2], axis=-1)


def _cousin_grid(shear):
    us = np.linspace(-0.5, 0.5, 41)
    vs = np.linspace(-0.5, 0.5, 41)
    uu, vv = np.meshgrid(us, vs, indexing="ij")
    points = _cousin_leg_a(uu + shear * vv**2) + _cousin_leg_b(vv)
    mask = np.zeros_like(uu, dtype=bool)
    return SurfaceGrid(us, vs, points, mask, "control")


def test_report_gate_names_broken_conformality():
    # Sampling the same surface along sheared coordinate lines leaves it
    # smooth but destroys the null-direction property of the v-curves,
    # which is exactly what the conf gate is there to catch.
    report = geometry_report(_cousin_grid(shear=0.2))
    ok, name, value, bound = report.worst()
    assert not ok
    assert name == "conf_v"
    assert np.isfinite(value)
    assert value > bound


def test_unsheared_control_passes_the_same_gate():
    report = geometry_report(_cousin_grid(shear=0.0))
    ok, _, _, _ = report.worst(h_error=report.stats_h_error(0.0))
    assert ok
    assert report.stats["ambient"] == "E31"


@pytest.mark.parametrize("us, vs, message", [
    (np.array([0.0, 0.1, 0.2, 0.3, 0.5]), np.linspace(0, 1, 5), "u nodes must be uniformly spaced"),
    (np.linspace(0, 1, 4), np.linspace(0, 1, 5), "at least a 5x5 grid"),
    (np.linspace(0, 1, 5), np.linspace(0, 1, 4), "at least a 5x5 grid"),
])
def test_grid_that_cannot_be_measured_is_rejected(us, vs, message):
    surface = SurfaceGrid(us, vs, np.zeros((len(us), len(vs), 3)),
                          np.zeros((len(us), len(vs)), dtype=bool), "control")
    with pytest.raises(ValueError, match=message):
        fundamental_data(surface)
