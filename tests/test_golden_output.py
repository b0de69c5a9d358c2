"""Default CLI output pinned byte for byte.

Each argv below runs with its default grids and its stdout is compared by
sha256 against a recorded digest.  The set covers spectrum, bound-sweep and
prelog-report over every model in both formats, plus miso.  The explicit
threshold grid --upsilon 1e-3:4:60 is pinned on its own for every
threshold-bound model: it pins 0.001 and 4.0 as endpoints, where the
default grid's exp/log endpoints are 0.0010000000000000002 and
4.000000000000001, so the two routes can part once the default changes.  simulate and
szego are left out: their numpy vectorized exp/log can differ in the last
bit across CPUs.

The spectrum files are literal JSON, so the pinned input does not depend on
the spectrum constructors; custom model names carry only the file's base
name, so the output does not depend on the directory.
"""

import hashlib
from contextlib import redirect_stdout
from io import StringIO

import pytest

from prelog_lab.cli import main

SPECTRUM_FILES = {
    # two unequal bands around a zero-density half
    "steps.json": '{"segments": [[-0.5, -0.25, 0.0], [-0.25, 0.0, 1.5], '
                  '[0.0, 0.25, 2.5], [0.25, 0.5, 0.0]], "variance": 1.0}',
    # make_onoff_spectrum(0.0625)
    "onoff.json": '{"segments": [[-0.5, -0.4375, 4.0], [-0.4375, -0.0625, 0.0], '
                  '[-0.0625, 0.0625, 4.0], [0.0625, 0.4375, 0.0], '
                  '[0.4375, 0.5, 4.0]], "variance": 1.0}',
    "flat.json": '{"segments": [[-0.5, 0.5, 1.0]], "variance": 1.0}',
}

MODELS = [
    "rayleigh-band:W=0.1",
    "rayleigh-band:W=0.5",
    "onoff:W=0.0625",
    "phase-noise",
    "custom:spectrum={dir}/steps.json,tail=rayleigh",
    "custom:spectrum={dir}/steps.json,tail=onoff",
    "custom:spectrum={dir}/onoff.json,tail=onoff",
    "custom:spectrum={dir}/flat.json,tail=unit",
]

# models of the threshold bound (the unit law takes the phase bounds)
THRESHOLD_MODELS = [m for m in MODELS if m != "phase-noise" and not m.endswith("tail=unit")]

CASES = [
    [cmd, "--model", model, "--format", fmt]
    for cmd in ("spectrum", "bound-sweep", "prelog-report")
    for model in MODELS
    for fmt in ("csv", "json")
] + [
    [cmd, "--model", model, "--upsilon", "1e-3:4:60", "--format", "csv"]
    for cmd in ("bound-sweep", "prelog-report")
    for model in THRESHOLD_MODELS
] + [
    ["miso", "--spectra", spectra, "--format", fmt]
    for spectra in ("W=0.1,W=0.2", "W=0.3,{dir}/flat.json,{dir}/steps.json")
    for fmt in ("csv", "json")
]

SHA256 = {
    "spectrum --model rayleigh-band:W=0.1 --format csv":
        "240875ee70c99e7a3c1c1de63537cfca171bac8c7ebc6be6844f614f6940ae66",
    "spectrum --model rayleigh-band:W=0.1 --format json":
        "c85229bd1df93886227e12dadaa592ffcb670860f283969c4a1d0d7abd2a8214",
    "spectrum --model rayleigh-band:W=0.5 --format csv":
        "5742255ddc62c826c71a5badfd7fd79e3e44711ba7425ee21aa2f0dab0d0589e",
    "spectrum --model rayleigh-band:W=0.5 --format json":
        "fc7d1693c1d68976a349a8ebb960e6176ce9982d333ae65cfa1251fbb09aa77c",
    "spectrum --model onoff:W=0.0625 --format csv":
        "ea48e40e13fbefd928169af874a1c56f08fc0428cf7e67032adcd951bd59ec32",
    "spectrum --model onoff:W=0.0625 --format json":
        "e24debaa700c81e4168652f8b323d058ffc43b79c732651985d45e8241b756ce",
    "spectrum --model phase-noise --format csv":
        "8429f7d173f57178a5383233d1e00b2a27e13ca6e77af20cb57255da2493748d",
    "spectrum --model phase-noise --format json":
        "c092bac6e7b191bd3a35779307f69b2ff462f104d833f83e9d415055cb7b339e",
    "spectrum --model custom:spectrum={dir}/steps.json,tail=rayleigh --format csv":
        "803dbeeb6b66dce6cf43094438c25bc5becef5d8f061f6b63c80b4b7212609a8",
    "spectrum --model custom:spectrum={dir}/steps.json,tail=rayleigh --format json":
        "30d3e6b4f4303f5f59c324295add76ee1dc365da03ee16d4b01390a9e46537f9",
    "spectrum --model custom:spectrum={dir}/steps.json,tail=onoff --format csv":
        "b8dce77f2caa0d7504dca577108c6833ea3342939acd4de30eae3f0252706d19",
    "spectrum --model custom:spectrum={dir}/steps.json,tail=onoff --format json":
        "22f3b8d2870bf4cf9a118cf1ba377f8ef966437bea74f81ab89743f3945101d2",
    "spectrum --model custom:spectrum={dir}/onoff.json,tail=onoff --format csv":
        "8774793a874b3a296a9c6513819bc894f04d760af54c05e99a594564bb23975b",
    "spectrum --model custom:spectrum={dir}/onoff.json,tail=onoff --format json":
        "3a8209bfe1041a47e300a314355b246500a50d1dfb55dd9649e54fc9ec51427c",
    "spectrum --model custom:spectrum={dir}/flat.json,tail=unit --format csv":
        "a2beba8d1f6dc42038587bf12321be8a9ddd2b794200195b9f8e79c1d4ff75ac",
    "spectrum --model custom:spectrum={dir}/flat.json,tail=unit --format json":
        "79492dab51ba8c6dc8dd9cb166c5ab6914026f7e0b41ff441d7305c8c487bf79",
    "bound-sweep --model rayleigh-band:W=0.1 --format csv":
        "48868caa1436c1165d39482f64896dedd0c6c1182ab8deacd2bba0cba070d754",
    "bound-sweep --model rayleigh-band:W=0.1 --format json":
        "9dcb31f33ab9e41a5b0c87e449dbf5a96d6f1e96e2efd9a3adfd71957a4a614a",
    "bound-sweep --model rayleigh-band:W=0.5 --format csv":
        "2ce51d3d86f38c23840b28f37d46308496e60fa9e88c3632a4c7abe21cf32ebc",
    "bound-sweep --model rayleigh-band:W=0.5 --format json":
        "024e64d712f63f1e3b7b947967b23c59b794e3cacb3def6c919d47d946daae92",
    "bound-sweep --model onoff:W=0.0625 --format csv":
        "b160d0c598f4ec82463a053fd692976e602b081eb5cf60fecfb87dbe202977e2",
    "bound-sweep --model onoff:W=0.0625 --format json":
        "132db9986a5725532f3ecd341018ba4f5fb8f11570b84d5bb9588df12b0e1e46",
    "bound-sweep --model phase-noise --format csv":
        "dff9ee1b43d6c71f11d3ffdb5d9af8954776b4126b79c7be77c5934df3f4175d",
    "bound-sweep --model phase-noise --format json":
        "7d98d7fcdddaf40cab89e4aa8c080116b2f244c59a7c7a0220728a548cd4807a",
    "bound-sweep --model custom:spectrum={dir}/steps.json,tail=rayleigh --format csv":
        "91cab515ae4c2f987d977d00b719eb6440c45a1fa8b33464929060f385d964d4",
    "bound-sweep --model custom:spectrum={dir}/steps.json,tail=rayleigh --format json":
        "b1bb0778561571974bf255383523dde84375a811b7d09dd3a03e9934aca3c95b",
    "bound-sweep --model custom:spectrum={dir}/steps.json,tail=onoff --format csv":
        "80b290ce15897b435e6ff68e4c11c94a09e27add0290fb3c4466dc1541b0ce83",
    "bound-sweep --model custom:spectrum={dir}/steps.json,tail=onoff --format json":
        "937b2636c268303a078c72734a2b00b3c31dbd3c065d2e6a74a561184452a6f2",
    "bound-sweep --model custom:spectrum={dir}/onoff.json,tail=onoff --format csv":
        "004f5697debd12486682a26d40701a440b9437a18ed898cb2d3a3a730edaea39",
    "bound-sweep --model custom:spectrum={dir}/onoff.json,tail=onoff --format json":
        "74bf2943b6307277f30ca47b634425e7c23145c072c926a75cc18415cbf66420",
    "bound-sweep --model custom:spectrum={dir}/flat.json,tail=unit --format csv":
        "ee56be3178a4e4c25df324f566aa980adfe7e5aa253832388170287b7e4dbf6d",
    "bound-sweep --model custom:spectrum={dir}/flat.json,tail=unit --format json":
        "a0ef9282604a1e9e43795920bdad469ecaa78ad780b68f37ff797d089e3982f5",
    "prelog-report --model rayleigh-band:W=0.1 --format csv":
        "ca89146911528ac80e28ab4cc5966683fe1f127951793f23a78cfb419ab07f6a",
    "prelog-report --model rayleigh-band:W=0.1 --format json":
        "f4f5f721cddcb7bee41cfae379980a224bdfb780ff06dff5a760310270893318",
    "prelog-report --model rayleigh-band:W=0.5 --format csv":
        "d48ba01dc0f008edcd2a65b497352ecdba56b6f1ca51199282d93ca898566eba",
    "prelog-report --model rayleigh-band:W=0.5 --format json":
        "d37b222c7324312406622e006e0a55e2832761c945296dc192c9e61d29e1b6df",
    "prelog-report --model onoff:W=0.0625 --format csv":
        "233ff2e5a43c3a08ea7b34d9e52d19252ff56b8eba93961f4ae77a4a4b923e95",
    "prelog-report --model onoff:W=0.0625 --format json":
        "57021da1fce49b53b9810ad7941ae24b52aad57cef3fcf5eb15cde8e014dccb7",
    "prelog-report --model phase-noise --format csv":
        "5aa1d1a5671affb946fcfead0b299581bb97383de1c283d765dcc8245e065797",
    "prelog-report --model phase-noise --format json":
        "23a0c347c5706b2d0f5d45f5f6eabc0ca8861296aab15d8a1a212826f27f31f3",
    "prelog-report --model custom:spectrum={dir}/steps.json,tail=rayleigh --format csv":
        "1c520bb7700e2caee4f8f9258263c9fa976fe00d354f8a154f14e76cc1f8e0bb",
    "prelog-report --model custom:spectrum={dir}/steps.json,tail=rayleigh --format json":
        "ff1cfcf1ca169a7b425febcf2824778e184ec74eab05181ad069590f511a1ff9",
    "prelog-report --model custom:spectrum={dir}/steps.json,tail=onoff --format csv":
        "3b8a30eb9e0c5f1631f04d6538cd078c37bafc730dcf173fb7942e21a0522378",
    "prelog-report --model custom:spectrum={dir}/steps.json,tail=onoff --format json":
        "447307b57331bdde67f09725e74e90918214f541f21ea2aeec4e0a05a209f8aa",
    "prelog-report --model custom:spectrum={dir}/onoff.json,tail=onoff --format csv":
        "5bfbf55e3a278a0c13759dfc223a795ca0a269f4ffd9ff7e925c314f886e9777",
    "prelog-report --model custom:spectrum={dir}/onoff.json,tail=onoff --format json":
        "d0c56a728e4485a372b7c25471fbcfd5b7df24bc008800c7a9331e354b067425",
    "prelog-report --model custom:spectrum={dir}/flat.json,tail=unit --format csv":
        "9b8edfc92aeef742435bfb0b3210751d064040bc13e379eb210229dda31d8220",
    "prelog-report --model custom:spectrum={dir}/flat.json,tail=unit --format json":
        "d498db5446b89e6612c51d3307243119ae5c243bec9d2ae5b29e9de5a138c512",
    "bound-sweep --model rayleigh-band:W=0.1 --upsilon 1e-3:4:60 --format csv":
        "48868caa1436c1165d39482f64896dedd0c6c1182ab8deacd2bba0cba070d754",
    "bound-sweep --model rayleigh-band:W=0.5 --upsilon 1e-3:4:60 --format csv":
        "2ce51d3d86f38c23840b28f37d46308496e60fa9e88c3632a4c7abe21cf32ebc",
    "bound-sweep --model onoff:W=0.0625 --upsilon 1e-3:4:60 --format csv":
        "b160d0c598f4ec82463a053fd692976e602b081eb5cf60fecfb87dbe202977e2",
    "bound-sweep --model custom:spectrum={dir}/steps.json,tail=rayleigh --upsilon 1e-3:4:60 --format csv":
        "91cab515ae4c2f987d977d00b719eb6440c45a1fa8b33464929060f385d964d4",
    "bound-sweep --model custom:spectrum={dir}/steps.json,tail=onoff --upsilon 1e-3:4:60 --format csv":
        "80b290ce15897b435e6ff68e4c11c94a09e27add0290fb3c4466dc1541b0ce83",
    "bound-sweep --model custom:spectrum={dir}/onoff.json,tail=onoff --upsilon 1e-3:4:60 --format csv":
        "004f5697debd12486682a26d40701a440b9437a18ed898cb2d3a3a730edaea39",
    "prelog-report --model rayleigh-band:W=0.1 --upsilon 1e-3:4:60 --format csv":
        "ca89146911528ac80e28ab4cc5966683fe1f127951793f23a78cfb419ab07f6a",
    "prelog-report --model rayleigh-band:W=0.5 --upsilon 1e-3:4:60 --format csv":
        "d48ba01dc0f008edcd2a65b497352ecdba56b6f1ca51199282d93ca898566eba",
    "prelog-report --model onoff:W=0.0625 --upsilon 1e-3:4:60 --format csv":
        "233ff2e5a43c3a08ea7b34d9e52d19252ff56b8eba93961f4ae77a4a4b923e95",
    "prelog-report --model custom:spectrum={dir}/steps.json,tail=rayleigh --upsilon 1e-3:4:60 --format csv":
        "1c520bb7700e2caee4f8f9258263c9fa976fe00d354f8a154f14e76cc1f8e0bb",
    "prelog-report --model custom:spectrum={dir}/steps.json,tail=onoff --upsilon 1e-3:4:60 --format csv":
        "3b8a30eb9e0c5f1631f04d6538cd078c37bafc730dcf173fb7942e21a0522378",
    "prelog-report --model custom:spectrum={dir}/onoff.json,tail=onoff --upsilon 1e-3:4:60 --format csv":
        "5bfbf55e3a278a0c13759dfc223a795ca0a269f4ffd9ff7e925c314f886e9777",
    "miso --spectra W=0.1,W=0.2 --format csv":
        "735fcce490122f63540b4d08a18316a9d2c27e4ef41a8f1d21dded268cb09002",
    "miso --spectra W=0.1,W=0.2 --format json":
        "cfe37f9d4446370cc204e16606b797e2062fc9b90340c0a7e54d1439b1cf57d9",
    "miso --spectra W=0.3,{dir}/flat.json,{dir}/steps.json --format csv":
        "a1d5788ae577787e25ae132de5b0b4aca071dbf4616cc48ea9df96cabcfe2ee6",
    "miso --spectra W=0.3,{dir}/flat.json,{dir}/steps.json --format json":
        "5610d4c7204f4f93b000edff712a526db383bfc9a5d3503319d077e06a18d14f",
}


def _key(argv):
    return " ".join(argv)


@pytest.fixture(scope="module")
def spectrum_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("golden")
    for name, text in SPECTRUM_FILES.items():
        (d / name).write_text(text)
    return d


@pytest.mark.parametrize("argv", CASES, ids=_key)
def test_default_stdout_is_pinned(argv, spectrum_dir):
    buf = StringIO()
    with redirect_stdout(buf):
        code = main([a.replace("{dir}", str(spectrum_dir)) for a in argv])
    assert code == 0
    digest = hashlib.sha256(buf.getvalue().encode()).hexdigest()
    assert digest == SHA256[_key(argv)]


def test_every_case_is_pinned():
    assert sorted(SHA256) == sorted(_key(argv) for argv in CASES)
