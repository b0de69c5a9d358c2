"""Default CLI output pinned byte for byte.

Each argv below runs with its default grids and its stdout is compared by
sha256 against a recorded digest.  The set covers spectrum, bound-sweep and
prelog-report over every model in both formats, plus miso, and a low-snr
bound-sweep whose optimal threshold sits clamped at the default range's
upper end, exactly 4.0.  The explicit threshold grid --upsilon 1e-3:4:60,
the one an unset --upsilon uses, must print the default's bytes for every
threshold-bound model, so the two can part only on purpose.  simulate and
szego are left out: their numpy vectorized exp/log can differ in the last
bit across CPUs.  Each threshold lower bound is also checked, row by row,
against the best bound at the points of its threshold grid.

The spectrum files are literal JSON, so the pinned input does not depend on
the spectrum constructors; custom model names carry only the file's base
name, so the output does not depend on the directory.
"""

import hashlib
from contextlib import redirect_stdout
from io import StringIO

import pytest

from prelog_lab.bounds import default_upsilon_grid
from prelog_lab.cli import main, parse_grid, parse_model

from oracles import threshold_argmax, threshold_rounding

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
    ["bound-sweep", "--model", model, "--snr", "0.01:0.1:2", "--format", fmt]
    for model in ("rayleigh-band:W=0.1", "onoff:W=0.0625")
    for fmt in ("csv", "json")
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
        "be17320f2e6cd7c5e9ce17925a086edc049e05847135947ef60e83f5b5761ffa",
    "bound-sweep --model rayleigh-band:W=0.1 --format json":
        "cbe838a7f0440efc93658ae0da9615a48d5f801e74e4a30692d3f116c2de1fe3",
    "bound-sweep --model rayleigh-band:W=0.5 --format csv":
        "f49d9e809f916a98553ae56fa69a41e5f91cf7edf5490f8830aec9d7bc7f9fe9",
    "bound-sweep --model rayleigh-band:W=0.5 --format json":
        "10ef18c3d021eeab1e0b8d2fa3ea691d15f975f1ff30ec85b3d11dee4682ff1b",
    "bound-sweep --model onoff:W=0.0625 --format csv":
        "b44a25e7b4bc615a8f0aac737392fca04d485885b6798e7acbee2a820e1c5cf2",
    "bound-sweep --model onoff:W=0.0625 --format json":
        "92182e47d439b2f3dad62865512565fa9a8308dc8d234e6fd9349aae0f42e487",
    "bound-sweep --model phase-noise --format csv":
        "dff9ee1b43d6c71f11d3ffdb5d9af8954776b4126b79c7be77c5934df3f4175d",
    "bound-sweep --model phase-noise --format json":
        "7d98d7fcdddaf40cab89e4aa8c080116b2f244c59a7c7a0220728a548cd4807a",
    "bound-sweep --model custom:spectrum={dir}/steps.json,tail=rayleigh --format csv":
        "2e1f5a4ba61dd5a8d93d9870e1271f4db8ec175cfffec55cbedee463c15b1a59",
    "bound-sweep --model custom:spectrum={dir}/steps.json,tail=rayleigh --format json":
        "b57f14e681ce18eae1d483214747e96fff283a160943290d339d8eaca0c911d2",
    "bound-sweep --model custom:spectrum={dir}/steps.json,tail=onoff --format csv":
        "d5dda0c58db12aa495950820b000825a5a8edc832f988dd5fb0e34b83d5f6c27",
    "bound-sweep --model custom:spectrum={dir}/steps.json,tail=onoff --format json":
        "48f8e6a4976556183f58ee171393acc976cbb28968f5e40070ad1576065de292",
    "bound-sweep --model custom:spectrum={dir}/onoff.json,tail=onoff --format csv":
        "ab7689ed70a5b2625cf14591b8465039f3d4b990b800ccb1927ff645d21b0c9a",
    "bound-sweep --model custom:spectrum={dir}/onoff.json,tail=onoff --format json":
        "4b73fa52e5e13555fabcb3d991a4157eaac2b253783e7330c916be52eaa8155a",
    "bound-sweep --model custom:spectrum={dir}/flat.json,tail=unit --format csv":
        "ee56be3178a4e4c25df324f566aa980adfe7e5aa253832388170287b7e4dbf6d",
    "bound-sweep --model custom:spectrum={dir}/flat.json,tail=unit --format json":
        "a0ef9282604a1e9e43795920bdad469ecaa78ad780b68f37ff797d089e3982f5",
    "prelog-report --model rayleigh-band:W=0.1 --format csv":
        "ffb2d1869a1fdaef935caea479304a02fa07f568741f20e3b2d7f4f2f4c30dc3",
    "prelog-report --model rayleigh-band:W=0.1 --format json":
        "b8813352ada6a103abb3a763f699fb774b4629e1094ab63760ee6d930654531e",
    "prelog-report --model rayleigh-band:W=0.5 --format csv":
        "3f1e14e6d09f842f960d364fe72a0cb7ea4a2cac82dab1d9940417708fa062bc",
    "prelog-report --model rayleigh-band:W=0.5 --format json":
        "c8850ecc2efa9460ed7436122fc1554a39a30ccb54a5d041d702e1adfef43627",
    "prelog-report --model onoff:W=0.0625 --format csv":
        "9809aad86d1292804a15824808c62a2f3f2e0e4b27b55e52f6281afeaf8dfe39",
    "prelog-report --model onoff:W=0.0625 --format json":
        "b4a1dff72e8190c9d0e1ca73ad24d1d81fd19468e88190cdf1e071593d14c0af",
    "prelog-report --model phase-noise --format csv":
        "5aa1d1a5671affb946fcfead0b299581bb97383de1c283d765dcc8245e065797",
    "prelog-report --model phase-noise --format json":
        "23a0c347c5706b2d0f5d45f5f6eabc0ca8861296aab15d8a1a212826f27f31f3",
    "prelog-report --model custom:spectrum={dir}/steps.json,tail=rayleigh --format csv":
        "77ec363d3f1d06aec4fd5380d55e99ae10c9a1d5f5683f259a81df1a2f56d2cd",
    "prelog-report --model custom:spectrum={dir}/steps.json,tail=rayleigh --format json":
        "40bcd2e931b494e003da21222c49c2783bf1b0ce9d4bc023c96a18a847a3dad3",
    "prelog-report --model custom:spectrum={dir}/steps.json,tail=onoff --format csv":
        "6eb7bf25d99f0809ab79c00fca52489e6e59b01e5885e008d06c0b5b172b0d5b",
    "prelog-report --model custom:spectrum={dir}/steps.json,tail=onoff --format json":
        "8f4adc1f92a448bd1f98b38bd2a70d95b78fa6768cc144e81f71a2242c58d926",
    "prelog-report --model custom:spectrum={dir}/onoff.json,tail=onoff --format csv":
        "6c3b7c77a246947fadf95dd13393572a67955bbd4b41bde09d7bcf489a660dad",
    "prelog-report --model custom:spectrum={dir}/onoff.json,tail=onoff --format json":
        "12f59cfec7d875c7d7e1819b3bfa311e10330818c44afaa4125f6c90153e061d",
    "prelog-report --model custom:spectrum={dir}/flat.json,tail=unit --format csv":
        "9b8edfc92aeef742435bfb0b3210751d064040bc13e379eb210229dda31d8220",
    "prelog-report --model custom:spectrum={dir}/flat.json,tail=unit --format json":
        "d498db5446b89e6612c51d3307243119ae5c243bec9d2ae5b29e9de5a138c512",
    "bound-sweep --model rayleigh-band:W=0.1 --snr 0.01:0.1:2 --format csv":
        "1b20b8f1df824f58fdf815a6986e4179068c1fddec30d5817970070ce15da322",
    "bound-sweep --model rayleigh-band:W=0.1 --snr 0.01:0.1:2 --format json":
        "c444b176700be9d715a3f779324e8d0e8f2f355dd1b704f4f27a84c0ce4829da",
    "bound-sweep --model onoff:W=0.0625 --snr 0.01:0.1:2 --format csv":
        "d082aaad54e7120b85ad34048b8da3282cad52acca012e06944ca2690fc0b43d",
    "bound-sweep --model onoff:W=0.0625 --snr 0.01:0.1:2 --format json":
        "ead411b50f20381c376a0ea231b2a12645a45e3a8af81a9cbab72a1e6f0a9050",
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


def _stdout(argv, spectrum_dir):
    buf = StringIO()
    with redirect_stdout(buf):
        code = main([a.replace("{dir}", str(spectrum_dir)) for a in argv])
    assert code == 0
    return buf.getvalue()


@pytest.fixture(scope="module")
def spectrum_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("golden")
    for name, text in SPECTRUM_FILES.items():
        (d / name).write_text(text)
    return d


@pytest.mark.parametrize("argv", CASES, ids=_key)
def test_default_stdout_is_pinned(argv, spectrum_dir):
    digest = hashlib.sha256(_stdout(argv, spectrum_dir).encode()).hexdigest()
    assert digest == SHA256[_key(argv)]


@pytest.mark.parametrize("model", THRESHOLD_MODELS)
@pytest.mark.parametrize("cmd", ["bound-sweep", "prelog-report"])
def test_explicit_default_range_prints_the_default_bytes(cmd, model, spectrum_dir):
    argv = [cmd, "--model", model, "--format", "csv"]
    assert (_stdout(argv + ["--upsilon", "1e-3:4:60"], spectrum_dir)
            == _stdout(argv, spectrum_dir))


@pytest.mark.parametrize("upsilon", [None, "1e-3:4:60"])
@pytest.mark.parametrize("model", THRESHOLD_MODELS)
def test_lb_beats_the_grid_maximum(model, upsilon, spectrum_dir):
    argv = ["bound-sweep", "--model", model]
    argv += [] if upsilon is None else ["--upsilon", upsilon]
    lines = [ln for ln in _stdout(argv, spectrum_dir).splitlines() if not ln.startswith("#")]
    fm = parse_model(model.replace("{dir}", str(spectrum_dir)))
    grid = default_upsilon_grid() if upsilon is None else parse_grid(upsilon)
    for line in lines[1:]:
        snr, lb, star, _ = map(float, line.split(","))
        _, best = threshold_argmax(fm.tail, fm.spectrum, snr, grid)
        assert lb >= best - threshold_rounding(snr, star)


def test_every_case_is_pinned():
    assert sorted(SHA256) == sorted(_key(argv) for argv in CASES)
