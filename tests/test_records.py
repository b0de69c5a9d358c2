"""The six value types are immutable records.

Each compares and hashes by value, prints the repr of a frozen record,
refuses assignment and deletion, and survives copy, deepcopy and pickle.
"""

import copy
import inspect
import pickle

import numpy as np
import pytest

from prelog_lab.bounds import BoundCurve, FadingModel, PrelogReport
from prelog_lab.processes import SamplePath
from prelog_lab.spectra import AutocovarianceSeq, SpectralDensity

BAND = ((-0.5, -0.25, 0.0), (-0.25, 0.25, 2.0), (0.25, 0.5, 0.0))
BAND_REPR = ("SpectralDensity(segments=((-0.5, -0.25, 0.0), (-0.25, 0.25, 2.0), "
             "(0.25, 0.5, 0.0)), variance=1.0)")

# name -> (build, its repr); build makes a fresh record of the same values
# on each call
RECORDS = {
    "SpectralDensity": (lambda: SpectralDensity(BAND), BAND_REPR),
    "AutocovarianceSeq": (lambda: AutocovarianceSeq((1, 0.5j)),
                          "AutocovarianceSeq(values=((1+0j), 0.5j))"),
    "FadingModel": (lambda: FadingModel("m", SpectralDensity(BAND), "onoff"),
                    f"FadingModel(name='m', spectrum={BAND_REPR}, law='onoff', "
                    "mass_at_zero=0.5)"),
    "BoundCurve": (lambda: BoundCurve("LOWER_LB", ((10.0, 0.25),), params=(0.5,)),
                   "BoundCurve(kind='LOWER_LB', points=((10.0, 0.25),), params=(0.5,))"),
    "PrelogReport": (lambda: PrelogReport(analytic_limit=None,
                                          finite_ratios=((1e4, 0.125),),
                                          upper_prelog=0.5, floored=(False,),
                                          upsilon_star=(0.75,)),
                     "PrelogReport(analytic_limit=None, finite_ratios=((10000.0, 0.125),), "
                     "upper_prelog=0.5, floored=(False,), upsilon_star=(0.75,))"),
    # an ndarray field, compared and hashed by its bits
    "SamplePath": (lambda: SamplePath([1 + 2j, 3 - 4j], 7),
                   "SamplePath(values=array([1.+2.j, 3.-4.j]), seed=7)"),
}
NAMES = sorted(RECORDS)
# the fields each record holds, in repr order
FIELDS = {
    "SpectralDensity": ("segments", "variance"),
    "AutocovarianceSeq": ("values",),
    "FadingModel": ("name", "spectrum", "law", "tail", "mass_at_zero"),
    "BoundCurve": ("kind", "points", "params"),
    "PrelogReport": ("analytic_limit", "finite_ratios", "upper_prelog", "floored",
                     "upsilon_star"),
    "SamplePath": ("values", "seed"),
}


@pytest.mark.parametrize("name", NAMES)
def test_equal_by_value(name):
    build, _ = RECORDS[name]
    a, b = build(), build()
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b)


@pytest.mark.parametrize("name", NAMES)
def test_equal_only_within_a_class(name):
    record = RECORDS[name][0]()
    other = RECORDS[NAMES[NAMES.index(name) - 1]][0]()
    assert record != other and record != tuple(getattr(record, f) for f in FIELDS[name])


def test_a_differing_field_is_unequal():
    assert SpectralDensity(BAND) != SpectralDensity(((-0.5, 0.5, 1.0),))
    assert AutocovarianceSeq((1.0,)) != AutocovarianceSeq((1.0, 0.5))
    assert BoundCurve("LOWER_LB", ()) != BoundCurve("PHASE_LB", ())
    assert (FadingModel("a", SpectralDensity(BAND), "onoff")
            != FadingModel("b", SpectralDensity(BAND), "onoff"))
    assert SamplePath([1.0], 1) != SamplePath([1.0], 2)
    assert SamplePath([1.0, 2.0], 1) != SamplePath([1.0, 3.0], 1)


@pytest.mark.parametrize("name", NAMES)
def test_repr(name):
    build, text = RECORDS[name]
    assert repr(build()) == text


@pytest.mark.parametrize("name", NAMES)
def test_assignment_and_deletion_raise(name):
    record = RECORDS[name][0]()
    for field in (*FIELDS[name], "other"):
        with pytest.raises(AttributeError):
            setattr(record, field, 0)
    for field in FIELDS[name]:
        with pytest.raises(AttributeError):
            delattr(record, field)
    assert repr(record) == RECORDS[name][1]


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("dup", [copy.copy, copy.deepcopy], ids=["copy", "deepcopy"])
def test_copies(name, dup):
    build, text = RECORDS[name]
    record = build()
    twin = dup(record)
    assert type(twin) is type(record) and twin is not record
    assert twin == record and repr(twin) == text


@pytest.mark.parametrize("name", NAMES)
def test_pickle_round_trip(name):
    build, text = RECORDS[name]
    back = pickle.loads(pickle.dumps(build()))
    assert back == build() and repr(back) == text


def test_sample_path_stays_read_only():
    path = SamplePath(np.arange(3.0), 0)
    assert not path.values.flags.writeable
    assert path.values.dtype == np.complex128 and path.n == 3


def test_sample_path_leaves_the_callers_array_writeable():
    h = np.array([1 + 1j, 2 - 1j])
    SamplePath(h, 0)
    assert h.flags.writeable
    h[0] = 0.0


def test_sample_path_holds_a_copy_of_a_view():
    base = np.arange(6.0).astype(np.complex128)
    path = SamplePath(base[::2], 0)
    base[0] = 5
    assert path.values.tolist() == [0j, 2 + 0j, 4 + 0j]


@pytest.mark.parametrize("dup", [copy.copy, copy.deepcopy,
                                 lambda path: pickle.loads(pickle.dumps(path))],
                         ids=["copy", "deepcopy", "pickle"])
def test_a_copied_sample_path_stays_read_only(dup):
    twin = dup(SamplePath([1j, 2.0], 3))
    assert not twin.values.flags.writeable
    assert twin == SamplePath([1j, 2.0], 3)


def test_constructor_signatures():
    def params(cls):
        return [(p.name, p.default) for p in inspect.signature(cls).parameters.values()]

    empty = inspect.Parameter.empty
    assert params(SpectralDensity) == [("segments", empty), ("variance", 1.0)]
    assert params(AutocovarianceSeq) == [("values", empty)]
    assert params(BoundCurve) == [("kind", empty), ("points", empty), ("params", ())]
    assert params(SamplePath) == [("values", empty), ("seed", empty)]
    assert params(PrelogReport) == [(name, empty) for name in FIELDS["PrelogReport"]]
