"""The rule of `errors.ReadOnlyArrays`, over every record that holds
arrays: it keeps its own read-only copies of them, also after unpickling,
and leaves the caller's arrays writeable."""

import pickle

import numpy as np
import pytest

from tribeta.fit import FitConfig, FitModel
from tribeta.fss import FinalStateSpectrum
from tribeta.kernel import SpectrumParams
from tribeta.response import Lattice, PseudoDataset, ResponseModel

W0 = 18575.0
RESPONSE = ResponseModel(sigma_ev=2.5)


def spectrum(*columns):
    return FinalStateSpectrum(*columns, q_ref=18.64, provenance={})


def fit_model(mask, x0, *first_pass):
    config = FitConfig(window_ev=(W0 - 10.0, W0 + 10.0),
                       initial=SpectrumParams(amplitude=1.0, endpoint_ev=W0),
                       fss=spectrum(np.array([1.0]), np.array([1.0]),
                                    np.array([0]), np.array([0]),
                                    np.array([0])))
    return FitModel(config, 1.0, mask, Lattice.build(RESPONSE, [W0, W0 + 2.0]),
                    x0, first_pass)


#: record -> (build from arrays, the record's arrays, nonzero arrays to give)
RECORDS = {
    "FinalStateSpectrum": (
        spectrum,
        lambda r: [r.energies, r.probabilities, r.channels, r.rotations,
                   r.vibrations],
        [np.array([1.0, 2.0]), np.array([0.25, 0.5]), np.array([1, 2]),
         np.array([3, 4]), np.array([5, 6])]),
    "Lattice": (
        lambda *arrays: Lattice(RESPONSE, *arrays),
        lambda r: [r.bin_centers, r.energies, r.inverse, r.weights],
        [np.array([1.0, 2.0]), np.array([0.5, 1.5, 2.5]),
         np.array([[1, 2], [2, 1]]), np.array([0.5, 0.5])]),
    "PseudoDataset": (
        lambda *arrays: PseudoDataset(*arrays, 3.0, {"seed": 7}),
        lambda r: [r.bin_centers, r.counts],
        [np.array([1.0, 2.0]), np.array([3, 4])]),
    "FitModel": (
        fit_model,
        lambda r: [r.mask, r.x0, *r.first_pass],
        [np.array([True, True]), np.array([1.0, 2.0]), np.array([3.0, 4.0]),
         np.array([5.0, 6.0]), np.array([7.0, 8.0])]),
}


@pytest.mark.parametrize("given", ["arrays", "views"])
@pytest.mark.parametrize("name", list(RECORDS))
def test_record_keeps_read_only_copies_of_its_arrays(name, given):
    build, held, values = RECORDS[name]
    callers = [value.copy() for value in values]
    if given == "views":
        # read-only views of writeable arrays
        arguments = [array[:] for array in callers]
        for view in arguments:
            view.setflags(write=False)
    else:
        arguments = callers
    record = build(*arguments)
    assert all(array.flags.writeable for array in callers)
    for array in callers:
        array[...] = 0
    back = pickle.loads(pickle.dumps(record))
    for kept in (record, back):
        arrays = held(kept)
        assert len(arrays) == len(values)
        for array, value in zip(arrays, values):
            assert np.array_equal(array, value)
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0
