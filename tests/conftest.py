"""Shared fixtures.

The canonical syntheticfixture is a 50-node, 20-slot network with a
rank-2 ground truth, 5% observed density, temporal autocorrelation 0.9
and noise 0.01, split 7:1:2. All seeds are fixed so every derived
number in the suite is reproducible.
"""

import tracemalloc

import numpy as np
import pytest

import dyntf

FIXTURE_SEED = 7
FIXTURE_SHAPE = dict(n_nodes=50, n_slots=20, true_rank=2, density=0.05,
                     temporal_correlation=0.9, noise_scale=0.01)


@pytest.fixture(scope="session")
def fixture_data():
    return dyntf.generate_synthetic(seed=FIXTURE_SEED, **FIXTURE_SHAPE)


@pytest.fixture(scope="session")
def fixture_split(fixture_data):
    data, _ = fixture_data
    return dyntf.split(data, (7, 1, 2), seed=FIXTURE_SEED)


@pytest.fixture()
def small_tensor():
    # 4 nodes, 3 slots, 8 hand-placed entries
    ii = [0, 0, 1, 1, 2, 2, 3, 3]
    jj = [1, 2, 0, 3, 1, 3, 0, 2]
    kk = [0, 1, 0, 2, 1, 2, 0, 1]
    vals = [1.0, 2.0, 0.5, 1.5, 3.0, 0.25, 2.5, 0.75]
    return dyntf.SparseTensor(4, 3, ii, jj, kk, vals)


def entry_tuples(tensor):
    """The tensor's entries as (i, j, k, value) tuples of Python numbers, in entry order."""
    return list(zip(tensor.i.tolist(), tensor.j.tolist(), tensor.k.tolist(),
                    tensor.values.tolist()))


def block_rows(rank):
    """Entries model._predict_blocks predicts at a time at this rank."""
    return max(1, dyntf.model._GATHER_BYTES // (8 * rank))


def dense_w(band):
    """The dense K x K W of a (K, window) band such as FactorModel.W, read-only:
    the unit diagonal, w[k, k - m] = band[k, m - 1] inside the window, 0 elsewhere."""
    ks, ls = dyntf.band_indices(*band.shape)
    w = np.eye(len(band))
    w[ks, ls] = band[ks, ks - ls - 1]
    w.flags.writeable = False
    return w


def traced_peak(fn, *args):
    """(the tracemalloc peak of fn(*args) in bytes, its result)."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()
