"""The band storage of W against the dense K x K formulas it replaced.

The reference functions below keep the dense forms: z_hat = W @ Z,
e_hat = W @ e, the transposed contractions W.T @ g for the Z and e
updates, W's numerator g_num @ Z.T + outer(h_num, e) with its
denominator, and the masked in-place band update. The band code must
agree with them to 1e-12 relative.

tests/data/model_window3.json was written by the dense implementation:
init_positive(4, 6, 2, 3, seed=5) after three nmu_epoch calls on
generate_synthetic(4, 6, 2, 0.5, 0.9, 0.01, seed=3) with
HyperParams(0.01, 0.02).
"""

from pathlib import Path

import numpy as np
import pytest

import dyntf.trainer
from dyntf import (HyperParams, SparseTensor, compute_temporal, init_positive,
                   load_model, nmu_epoch, save_model)

PARENT_MODEL = Path(__file__).parent / "data" / "model_window3.json"
N, K, D = 5, 7, 3


def dense_temporal(model):
    w = model.weights.w
    return w @ model.Z, w @ model.e


def dense_epoch(model, data, hp, denom_floor=1e-12):
    """One att-mode multiplicative update with a dense W: the new S, U, Z,
    a, c, e and the new dense W, by name."""
    w = model.weights.w
    window = model.window
    z_hat, e_hat = dense_temporal(model)
    sums = dyntf.trainer._epoch_sums(model, z_hat, e_hat, data, 1)
    counts_i = np.bincount(data.i, minlength=N).astype(float)
    counts_j = np.bincount(data.j, minlength=N).astype(float)
    counts_k = np.bincount(data.k, minlength=K).astype(float)
    lam, lam_b = hp.lam, hp.lam_b
    den_s = sums["den_s"] + lam * model.S * counts_i[:, None]
    den_u = sums["den_u"] + lam * model.U * counts_j[:, None]
    den_a = sums["den_a"] + lam_b * model.a * counts_i
    den_c = sums["den_c"] + lam_b * model.c * counts_j
    g_den = sums["g_den"] + lam * z_hat * counts_k[:, None]
    h_den = sums["h_den"] + lam_b * e_hat * counts_k
    num_z, den_z = w.T @ sums["g_num"], w.T @ g_den
    num_e, den_e = w.T @ sums["h_num"], w.T @ h_den
    has_i, has_j = counts_i > 0, counts_j > 0
    reach = dyntf.trainer._window_reach(counts_k, window) > 0

    def step(mask, old, num, den):
        return np.where(mask, old * num / np.maximum(den, denom_floor), old)

    new_w = w.copy()
    if window > 0:
        num_w = sums["g_num"] @ model.Z.T + np.outer(sums["h_num"], model.e)
        den_w = g_den @ model.Z.T + np.outer(h_den, model.e)
        rows, cols = np.indices(w.shape)
        band = (cols < rows) & (rows - cols <= window) & (counts_k[:, None] > 0)
        new_w[band] = w[band] * num_w[band] / np.maximum(den_w[band], denom_floor)
    return {"S": step(has_i[:, None], model.S, sums["num_s"], den_s),
            "U": step(has_j[:, None], model.U, sums["num_u"], den_u),
            "Z": step(reach[:, None], model.Z, num_z, den_z),
            "a": step(has_i, model.a, sums["num_a"], den_a),
            "c": step(has_j, model.c, sums["num_c"], den_c),
            "e": step(reach, model.e, num_e, den_e),
            "W": new_w}


def _random_case(window, seed):
    rng = np.random.default_rng(seed)
    pos = rng.choice(N * N * K, size=60, replace=False)
    data = SparseTensor(N, K, pos // (N * K), (pos % (N * K)) // K, pos % K,
                        rng.uniform(0.1, 2.0, size=pos.size))
    return init_positive(N, K, D, window, seed=seed, scale=0.8), data


@pytest.mark.parametrize("window", [0, 1, 3, K - 1])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_compute_temporal_matches_dense(window, seed):
    model, _ = _random_case(window, seed)
    z_hat, e_hat = compute_temporal(model)
    z_ref, e_ref = dense_temporal(model)
    np.testing.assert_allclose(z_hat, z_ref, rtol=1e-12, atol=0)
    np.testing.assert_allclose(e_hat, e_ref, rtol=1e-12, atol=0)


@pytest.mark.parametrize("window", [0, 1, 3, K - 1])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_nmu_epoch_matches_dense(window, seed):
    model, data = _random_case(window, seed)
    hp = HyperParams(0.03, 0.02)
    ref = dense_epoch(model, data, hp)
    got = nmu_epoch(model.copy(), data, hp)
    for name in ("S", "U", "Z", "a", "c", "e"):
        np.testing.assert_allclose(getattr(got, name), ref[name],
                                   rtol=1e-12, atol=0, err_msg=name)
    np.testing.assert_allclose(got.weights.w, ref["W"], rtol=1e-12, atol=0)
    got.weights.validate()


def test_dense_model_file_resaves_byte_identical(tmp_path):
    model, hp = load_model(PARENT_MODEL)
    assert (model.n_slots, model.window) == (6, 3)
    out = tmp_path / "resaved.json"
    save_model(model, hp, out)
    assert out.read_bytes() == PARENT_MODEL.read_bytes()
