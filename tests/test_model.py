import json
import os

import numpy as np
import pytest

import dyntf
from dyntf import (FactorModel, HyperParams, band_indices,
                   compute_temporal, init_positive, load_model, model_from_dict,
                   model_to_dict, objective, predict, predict_entries, save_model)
from dyntf.model import check_memory

from conftest import block_rows, dense_w, traced_peak


def _bias_only(n=3, k=2, a=1.0, c=2.0, e=3.0, rank=1):
    zeros = np.zeros((n, rank))
    return FactorModel(S=zeros.copy(), U=zeros.copy(), Z=np.zeros((k, rank)),
                       a=np.full(n, a), c=np.full(n, c), e=np.full(k, e),
                       W=np.zeros((k, 0)))


def _around(band):
    """A bias-only model of K = len(band) slots whose W is `band`."""
    m = _bias_only(k=len(band))
    m.W = band
    return m


class TestTemporalWeights:
    # the band stores only the lags, so the unit diagonal and the zeros
    # outside the band are implied; the dense view must show them exactly

    def test_window_is_band_width(self):
        assert _around(np.zeros((5, 3))).window == 3
        assert init_positive(2, 5, 1, 2, seed=3).window == 2

    def test_identity_is_valid(self):
        m = _around(np.zeros((4, 0)))
        m.validate()
        assert np.array_equal(dense_w(m.W), np.eye(4))

    def test_diagonal_must_be_one(self):
        w = dense_w(init_positive(2, 5, 1, 2, seed=3).W)
        assert (np.diag(w) == 1.0).all()

    def test_upper_triangle_must_be_zero(self):
        w = dense_w(init_positive(2, 5, 1, 2, seed=3).W)
        assert not np.triu(w, 1).any()

    def test_band_limit_enforced(self):
        w = dense_w(init_positive(2, 5, 1, 2, seed=3).W)
        assert not np.tril(w, -3).any()  # depth 3 > window 2

    def test_negative_weight_rejected(self):
        band = np.zeros((3, 2))
        band[1, 0] = -0.5
        with pytest.raises(ValueError):
            _around(band).validate()

    def test_window_range(self):
        with pytest.raises(ValueError):
            _around(np.zeros((3, 3))).validate()

    def test_band_before_slot_zero_must_be_zero(self):
        band = np.zeros((4, 2))
        band[1, 1] = 0.1  # lag 2 of slot 1 would be slot -1
        with pytest.raises(ValueError, match="before slot 0"):
            _around(band).validate()

    def test_dense_view_places_lags(self):
        band = np.array([[0, 0], [0.1, 0], [0.2, 0.3], [0.4, 0.5]])
        w = dense_w(band)
        expected = np.eye(4)
        expected[1, 0], expected[2, 1], expected[2, 0] = 0.1, 0.2, 0.3
        expected[3, 2], expected[3, 1] = 0.4, 0.5
        assert np.array_equal(w, expected)

    def test_dense_view_is_read_only(self):
        band = init_positive(3, 4, 1, 2, seed=0).W
        with pytest.raises(ValueError, match="read-only"):
            dense_w(band)[1, 0] += 1.0


def test_band_indices_row_major():
    ks, ls = band_indices(3, 2)
    assert list(zip(ks, ls)) == [(1, 0), (2, 0), (2, 1)]
    ks, ls = band_indices(4, 1)
    assert list(zip(ks, ls)) == [(1, 0), (2, 1), (3, 2)]
    ks, ls = band_indices(3, 0)
    assert ks.size == 0


class TestInitPositive:
    def test_strictly_positive(self):
        m = init_positive(6, 4, 3, 2, seed=0)
        for arr in (m.S, m.U, m.Z, m.a, m.c, m.e):
            assert arr.min() > 0
            assert arr.max() <= 0.1

    def test_window_zero_gives_identity(self):
        m = init_positive(4, 3, 2, 0, seed=1)
        assert np.array_equal(dense_w(m.W), np.eye(3))

    def test_band_strictly_positive(self):
        m = init_positive(4, 5, 2, 3, seed=2)
        ks, ls = band_indices(5, 3)
        assert dense_w(m.W)[ks, ls].min() > 0

    def test_same_seed_bitwise_identical(self):
        a = init_positive(5, 4, 2, 2, seed=42)
        b = init_positive(5, 4, 2, 2, seed=42)
        for x, y in ((a.S, b.S), (a.U, b.U), (a.Z, b.Z), (a.a, b.a),
                     (a.c, b.c), (a.e, b.e), (dense_w(a.W), dense_w(b.W))):
            assert np.array_equal(x, y)

    def test_shapes_and_properties(self):
        m = init_positive(6, 4, 3, 2, seed=0)
        assert (m.n_nodes, m.n_slots, m.rank, m.window) == (6, 4, 3, 2)
        assert m.S.shape == (6, 3) and m.Z.shape == (4, 3)

    @pytest.mark.parametrize("replicas", [1, 3])
    def test_size_checked_against_physical_memory(self, monkeypatch, replicas):
        # 5 nodes, 4 slots, rank 3, window 2: 8 * (30 + 12 + 8 + 10 + 4) = 512 bytes a model
        need = 512 * replicas
        pages = {"SC_PHYS_PAGES": need // 8, "SC_PAGE_SIZE": 8}
        monkeypatch.setattr(os, "sysconf", pages.__getitem__)
        check_memory(5, 4, 3, 2, replicas)  # exactly the memory there is
        pages["SC_PHYS_PAGES"] -= 1
        with pytest.raises(MemoryError, match=f" needs {need} bytes, more than this machine's"):
            check_memory(5, 4, 3, 2, replicas)
        if replicas == 1:
            with pytest.raises(MemoryError, match="^a model of N=5, K=4, rank 3, window 2 "):
                init_positive(5, 4, 3, 2, seed=0)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            init_positive(4, 3, 0, 0, seed=0)
        with pytest.raises(ValueError):
            init_positive(4, 3, 2, 0, seed=0, scale=0.0)
        with pytest.raises(ValueError):
            init_positive(4, 3, 2, 3, seed=0)  # window > K-1


class TestComputeTemporal:
    def test_identity_weights_pass_through(self):
        m = init_positive(4, 3, 2, 0, seed=5)
        z_hat, e_hat = compute_temporal(m)
        assert np.array_equal(z_hat, m.Z)
        assert np.array_equal(e_hat, m.e)

    def test_hand_mixing(self):
        band = np.array([[0.0], [0.5]])  # w[1, 0] = 0.5
        m = FactorModel(S=np.ones((1, 1)), U=np.ones((1, 1)),
                        Z=np.array([[2.0], [4.0]]), a=np.zeros(1),
                        c=np.zeros(1), e=np.zeros(2),
                        W=band)
        z_hat, _ = compute_temporal(m)
        assert np.array_equal(z_hat, np.array([[2.0], [5.0]]))

    def test_full_lower_ones_accumulate_bias(self):
        band = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])  # full lower ones
        m = FactorModel(S=np.ones((1, 1)), U=np.ones((1, 1)),
                        Z=np.ones((3, 1)), a=np.zeros(1), c=np.zeros(1),
                        e=np.ones(3), W=band)
        _, e_hat = compute_temporal(m)
        assert np.array_equal(e_hat, np.array([1.0, 2.0, 3.0]))


class TestPredict:
    def test_bias_only(self):
        # rank 0 too: a model file may hold one, and its blocks gather no rows
        for rank in (1, 0):
            m = _bias_only(rank=rank)
            assert predict(m, 0, 1, 0) == 6.0
            assert predict(m, 2, 2, 0) == 6.0

    def test_rank_one_product(self):
        m = FactorModel(S=np.array([[2.0]]), U=np.array([[3.0]]),
                        Z=np.array([[1.0]]), a=np.zeros(1), c=np.zeros(1),
                        e=np.zeros(1), W=np.zeros((1, 0)))
        assert predict(m, 0, 0, 0) == 6.0

    def test_doubling_sender_row_doubles_feature_term(self):
        m = init_positive(4, 3, 2, 1, seed=8)
        base = predict(m, 1, 2, 1)
        bias = m.a[1] + m.c[2] + compute_temporal(m)[1][1]
        doubled = m.copy()
        doubled.S = m.S.copy()
        doubled.S[1] *= 2.0
        got = predict(doubled, 1, 2, 1)
        assert got == pytest.approx(bias + 2.0 * (base - bias), rel=1e-12)

    def test_out_of_range_index(self):
        m = init_positive(3, 2, 1, 0, seed=0)
        with pytest.raises(IndexError):
            predict(m, 3, 0, 0)
        with pytest.raises(IndexError):
            predict(m, 0, 0, 2)

    def test_unequal_index_lengths_rejected(self):
        # broadcasting would predict 3 entries from one j and one k
        m = init_positive(3, 2, 1, 0, seed=0)
        with pytest.raises(ValueError, match="equal length"):
            predict_entries(m, [0, 1, 2], [0], [0])

    @pytest.mark.parametrize("ii, jj, kk, message", [
        ([0, -1], [0, 0], [0, 0], r"^node index out of range: \(-1, 0\) with N=3$"),
        ([0, 0, 1], [0, 3, -1], [1, 0, 9], r"^node index out of range: \(0, 3\) with N=3$"),
        ([0, 1, 2], [0, 0, 0], [0, -1, 5], r"^slot index out of range: -1 with K=2$"),
    ])
    def test_first_bad_index_is_named(self, ii, jj, kk, message):
        # a negative index would otherwise wrap around to the last node or slot
        m = init_positive(3, 2, 1, 0, seed=0)
        with pytest.raises(IndexError, match=message):
            predict_entries(m, np.array(ii), np.array(jj), np.array(kk))

    def test_vectorized_matches_scalar(self):
        m = init_positive(5, 4, 3, 2, seed=11)
        ii = np.array([0, 2, 4])
        jj = np.array([1, 1, 3])
        kk = np.array([0, 3, 2])
        batch = predict_entries(m, ii, jj, kk)
        singles = [predict(m, *t) for t in zip(ii, jj, kk)]
        assert np.array_equal(batch, np.array(singles))

    # rank 4 gathers 256 KiB / (8 * 4) = 8192 entries a block
    B = block_rows(4)

    @staticmethod
    def _check_blocks(rank, n):
        m = init_positive(50, 20, rank, 3, seed=n)
        rng = np.random.default_rng(n)
        ii, jj, kk = rng.integers(0, 50, n), rng.integers(0, 50, n), rng.integers(0, 20, n)
        z_hat, e_hat = compute_temporal(m)
        oracle = (np.einsum("nd,nd->n", m.S[ii] * m.U[jj], z_hat[kk])
                  + m.a[ii] + m.c[jj] + e_hat[kk])
        assert predict_entries(m, ii, jj, kk).tobytes() == oracle.tobytes()

    @pytest.mark.parametrize("n", [1, B - 1, B, B + 1, 3 * B + 457])
    def test_blocks_equal_unblocked_oracle(self, n):
        self._check_blocks(4, n)

    @pytest.mark.parametrize("rank", [1, 7, 80])
    def test_block_edges_follow_the_rank(self, rank):
        b = block_rows(rank)
        for n in (1, b - 1, b, b + 1, 3 * b + 457):
            self._check_blocks(rank, n)

    def test_one_row_blocks_give_the_same_bytes(self, monkeypatch):
        monkeypatch.setattr(dyntf.model, "_GATHER_BYTES", 1)
        for n in (1, 2, 301):
            self._check_blocks(7, n)

    def test_peak_allocation_is_one_block(self):
        # 100k entries: the output and the two gather buffers at any rank, with
        # half a buffer for the mix and a block's 1-D temporaries (1.41 and
        # 1.39 MB). Gathering all rows at once traced 35.2 MB at rank 20; two
        # 8192-row buffers traced 2.31 MB at rank 10 and 11.5 MB at rank 80
        rng = np.random.default_rng(3)
        n = 100_000
        idx = (rng.integers(0, 2000, n), rng.integers(0, 2000, n), rng.integers(0, 50, n))
        for rank in (10, 80):
            m = init_positive(2000, 50, rank, 0, seed=1)
            peak, _ = traced_peak(predict_entries, m, *idx)
            assert peak < 8 * n + 2.5 * dyntf.model._GATHER_BYTES, rank

    @pytest.mark.parametrize("rank, buffers", [(1, 3.25), (2, 2.75)])
    def test_low_rank_block_adds_its_biases_in_place(self, rank, buffers):
        # at rank 1 a block is 32 768 entries, so each of its 1-D
        # temporaries weighs half a gather buffer: adding the biases into the
        # output one gather at a time reads 3.0 and 2.5 buffers above the
        # output, a sum of temporaries 4.0 and 3.5
        rng = np.random.default_rng(3)
        n = 100_000
        idx = (rng.integers(0, 400, n), rng.integers(0, 400, n), rng.integers(0, 50, n))
        m = init_positive(400, 50, rank, 3, seed=1)
        peak, _ = traced_peak(predict_entries, m, *idx)
        assert peak < 8 * n + buffers * dyntf.model._GATHER_BYTES


class TestObjective:
    def test_perfect_fit_no_regularization(self):
        data, truth = dyntf.generate_synthetic(8, 4, 2, 0.4, 0.6, 0.0, seed=2)
        assert objective(truth, data, HyperParams(0.0, 0.0)) <= 1e-20

    def test_single_residual(self):
        m = _bias_only(n=1, k=1, a=0.0, c=0.0, e=0.0)
        t = dyntf.SparseTensor(1, 1, [0], [0], [0], [1.0])
        assert objective(m, t, HyperParams(0.0, 0.0)) == 0.5

    def test_regularization_counted_per_entry(self):
        # perfect fit with all parameters 1: prediction 1*1*1 + 1+1+1 = 4
        m = FactorModel(S=np.ones((1, 1)), U=np.ones((1, 1)), Z=np.ones((1, 1)),
                        a=np.ones(1), c=np.ones(1), e=np.ones(1),
                        W=np.zeros((1, 0)))
        t = dyntf.SparseTensor(1, 1, [0], [0], [0], [4.0])
        got = objective(m, t, HyperParams(0.1, 0.1))
        assert got == pytest.approx(0.3, rel=1e-15)

    def test_nonnegative_always(self):
        m = init_positive(6, 4, 2, 2, seed=3)
        data, _ = dyntf.generate_synthetic(6, 4, 2, 0.5, 0.5, 0.05, seed=3)
        assert objective(m, data, HyperParams(0.2, 0.1)) >= 0


class TestHyperParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            HyperParams(-0.1, 0.0)
        with pytest.raises(ValueError):
            HyperParams(0.0, float("nan"))


class TestSerialization:
    def test_round_trip_exact(self, tmp_path):
        m = init_positive(5, 4, 3, 2, seed=21, scale=0.7)
        hp = HyperParams(0.013, 0.0071)
        path = tmp_path / "model.json"
        save_model(m, hp, path)
        back, hp_back = load_model(path)
        for x, y in ((m.S, back.S), (m.U, back.U), (m.Z, back.Z), (m.a, back.a),
                     (m.c, back.c), (m.e, back.e), (dense_w(m.W), dense_w(back.W))):
            assert np.array_equal(x, y)
        assert (hp_back.lam, hp_back.lam_b) == (hp.lam, hp.lam_b)
        assert (back.rank, back.window) == (3, 2)

    def test_band_serialized_in_row_major_order(self):
        m = init_positive(2, 3, 1, 2, seed=4)
        # band[k, m - 1] = w[k, k - m]: w[1,0], w[2,1], w[2,0]
        m.W[1, 0], m.W[2, 0], m.W[2, 1] = 0.25, 0.75, 0.5
        doc = model_to_dict(m, HyperParams(0.0, 0.0))
        assert doc["W_band"] == [0.25, 0.5, 0.75]
        assert doc["window"] == 2

    def test_json_doc_fields(self):
        m = init_positive(3, 2, 2, 1, seed=6)
        doc = model_to_dict(m, HyperParams(0.01, 0.02))
        assert set(doc) >= {"n_nodes", "n_slots", "rank", "window", "S", "U",
                            "Z", "a", "c", "e", "W_band", "lambda", "lambda_b"}
        assert doc["lambda"] == 0.01
        # row-major flat layout
        assert doc["S"] == [float(v) for v in m.S.ravel()]

    def test_from_dict_validates(self):
        m = init_positive(3, 2, 2, 1, seed=6)
        doc = model_to_dict(m, HyperParams(0.0, 0.0))
        doc["S"][0] = -1.0
        with pytest.raises(ValueError):
            model_from_dict(doc)

    def test_out_of_range_window_rejected_before_allocating(self):
        doc = model_to_dict(init_positive(3, 2, 2, 1, seed=6), HyperParams(0.0, 0.0))
        doc["window"] = 10**12  # a (K, window) band this wide cannot be allocated
        with pytest.raises(ValueError, match="window"):
            model_from_dict(doc)

    @pytest.mark.parametrize("n_nodes, window", [(1, 0), (512, 3), (585, 4), (1171, 9)])
    def test_file_is_json_dumps_of_model_to_dict(self, tmp_path, n_nodes, window):
        # S and U hold 7, 4096, 4095 and 8197 values: one block, exactly one,
        # one less, and two plus one
        m = init_positive(n_nodes, 10, 8 if n_nodes == 512 else 7, window, seed=n_nodes)
        hp, extra = HyperParams(0.25, 1e-300), {"note": {"x": [1, 2.5]}, "tag": "t"}
        path = tmp_path / "m.json"
        save_model(m, hp, path, extra=extra)
        doc = {**model_to_dict(m, hp), **extra}
        assert path.read_bytes() == (json.dumps(doc, indent=2) + "\n").encode()

    def test_save_model_peak_allocation_is_a_few_blocks(self, tmp_path):
        # the wide benchmark's model: building its whole text and a list of
        # every float traced 7.7 MB
        m = init_positive(2000, 50, 20, 49, seed=1)
        peak, _ = traced_peak(save_model, m, HyperParams(0.01, 0.01), tmp_path / "m.json")
        assert peak < 1e6

    def test_extra_block_preserved_on_disk(self, tmp_path):
        m = init_positive(3, 2, 1, 0, seed=1)
        path = tmp_path / "m.json"
        save_model(m, HyperParams(0.0, 0.0), path, extra={"note": {"x": 1}})
        with open(path) as fh:
            doc = json.load(fh)
        assert doc["note"] == {"x": 1}
        load_model(path)  # extra keys must not break loading


def test_copy_is_deep():
    m = init_positive(4, 3, 2, 2, seed=9)
    dup = m.copy()
    dup.S[0, 0] = 99.0
    dup.W[1, 0] = 0.123
    assert m.S[0, 0] != 99.0
    assert dense_w(m.W)[1, 0] != 0.123


def test_validate_catches_shape_and_sign_errors():
    m = init_positive(4, 3, 2, 1, seed=9)
    bad = m.copy()
    bad.S = bad.S[:3]
    with pytest.raises(ValueError):
        bad.validate()
    bad2 = m.copy()
    bad2.a = bad2.a.copy()
    bad2.a[0] = -0.5
    with pytest.raises(ValueError):
        bad2.validate()
    bad3 = m.copy()
    bad3.e = bad3.e[:2]
    with pytest.raises(ValueError, match="bias vector dimensions disagree"):
        bad3.validate()
    bad4 = m.copy()
    bad4.W = bad4.W[:2]
    with pytest.raises(ValueError, match="band must have K rows"):
        bad4.validate()


@pytest.mark.parametrize("name, shape, ndim", [("W", (4,), 2), ("W", (4, 1, 1), 2),
                                               ("S", (4,), 2)], ids=["W-1d", "W-3d", "S-1d"])
def test_validate_checks_dimensions_first(name, shape, ndim):
    # checked before any shape is unpacked or indexed, so a wrong one is named
    m = init_positive(4, 4, 2, 1, seed=9)
    setattr(m, name, np.zeros(shape))
    with pytest.raises(ValueError, match=f"^{name} must have {ndim} dimensions, not {len(shape)}$"):
        m.validate()


@pytest.mark.parametrize("dtype", [np.int64, np.float32])
@pytest.mark.parametrize("name", ["S", "U", "Z", "a", "c", "e", "W"])
def test_validate_requires_float64(name, dtype):
    # the epoch's in-place float64 arithmetic would fail on it later, far from the cause
    m = init_positive(4, 4, 2, 1, seed=9)
    setattr(m, name, getattr(m, name).astype(dtype))
    with pytest.raises(ValueError,
                       match=f"^{name} must hold float64 values, not {np.dtype(dtype)}$"):
        m.validate()
