import json

import numpy as np
import pytest

import dyntf
from dyntf import (FactorModel, HyperParams, TemporalWeights, band_indices,
                   compute_temporal, init_positive, load_model, model_from_dict,
                   model_to_dict, objective, predict, predict_entries, save_model)


def _bias_only(n=3, k=2, a=1.0, c=2.0, e=3.0):
    zeros = np.zeros((n, 1))
    return FactorModel(S=zeros.copy(), U=zeros.copy(), Z=np.zeros((k, 1)),
                       a=np.full(n, a), c=np.full(n, c), e=np.full(k, e),
                       weights=TemporalWeights(band=np.zeros((k, 0))))


class TestTemporalWeights:
    # the band stores only the lags, so the unit diagonal and the zeros
    # outside the band are implied; the dense view must show them exactly

    def test_window_is_band_width(self):
        assert TemporalWeights(band=np.zeros((5, 3))).window == 3
        assert init_positive(2, 5, 1, 2, seed=3).window == 2

    def test_identity_is_valid(self):
        weights = TemporalWeights(band=np.zeros((4, 0)))
        weights.validate()
        assert np.array_equal(weights.w, np.eye(4))

    def test_diagonal_must_be_one(self):
        w = init_positive(2, 5, 1, 2, seed=3).weights.w
        assert (np.diag(w) == 1.0).all()

    def test_upper_triangle_must_be_zero(self):
        w = init_positive(2, 5, 1, 2, seed=3).weights.w
        assert not np.triu(w, 1).any()

    def test_band_limit_enforced(self):
        w = init_positive(2, 5, 1, 2, seed=3).weights.w
        assert not np.tril(w, -3).any()  # depth 3 > window 2

    def test_negative_weight_rejected(self):
        band = np.zeros((3, 2))
        band[1, 0] = -0.5
        with pytest.raises(ValueError):
            TemporalWeights(band=band).validate()

    def test_window_range(self):
        with pytest.raises(ValueError):
            TemporalWeights(band=np.zeros((3, 3))).validate()

    def test_band_before_slot_zero_must_be_zero(self):
        band = np.zeros((4, 2))
        band[1, 1] = 0.1  # lag 2 of slot 1 would be slot -1
        with pytest.raises(ValueError, match="before slot 0"):
            TemporalWeights(band=band).validate()

    def test_dense_view_places_lags(self):
        band = np.array([[0, 0], [0.1, 0], [0.2, 0.3], [0.4, 0.5]])
        w = TemporalWeights(band=band).w
        expected = np.eye(4)
        expected[1, 0], expected[2, 1], expected[2, 0] = 0.1, 0.2, 0.3
        expected[3, 2], expected[3, 1] = 0.4, 0.5
        assert np.array_equal(w, expected)

    def test_dense_view_is_read_only(self):
        weights = init_positive(3, 4, 1, 2, seed=0).weights
        with pytest.raises(ValueError, match="read-only"):
            weights.w[1, 0] += 1.0


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
        assert np.array_equal(m.weights.w, np.eye(3))

    def test_band_strictly_positive(self):
        m = init_positive(4, 5, 2, 3, seed=2)
        ks, ls = band_indices(5, 3)
        assert m.weights.w[ks, ls].min() > 0

    def test_same_seed_bitwise_identical(self):
        a = init_positive(5, 4, 2, 2, seed=42)
        b = init_positive(5, 4, 2, 2, seed=42)
        for x, y in ((a.S, b.S), (a.U, b.U), (a.Z, b.Z), (a.a, b.a),
                     (a.c, b.c), (a.e, b.e), (a.weights.w, b.weights.w)):
            assert np.array_equal(x, y)

    def test_shapes_and_properties(self):
        m = init_positive(6, 4, 3, 2, seed=0)
        assert (m.n_nodes, m.n_slots, m.rank, m.window) == (6, 4, 3, 2)
        assert m.S.shape == (6, 3) and m.Z.shape == (4, 3)

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
                        weights=TemporalWeights(band=band))
        z_hat, _ = compute_temporal(m)
        assert np.array_equal(z_hat, np.array([[2.0], [5.0]]))

    def test_full_lower_ones_accumulate_bias(self):
        band = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])  # full lower ones
        m = FactorModel(S=np.ones((1, 1)), U=np.ones((1, 1)),
                        Z=np.ones((3, 1)), a=np.zeros(1), c=np.zeros(1),
                        e=np.ones(3), weights=TemporalWeights(band=band))
        _, e_hat = compute_temporal(m)
        assert np.array_equal(e_hat, np.array([1.0, 2.0, 3.0]))


class TestPredict:
    def test_bias_only(self):
        m = _bias_only()
        assert predict(m, 0, 1, 0) == 6.0
        assert predict(m, 2, 2, 0) == 6.0

    def test_rank_one_product(self):
        m = FactorModel(S=np.array([[2.0]]), U=np.array([[3.0]]),
                        Z=np.array([[1.0]]), a=np.zeros(1), c=np.zeros(1),
                        e=np.zeros(1), weights=TemporalWeights(band=np.zeros((1, 0))))
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

    def test_vectorized_matches_scalar(self):
        m = init_positive(5, 4, 3, 2, seed=11)
        ii = np.array([0, 2, 4])
        jj = np.array([1, 1, 3])
        kk = np.array([0, 3, 2])
        batch = predict_entries(m, ii, jj, kk)
        singles = [predict(m, *t) for t in zip(ii, jj, kk)]
        assert np.array_equal(batch, np.array(singles))


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
                        weights=TemporalWeights(band=np.zeros((1, 0))))
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
                     (m.c, back.c), (m.e, back.e), (m.weights.w, back.weights.w)):
            assert np.array_equal(x, y)
        assert (hp_back.lam, hp_back.lam_b) == (hp.lam, hp.lam_b)
        assert (back.rank, back.window) == (3, 2)

    def test_band_serialized_in_row_major_order(self):
        m = init_positive(2, 3, 1, 2, seed=4)
        # band[k, m - 1] = w[k, k - m]: w[1,0], w[2,1], w[2,0]
        m.weights.band[1, 0], m.weights.band[2, 0], m.weights.band[2, 1] = 0.25, 0.75, 0.5
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
    dup.weights.band[1, 0] = 0.123
    assert m.S[0, 0] != 99.0
    assert m.weights.w[1, 0] != 0.123


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
