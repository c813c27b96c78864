import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dyntf
import dyntf.trainer
from dyntf import (DivergenceError, FactorModel, HyperParams, SparseTensor,
                   TemporalWeights, TrainConfig, analytic_gradient, band_indices,
                   compute_temporal, generate_synthetic, init_positive, model_to_dict,
                   nmu_epoch, objective, predict_entries, train)


def _single_entry_model(value=2.0):
    m = FactorModel(S=np.ones((1, 1)), U=np.ones((1, 1)), Z=np.ones((1, 1)),
                    a=np.zeros(1), c=np.zeros(1), e=np.zeros(1),
                    weights=TemporalWeights(band=np.zeros((1, 0))))
    t = SparseTensor(1, 1, [0], [0], [0], [value])
    return m, t


def _max_param_change(a: FactorModel, b: FactorModel) -> float:
    pairs = ((a.S, b.S), (a.U, b.U), (a.Z, b.Z), (a.a, b.a), (a.c, b.c),
             (a.e, b.e), (a.weights.w, b.weights.w))
    return max(float(np.max(np.abs(x - y))) if x.size else 0.0 for x, y in pairs)


class TestNmuEpoch:
    def test_hand_update_single_entry(self):
        # x = 2, all unit factors, zero biases: every factor scales by 2,
        # zero biases stay at the multiplicative fixed point 0
        m, t = _single_entry_model(2.0)
        nmu_epoch(m, t, HyperParams(0.0, 0.0))
        assert m.S[0, 0] == 2.0
        assert m.U[0, 0] == 2.0
        assert m.Z[0, 0] == 2.0
        assert m.a[0] == 0.0 and m.c[0] == 0.0 and m.e[0] == 0.0

    def test_perfect_fit_is_fixed_point(self):
        data, truth = generate_synthetic(20, 8, 2, 0.2, 0.8, 0.0, seed=31)
        before = truth.copy()
        nmu_epoch(truth, data, HyperParams(0.0, 0.0))
        assert _max_param_change(before, truth) <= 1e-12

    def test_nonnegativity_preserved(self):
        data, _ = generate_synthetic(12, 6, 2, 0.3, 0.6, 0.05, seed=17)
        m = init_positive(12, 6, 3, 4, seed=17)
        for _ in range(30):
            nmu_epoch(m, data, HyperParams(0.05, 0.02))
        for arr in (m.S, m.U, m.Z, m.a, m.c, m.e, m.weights.w):
            assert arr.min() >= 0

    def test_structure_preserved(self):
        data, _ = generate_synthetic(12, 6, 2, 0.3, 0.6, 0.05, seed=18)
        m = init_positive(12, 6, 2, 2, seed=18)
        for _ in range(20):
            nmu_epoch(m, data, HyperParams(0.01, 0.01))
        w = m.weights.w
        assert (np.diag(w) == 1.0).all()
        rows, cols = np.indices(w.shape)
        outside = (cols > rows) | (rows - cols > 2)
        assert (w[outside] == 0.0).all()
        m.weights.validate()

    def test_untouched_parameters_left_alone(self):
        # data only at i in {0,1}, j in {2,3}, slot 1; window 1
        t = SparseTensor(4, 4, [0, 0, 1, 1], [2, 3, 2, 3], [1, 1, 1, 1],
                         [0.5, 1.0, 1.5, 2.0])
        m = init_positive(4, 4, 2, 1, seed=23)
        before = m.copy()
        nmu_epoch(m, t, HyperParams(0.1, 0.1))
        assert np.array_equal(m.S[2:], before.S[2:])
        assert np.array_equal(m.U[:2], before.U[:2])
        assert np.array_equal(m.a[2:], before.a[2:])
        assert np.array_equal(m.c[:2], before.c[:2])
        # slot reach with window 1: slots 2, 3 see no data
        assert np.array_equal(m.Z[2:], before.Z[2:])
        assert np.array_equal(m.e[2:], before.e[2:])
        # W rows for slots without observations keep their band values
        assert m.weights.w[1, 0] != before.weights.w[1, 0]
        assert np.array_equal(m.weights.w[2:], before.weights.w[2:])
        # parameters with data did move
        assert not np.array_equal(m.S[:2], before.S[:2])

    def test_baseline_keeps_identity_weights(self):
        data, _ = generate_synthetic(10, 5, 2, 0.3, 0.5, 0.02, seed=4)
        m = init_positive(10, 5, 2, 0, seed=4)
        for _ in range(10):
            nmu_epoch(m, data, HyperParams(0.01, 0.01), mode="baseline")
        assert np.array_equal(m.weights.w, np.eye(5))

    def test_empty_training_set_is_identity(self):
        t = SparseTensor(3, 2, [], [], [], [])
        m = init_positive(3, 2, 1, 1, seed=2)
        before = m.copy()
        nmu_epoch(m, t, HyperParams(0.1, 0.1))
        assert _max_param_change(before, m) == 0.0

    def test_divergence_detected(self):
        data, _ = generate_synthetic(6, 3, 1, 0.5, 0.5, 0.0, seed=1)
        m = init_positive(6, 3, 1, 1, seed=1)
        m.S = m.S * 1e200
        m.U = m.U * 1e200
        with pytest.raises(DivergenceError, match="diverged"):
            nmu_epoch(m, data, HyperParams(0.0, 0.0))
        # the epoch loop names the epoch in which the update diverged
        with pytest.raises(DivergenceError, match=r"^epoch 1: non-finite .* diverged"):
            train(m, data, data, HyperParams(0.0, 0.0), TrainConfig(max_epochs=3))

    def test_thread_count_does_not_change_results(self, monkeypatch, fixture_split):
        monkeypatch.setattr(dyntf.trainer, "_CHUNK", 64)
        hp = HyperParams(0.01, 0.01)
        results = []
        for threads in (1, 3):
            m = init_positive(50, 20, 2, 19, seed=6)
            for _ in range(5):
                nmu_epoch(m, fixture_split.train, hp, threads=threads)
            results.append(m)
        assert _max_param_change(results[0], results[1]) == 0.0


def _random_tensor(n_nodes, n_slots, n_entries, seed):
    rng = np.random.default_rng(seed)
    flat = rng.choice(n_nodes * n_nodes * n_slots, size=n_entries, replace=False)
    ii, rest = np.divmod(flat, n_nodes * n_slots)
    jj, kk = np.divmod(rest, n_slots)
    return SparseTensor(n_nodes, n_slots, ii, jj, kk, rng.uniform(0.0, 2.0, n_entries))


def _reference_sums(model, data):
    """The accumulators of one epoch, unchunked, with np.add.at."""
    ii, jj, kk, x = data.i, data.j, data.k, data.values
    pred = predict_entries(model, ii, jj, kk)
    si, uj, zk = model.S[ii], model.U[jj], compute_temporal(model)[0][kk]
    n, n_slots = model.n_nodes, model.n_slots
    out = {}
    for idx, rows, groups, num, den in ((ii, uj * zk, n, "num_s", "den_s"),
                                        (jj, si * zk, n, "num_u", "den_u"),
                                        (kk, si * uj, n_slots, "g_num", "g_den")):
        for weight, name in ((x, num), (pred, den)):
            out[name] = np.zeros((groups, model.rank))
            np.add.at(out[name], idx, weight[:, None] * rows)
    for idx, groups, num, den in ((ii, n, "num_a", "den_a"), (jj, n, "num_c", "den_c"),
                                  (kk, n_slots, "h_num", "h_den")):
        for weight, name in ((x, num), (pred, den)):
            out[name] = np.zeros(groups)
            np.add.at(out[name], idx, weight)
    return out


class TestEpochSums:
    @pytest.mark.parametrize("chunk, n_entries", [
        (1, 301), (7, 301), (dyntf.trainer._CHUNK, 2 * dyntf.trainer._CHUNK + 123),
        (302, 301)])
    @pytest.mark.parametrize("threads", [1, 2])
    def test_matches_unchunked_reference(self, monkeypatch, chunk, n_entries, threads):
        data = _random_tensor(60, 20, n_entries, seed=n_entries)
        model = init_positive(60, 20, 3, 4, seed=8)
        monkeypatch.setattr(dyntf.trainer, "_CHUNK", chunk)
        sums = dyntf.trainer._epoch_sums(model, *compute_temporal(model), data, threads)
        ref = _reference_sums(model, data)
        assert sums.keys() == ref.keys()
        for name, expected in ref.items():
            np.testing.assert_allclose(sums[name], expected, rtol=1e-12, atol=0, err_msg=name)

    def test_real_chunk_grid_thread_count_does_not_change_model_bytes(self):
        # more than three real chunks, the last one short, so the pool runs
        n_entries = 3 * dyntf.trainer._CHUNK + 457
        data = _random_tensor(80, 30, n_entries, seed=3)
        validation = _random_tensor(80, 30, 50, seed=4)
        docs = []
        for threads in (1, 2):
            model = init_positive(80, 30, 4, 5, seed=9)
            fitted, _ = train(model, data, validation, HyperParams(0.01, 0.01),
                              TrainConfig(max_epochs=3, tolerance=0.0), threads=threads)
            docs.append(json.dumps(model_to_dict(fitted, HyperParams(0.01, 0.01))))
        assert docs[0] == docs[1]


@st.composite
def _mu_cases(draw):
    n = draw(st.integers(1, 5))
    n_slots = draw(st.integers(1, 5))
    cells = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                    st.integers(0, n_slots - 1)),
                          unique=True, max_size=12))
    values = draw(st.lists(st.floats(0.0, 10.0), min_size=len(cells), max_size=len(cells)))
    ii, jj, kk = (np.array([c[a] for c in cells], dtype=np.int64) for a in range(3))
    data = SparseTensor(n, n_slots, ii, jj, kk, values)
    model = init_positive(n, n_slots, draw(st.integers(1, 3)),
                          draw(st.integers(0, n_slots - 1)), seed=draw(st.integers(0, 2**16)))
    # zero some parameters exactly: multiplicative updates must keep them at 0
    zero_rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    for arr in (model.S, model.U, model.Z, model.a, model.c, model.e, model.weights.band):
        arr[zero_rng.random(arr.shape) < 0.2] = 0.0
    hp = HyperParams(draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0)))
    return model, data, hp, draw(st.sampled_from(["att", "baseline"]))


def _params(model):
    return {"S": model.S, "U": model.U, "Z": model.Z, "a": model.a, "c": model.c,
            "e": model.e, "band": model.weights.band}


class TestMuInvariants:
    @settings(max_examples=150, deadline=None)
    @given(_mu_cases())
    def test_one_epoch_keeps_the_invariants(self, case):
        model, data, hp, mode = case
        before = {name: arr.copy() for name, arr in _params(model).items()}
        nmu_epoch(model, data, hp, mode=mode)
        after = _params(model)
        for name, arr in after.items():
            assert np.isfinite(arr).all() and (arr >= 0).all(), name
            # zero-locking: an exact 0 stays 0
            assert (arr[before[name] == 0.0] == 0.0).all(), name
        n, n_slots, window = model.n_nodes, model.n_slots, model.window
        seen_i = np.isin(np.arange(n), data.i)
        seen_j = np.isin(np.arange(n), data.j)
        seen_k = np.isin(np.arange(n_slots), data.k)
        # slot l is reached by entries in slots l .. l + window
        reached = np.array([seen_k[l:l + window + 1].any() for l in range(n_slots)])
        for name, untouched in (("S", ~seen_i), ("a", ~seen_i), ("U", ~seen_j),
                                ("c", ~seen_j), ("Z", ~reached), ("e", ~reached),
                                ("band", ~seen_k)):
            assert np.array_equal(after[name][untouched], before[name][untouched]), name
        if mode == "baseline":
            assert np.array_equal(after["band"], before["band"])

    @settings(max_examples=60, deadline=None)
    @given(_mu_cases(), st.integers(1, 4))
    def test_thread_count_does_not_change_bytes(self, case, chunk):
        model, data, hp, mode = case
        results = []
        with mock.patch.object(dyntf.trainer, "_CHUNK", chunk):
            for threads in (1, 3):
                m = model.copy()
                nmu_epoch(m, data, hp, mode=mode, threads=threads)
                results.append(b"".join(arr.tobytes() for arr in _params(m).values()))
        assert results[0] == results[1]


class TestTrain:
    def test_ground_truth_terminates_at_epoch_two(self):
        data, truth = generate_synthetic(20, 8, 2, 0.2, 0.8, 0.0, seed=31)
        sp = dyntf.split(data, (7, 1, 2), seed=31)
        fitted, report = train(truth, sp.train, sp.validation,
                               HyperParams(0.0, 0.0),
                               TrainConfig(max_epochs=50, tolerance=1e-5))
        assert report.epochs_run == 2
        assert report.termination == "tolerance"

    def test_zero_tolerance_runs_all_epochs(self, fixture_split):
        m = init_positive(50, 20, 2, 19, seed=10)
        _, report = train(m, fixture_split.train, fixture_split.validation,
                          HyperParams(0.01, 0.01),
                          TrainConfig(max_epochs=7, tolerance=0.0))
        assert report.epochs_run == 7
        assert report.termination == "max_epochs"

    def test_report_series_invariants(self, fixture_split):
        m = init_positive(50, 20, 2, 19, seed=10)
        _, report = train(m, fixture_split.train, fixture_split.validation,
                          HyperParams(0.01, 0.01),
                          TrainConfig(max_epochs=12, tolerance=0.0))
        n = report.epochs_run
        assert len(report.per_epoch_rmse) == n
        assert len(report.per_epoch_mae) == n
        assert len(report.per_epoch_h) == n
        assert 1 <= report.cr_rmse <= n and 1 <= report.cr_mae <= n
        for r, m_, h in zip(report.per_epoch_rmse, report.per_epoch_mae,
                            report.per_epoch_h):
            assert h == (r + m_) / 2.0
        assert (report.final_hp.lam, report.final_hp.lam_b) == (0.01, 0.01)

    def test_input_model_not_mutated(self, fixture_split):
        m = init_positive(50, 20, 2, 19, seed=10)
        snapshot = m.copy()
        train(m, fixture_split.train, fixture_split.validation,
              HyperParams(0.01, 0.01), TrainConfig(max_epochs=3, tolerance=0.0))
        assert _max_param_change(snapshot, m) == 0.0

    def test_repeat_runs_bit_identical(self, fixture_split):
        reports = []
        for _ in range(2):
            m = init_positive(50, 20, 2, 19, seed=10)
            _, rep = train(m, fixture_split.train, fixture_split.validation,
                           HyperParams(0.01, 0.01),
                           TrainConfig(max_epochs=6, tolerance=0.0))
            reports.append(rep)
        assert reports[0].per_epoch_h == reports[1].per_epoch_h

    def test_empty_validation_rejected(self, fixture_split):
        m = init_positive(50, 20, 2, 19, seed=10)
        empty = SparseTensor(50, 20, [], [], [], [])
        with pytest.raises(ValueError, match="validation"):
            train(m, fixture_split.train, empty, HyperParams(0.0, 0.0),
                  TrainConfig(max_epochs=3))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(max_epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(tolerance=-1.0)
        with pytest.raises(ValueError):
            TrainConfig(mode="other")


def _perturbed(model: FactorModel, coord, delta: float) -> FactorModel:
    m = model.copy()
    kind = coord[0]
    if kind == "s":
        m.S[coord[1], coord[2]] += delta
    elif kind == "u":
        m.U[coord[1], coord[2]] += delta
    elif kind == "z":
        m.Z[coord[1], coord[2]] += delta
    elif kind == "a":
        m.a[coord[1]] += delta
    elif kind == "c":
        m.c[coord[1]] += delta
    elif kind == "e":
        m.e[coord[1]] += delta
    elif kind == "w":
        m.weights.band[coord[1], coord[1] - coord[2] - 1] += delta
    else:
        raise ValueError(kind)
    return m


def fd_gradient(model, data, hp, coord, step=1e-6):
    hi = objective(_perturbed(model, coord, +step), data, hp)
    lo = objective(_perturbed(model, coord, -step), data, hp)
    return (hi - lo) / (2.0 * step)


def all_coordinates(model: FactorModel):
    n, k, d = model.n_nodes, model.n_slots, model.rank
    for i in range(n):
        yield ("a", i)
        yield ("c", i)
        for r in range(d):
            yield ("s", i, r)
            yield ("u", i, r)
    for l in range(k):
        yield ("e", l)
        for r in range(d):
            yield ("z", l, r)
    ks, ls = band_indices(k, model.window)
    for kk, ll in zip(ks, ls):
        yield ("w", int(kk), int(ll))


class TestAnalyticGradient:
    def test_hand_value_single_entry(self):
        m, t = _single_entry_model(2.0)
        hp = HyperParams(0.0, 0.0)
        assert analytic_gradient(m, t, hp, ("s", 0, 0)) == -1.0
        assert analytic_gradient(m, t, hp, ("a", 0)) == -1.0

    def test_zero_at_perfect_fit(self):
        data, truth = generate_synthetic(8, 4, 1, 0.4, 0.5, 0.0, seed=12)
        hp = HyperParams(0.0, 0.0)
        for coord in [("s", 0, 0), ("u", 3, 0), ("z", 2, 0), ("a", 1),
                      ("c", 5), ("e", 0)]:
            assert analytic_gradient(truth, data, hp, coord) == pytest.approx(0.0, abs=1e-12)
        # no observed entry: the objective is constant, whatever the model
        m = init_positive(3, 4, 2, 2, seed=5)
        empty = SparseTensor(3, 4, [], [], [], [])
        for coord in [("s", 1, 1), ("u", 2, 0), ("z", 3, 1), ("a", 0), ("c", 2),
                      ("e", 1), ("w", 3, 1)]:
            assert analytic_gradient(m, empty, HyperParams(0.1, 0.1), coord) == 0.0

    def test_matches_finite_differences_small_instance(self):
        data, _ = generate_synthetic(3, 3, 1, 0.6, 0.5, 0.05, seed=2)
        m = init_positive(3, 3, 1, 1, seed=14, scale=0.6)
        hp = HyperParams(0.02, 0.01)
        for coord in all_coordinates(m):
            an = analytic_gradient(m, data, hp, coord)
            fd = fd_gradient(m, data, hp, coord)
            rel = abs(an - fd) / max(abs(an), abs(fd), 1e-12)
            assert rel < 1e-5, (coord, an, fd)

    def test_inadmissible_w_coordinates_rejected(self):
        m = init_positive(3, 4, 1, 2, seed=0)
        data, _ = generate_synthetic(3, 4, 1, 0.5, 0.5, 0.0, seed=0)
        hp = HyperParams(0.0, 0.0)
        # the last one is an unknown kind
        for coord in [("w", 1, 1), ("w", 0, 1), ("w", 3, 0), ("x", 0)]:
            with pytest.raises(ValueError):
                analytic_gradient(m, data, hp, coord)

    def test_out_of_range_coordinate(self):
        m, t = _single_entry_model()
        # a negative index must not wrap around to the end
        for coord in [("s", 5, 0), ("s", -1, 0), ("s", 0, -1), ("u", -1, 0),
                      ("u", 0, -1), ("z", -1, 0), ("z", 0, -1), ("a", -1),
                      ("c", -1), ("e", -1), ("w", -1, 0), ("w", 0, -1)]:
            with pytest.raises(IndexError):
                analytic_gradient(m, t, HyperParams(0.0, 0.0), coord)
