import json
import threading
import time
import warnings
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dyntf
import dyntf.trainer
from dyntf import (DivergenceError, FactorModel, HyperParams, SparseTensor,
                   TrainConfig, analytic_gradient, band_indices,
                   compute_temporal, generate_synthetic, init_positive, model_to_dict,
                   nmu_epoch, objective, predict_entries, train)

from conftest import block_rows, dense_w, traced_peak


def _single_entry_model(value=2.0):
    m = FactorModel(S=np.ones((1, 1)), U=np.ones((1, 1)), Z=np.ones((1, 1)),
                    a=np.zeros(1), c=np.zeros(1), e=np.zeros(1),
                    W=np.zeros((1, 0)))
    t = SparseTensor(1, 1, [0], [0], [0], [value])
    return m, t


def _max_param_change(a: FactorModel, b: FactorModel) -> float:
    pairs = ((a.S, b.S), (a.U, b.U), (a.Z, b.Z), (a.a, b.a), (a.c, b.c),
             (a.e, b.e), (dense_w(a.W), dense_w(b.W)))
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
        for arr in (m.S, m.U, m.Z, m.a, m.c, m.e, dense_w(m.W)):
            assert arr.min() >= 0

    def test_structure_preserved(self):
        data, _ = generate_synthetic(12, 6, 2, 0.3, 0.6, 0.05, seed=18)
        m = init_positive(12, 6, 2, 2, seed=18)
        for _ in range(20):
            nmu_epoch(m, data, HyperParams(0.01, 0.01))
        w = dense_w(m.W)
        assert (np.diag(w) == 1.0).all()
        rows, cols = np.indices(w.shape)
        outside = (cols > rows) | (rows - cols > 2)
        assert (w[outside] == 0.0).all()
        m.validate()

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
        assert dense_w(m.W)[1, 0] != dense_w(before.W)[1, 0]
        assert np.array_equal(dense_w(m.W)[2:], dense_w(before.W)[2:])
        # parameters with data did move
        assert not np.array_equal(m.S[:2], before.S[:2])

    def test_baseline_keeps_identity_weights(self):
        data, _ = generate_synthetic(10, 5, 2, 0.3, 0.5, 0.02, seed=4)
        m = init_positive(10, 5, 2, 0, seed=4)
        for _ in range(10):
            nmu_epoch(m, data, HyperParams(0.01, 0.01))
        assert np.array_equal(dense_w(m.W), np.eye(5))

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

    def test_thread_count_does_not_change_results(self, fixture_split):
        # rank 2: three threads run one column each; four ask for more threads
        # than there are columns
        hp = HyperParams(0.01, 0.01)
        results = []
        for threads in (1, 3, 4):
            m = init_positive(50, 20, 2, 19, seed=6)
            for _ in range(5):
                nmu_epoch(m, fixture_split.train, hp, threads=threads)
            results.append(m)
        assert [_max_param_change(results[0], m) for m in results[1:]] == [0.0, 0.0]


class TestOrderedMap:
    # the epoch's column runs and the tuner's swarm both take their results
    # in item order; items 0 and 1 sleep, so on threads the later ones finish first

    @staticmethod
    def _late_first(n, done, fail=()):
        time.sleep(0.1 if n < 2 else 0.0)
        done.append(n)
        if n in fail:
            raise ValueError(f"item {n}")
        return n * n

    @pytest.mark.parametrize("threads", [1, 3])
    def test_results_come_in_item_order(self, threads):
        done = []
        out = list(dyntf.trainer._ordered_map(lambda n: self._late_first(n, done), range(5),
                                              threads))
        assert out == [0, 1, 4, 9, 16]
        if threads > 1:
            assert done.index(2) < done.index(0)  # a later item finished first

    @pytest.mark.parametrize("threads", [1, 3])
    def test_first_failing_item_in_order_raises(self, threads):
        done = []
        with pytest.raises(ValueError, match="^item 1$"):
            list(dyntf.trainer._ordered_map(lambda n: self._late_first(n, done, (1, 2)),
                                            range(5), threads))
        if threads > 1:
            assert done.index(2) < done.index(1)  # item 2 raised first, on its own thread


class TestThreadBoundary:
    # numpy keeps its error state in a context variable, which a new thread
    # does not inherit; _ordered_map hands each call a copy of the caller's.
    # It starts min(threads, items) threads, and none for a single item

    @pytest.mark.parametrize("threads", [1, 3])
    def test_pool_calls_run_under_the_callers_error_state(self, threads):
        with np.errstate(over="ignore", invalid="call"):
            caller = np.geterr()
            seen = dyntf.trainer._ordered_map(lambda _: np.geterr(), range(4), threads)
        assert caller["over"] == "ignore" and caller["invalid"] == "call"
        assert seen == [caller] * 4

    def test_one_item_runs_on_the_calling_thread(self):
        caller = threading.get_ident()
        assert dyntf.trainer._ordered_map(lambda _: threading.get_ident(), [0], 4) == [caller]

    def test_threads_are_capped_by_the_items(self):
        seen = dyntf.trainer._ordered_map(lambda _: threading.get_ident(), range(2), 8)
        assert len(set(seen)) <= 2

    def test_items_are_dealt_to_threads_other_than_the_caller(self):
        # items 0 and 1 meet at the barrier, so both threads are alive at once
        # and their idents are distinct; a sequential run breaks the barrier
        barrier = threading.Barrier(2)

        def ident(n):
            if n < 2:
                barrier.wait(timeout=5)
            return threading.get_ident()

        seen = dyntf.trainer._ordered_map(ident, range(5), 2)
        assert len(set(seen)) == 2 and threading.get_ident() not in seen
        assert seen[0::2] == [seen[0]] * 3 and seen[1::2] == [seen[1]] * 2  # p mod 2

    def test_no_thread_outlives_the_call(self):
        late_first = TestOrderedMap._late_first
        before = threading.active_count()
        dyntf.trainer._ordered_map(lambda n: late_first(n, []), range(5), 3)
        assert threading.active_count() == before
        with pytest.raises(ValueError, match="^item 2$"):  # raised while items 0 and 1 sleep
            dyntf.trainer._ordered_map(lambda n: late_first(n, [], (2,)), range(5), 3)
        assert threading.active_count() == before

    @pytest.mark.parametrize("threads", [1, 2])
    def test_overflowing_epoch_diverges_without_a_warning(self, threads):
        # S * U overflows in the Z group's rows, which a worker computes at 2 threads
        model = init_positive(30, 10, 2, 3, seed=1)
        model.S *= 1e200
        model.U *= 1e200
        data = _random_tensor(30, 10, 500, seed=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DivergenceError, match="non-finite accumulator"):
                nmu_epoch(model, data, HyperParams(0.0, 0.0), threads=threads)


def _random_tensor(n_nodes, n_slots, n_entries, seed):
    rng = np.random.default_rng(seed)
    flat = rng.choice(n_nodes * n_nodes * n_slots, size=n_entries, replace=False)
    ii, rest = np.divmod(flat, n_nodes * n_slots)
    jj, kk = np.divmod(rest, n_slots)
    return SparseTensor(n_nodes, n_slots, ii, jj, kk, rng.uniform(0.0, 2.0, n_entries))


def _reference_sums(model, data):
    """The accumulators of one epoch, unchunked, with np.add.at: per group,
    the weighted row sums with the weight sums as one more column."""
    ii, jj, kk, x = data.i, data.j, data.k, data.values
    pred = predict_entries(model, ii, jj, kk)
    si, uj, zk = model.S[ii], model.U[jj], compute_temporal(model)[0][kk]
    n, n_slots = model.n_nodes, model.n_slots
    out = {}
    for idx, rows, groups, group in ((ii, uj * zk, n, "s"), (jj, si * zk, n, "u"),
                                     (kk, si * uj, n_slots, "z")):
        for weight, kind in ((x, "num_"), (pred, "den_")):
            out[kind + group] = np.zeros((groups, model.rank + 1))
            np.add.at(out[kind + group], idx, np.column_stack((weight[:, None] * rows, weight)))
    return out


class TestEpochSums:
    @settings(max_examples=25, deadline=None)
    @given(rank=st.integers(1, 24),
           edge=st.sampled_from([(0, 1), (1, -1), (1, 0), (1, 1), (3, 457)]),
           window=st.sampled_from([0, 4]), threads=st.sampled_from([1, 2, 8]),
           seed=st.integers(0, 2**16))
    @example(rank=20, edge=(3, 457), window=4, threads=8, seed=0)
    @example(rank=1, edge=(1, 1), window=0, threads=2, seed=1)
    def test_workspace_sums_equal_allocating_oracle(self, rank, edge, window, threads, seed):
        # every cell is one bincount over all entries in entry order, as
        # np.add.at sums them, so the sums equal the unchunked reference
        # exactly at any thread count; threads 8 is more workers than rank 1
        # has columns. edge (a, b) is a * B + b entries, B the rank's block
        # length: 1, B - 1, B, B + 1 or 3B + 457
        blocks, extra = edge
        data = _random_tensor(80, 30, blocks * block_rows(rank) + extra, seed=seed)
        model = init_positive(80, 30, rank, window, seed=seed)
        sums = dyntf.trainer._epoch_sums(model, *compute_temporal(model), data, threads)
        ref = _reference_sums(model, data)
        assert sums.keys() == ref.keys()
        for name, expected in ref.items():
            assert sums[name].tobytes() == expected.tobytes(), name

    @pytest.mark.parametrize("threads, buffers", [(1, 5), (2, 3)])
    def test_peak_allocation_is_a_few_chunk_buffers(self, threads, buffers):
        # Wide's shape at rank 20 over 5 * 8192 + 123 entries, in units of an
        # (8192, 20) buffer. The chunked accumulator this replaced peaked at
        # 4.2 buffers at 1 thread and 7.2-7.4 at 2; summing whole columns holds
        # the six (21, N) totals, two length-n buffers a run and the
        # predictions. With numpy copying read-only entry arrays per call, 2
        # threads peaked at 3.08 buffers; without the copies, at 2.40.
        data = _random_tensor(2000, 50, 5 * 8192 + 123, seed=5)
        model = init_positive(2000, 50, 20, 0, seed=1)
        z_hat, e_hat = compute_temporal(model)
        peak, _ = traced_peak(dyntf.trainer._epoch_sums, model, z_hat, e_hat, data, threads)
        assert peak < buffers * 8192 * 20 * 8

    @pytest.mark.parametrize("threads", [1, 2])
    def test_epoch_copies_and_writes_no_entry_array(self, threads):
        # Many entries, few nodes: the peak is the predictions and two length-n
        # buffers per run (3.03 and 5.04 n-arrays at 1 and 2 threads). numpy
        # copies a read-only argument of np.take and np.bincount on every
        # call; handing it the tensor's frozen arrays peaked at 5.03 and 8.04.
        data = _random_tensor(400, 5, 200_000, seed=7)
        model = init_positive(400, 5, 2, 0, seed=1)
        z_hat, e_hat = compute_temporal(model)
        before = [a.tobytes() for a in (data.i, data.j, data.k, data.values)]
        peak, _ = traced_peak(dyntf.trainer._epoch_sums, model, z_hat, e_hat, data, threads)
        runs = min(threads, model.rank + 1)
        assert peak < (1 + 2 * runs + 0.25) * data.n_entries * 8
        nmu_epoch(model, data, HyperParams(0.01, 0.01), threads=threads)
        assert [a.tobytes() for a in (data.i, data.j, data.k, data.values)] == before

    def test_epoch_peaks_at_its_sums_at_the_long_horizon_shape(self):
        # longK_tune's training part (N = 200, K = 2000, 42 000 entries, rank
        # 10, window 3) as a swarm worker runs it, at threads 1. The epoch's
        # peak is that of _epoch_sums with its mix: the predictions, the run's
        # two length-n buffers and the six totals, 4.84 n-arrays. With 8192-row
        # gather buffers it peaked at 6.02; keeping the z totals once stacked, 5.38
        data = _random_tensor(200, 2000, 42_000, seed=11)
        model = init_positive(200, 2000, 10, 3, seed=1)
        sums_peak, _ = traced_peak(
            lambda: dyntf.trainer._epoch_sums(model, *compute_temporal(model), data, 1))
        peak, _ = traced_peak(nmu_epoch, model, data, HyperParams(0.01, 0.01))
        assert peak < 5 * data.n_entries * 8
        assert peak <= 1.01 * sums_peak

    @pytest.mark.parametrize("threads", [1, 2])
    def test_peak_is_about_the_totals_at_many_nodes(self, threads):
        # many nodes, few entries: the peak is set by the six totals, not by
        # a copy of them per chunk (the chunked accumulator peaked at 2.07x
        # their bytes at 1 thread and 3.14x at 2; whole columns, 1.08x and 1.15x)
        n, k, rank = 200_000, 5, 4
        data = _random_tensor(n, k, 3 * 8192 + 1, seed=2)
        model = init_positive(n, k, rank, 2, seed=3)
        z_hat, e_hat = compute_temporal(model)
        peak, _ = traced_peak(dyntf.trainer._epoch_sums, model, z_hat, e_hat, data, threads)
        assert peak < 1.25 * (4 * n + 2 * k) * (rank + 1) * 8

    @pytest.mark.parametrize("block, n_entries", [(1, 301), (7, 301), (8192, 2 * 8192 + 123),
                                                  (302, 301)])
    @pytest.mark.parametrize("threads", [1, 2])
    def test_matches_unchunked_reference(self, monkeypatch, block, n_entries, threads):
        # the predictions come in blocks through two reused buffers; no sum
        # may depend on the block length (`block` rows of rank 3, set in bytes)
        data = _random_tensor(60, 20, n_entries, seed=n_entries)
        model = init_positive(60, 20, 3, 4, seed=8)
        monkeypatch.setattr(dyntf.model, "_GATHER_BYTES", block * 8 * 3)
        assert block_rows(3) == block
        sums = dyntf.trainer._epoch_sums(model, *compute_temporal(model), data, threads)
        ref = _reference_sums(model, data)
        assert sums.keys() == ref.keys()
        for name, expected in ref.items():
            assert sums[name].tobytes() == expected.tobytes(), name

    def test_runs_are_capped_by_the_columns(self, monkeypatch):
        # rank 2 has 3 columns (two latent, one bias): 64 threads hand over at
        # most 3 runs and start at most 3 workers
        handed = []
        ordered_map = dyntf.trainer._ordered_map

        def record(fn, items, threads):
            items = list(items)
            handed.append((items, threads))
            return ordered_map(fn, items, threads)

        monkeypatch.setattr(dyntf.trainer, "_ordered_map", record)
        data = _random_tensor(30, 10, 500, seed=1)
        nmu_epoch(init_positive(30, 10, 2, 3, seed=1), data, HyperParams(0.01, 0.01), threads=64)
        [(runs, workers)] = handed
        assert 1 <= len(runs) <= 3 and workers <= 3
        assert all(len(columns) > 0 for columns, _, _ in runs)
        assert sorted(np.concatenate([columns for columns, _, _ in runs]).tolist()) == [0, 1, 2]
        # each run writes into two length-n buffers of its own
        buffers = [buf for _, rows, weighted in runs for buf in (rows, weighted)]
        assert all(buf.shape == (500,) for buf in buffers)
        assert not any(np.shares_memory(a, b) for a, b in combinations(buffers, 2))

    def test_real_chunk_grid_thread_count_does_not_change_model_bytes(self):
        # more than three prediction blocks, the last one short, and rank 4:
        # two threads share its five columns
        data = _random_tensor(80, 30, 25_033, seed=3)
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
    for arr in (model.S, model.U, model.Z, model.a, model.c, model.e, model.W):
        arr[zero_rng.random(arr.shape) < 0.2] = 0.0
    hp = HyperParams(draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0)))
    return model, data, hp


def _params(model):
    return {"S": model.S, "U": model.U, "Z": model.Z, "a": model.a, "c": model.c,
            "e": model.e, "band": model.W}


class TestMuInvariants:
    @settings(max_examples=150, deadline=None)
    @given(_mu_cases())
    def test_one_epoch_keeps_the_invariants(self, case):
        model, data, hp = case
        before = {name: arr.copy() for name, arr in _params(model).items()}
        nmu_epoch(model, data, hp)
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

    @settings(max_examples=60, deadline=None)
    @given(_mu_cases())
    def test_thread_count_does_not_change_bytes(self, case):
        model, data, hp = case
        results = []
        for threads in (1, 3):
            m = model.copy()
            nmu_epoch(m, data, hp, threads=threads)
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

    @pytest.mark.parametrize("max_epochs", [2.5, 3.0, np.float64(3)], ids=["2.5", "3.0", "float64"])
    def test_max_epochs_must_be_an_integer(self, max_epochs):
        # caught here, not as a TypeError from range() inside train
        with pytest.raises(TypeError, match="integer"):
            TrainConfig(max_epochs=max_epochs)

    def test_integer_max_epochs_is_a_python_int(self):
        assert type(TrainConfig(max_epochs=np.int64(3)).max_epochs) is int


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
        m.W[coord[1], coord[1] - coord[2] - 1] += delta
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

    @pytest.mark.parametrize("n_nodes, n_slots", [(4, 2), (3, 3)])
    def test_tensor_larger_than_model_rejected_before_any_gather(self, n_nodes, n_slots):
        # the epoch's gathers clip their indices, so an entry past the model's
        # rows must be refused before it could train on the wrong row; an
        # empty tensor of the same size is refused alike
        m = init_positive(3, 2, 2, 1, seed=0)
        full = SparseTensor(n_nodes, n_slots, [0, n_nodes - 1], [1, 0], [0, n_slots - 1],
                            [1.0, 2.0])
        empty = SparseTensor(n_nodes, n_slots, [], [], [], [])
        size = f"a tensor of N={n_nodes}, K={n_slots} does not fit a model of N=3, K=2"
        for t in (full, empty):
            with pytest.raises(ValueError, match=size):
                nmu_epoch(m.copy(), t, HyperParams(0.0, 0.0))
            with pytest.raises(ValueError, match=size):
                analytic_gradient(m, t, HyperParams(0.0, 0.0), ("s", 0, 0))
        with pytest.raises(IndexError, match="index out of range"):
            objective(m, full, HyperParams(0.0, 0.0))

    def test_out_of_range_coordinate(self):
        m, t = _single_entry_model()
        # a negative index must not wrap around to the end
        for coord in [("s", 5, 0), ("s", -1, 0), ("s", 0, -1), ("u", -1, 0),
                      ("u", 0, -1), ("z", -1, 0), ("z", 0, -1), ("a", -1),
                      ("c", -1), ("e", -1), ("w", -1, 0), ("w", 0, -1)]:
            with pytest.raises(IndexError):
                analytic_gradient(m, t, HyperParams(0.0, 0.0), coord)
