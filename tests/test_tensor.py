import io

import numpy as np
import pytest

import dyntf
from dyntf import DataError, SparseTensor, compute_stats, generate_synthetic, load_coo, save_coo, split


def _load(text, **kw):
    return load_coo(io.StringIO(text), **kw)


class TestLoadCoo:
    def test_basic_parse(self):
        t = _load("0 1 2 3.5\n", n_nodes=2, n_slots=3)
        assert t.entries == [dyntf.ObservedEntry(0, 1, 2, 3.5)]

    def test_comments_and_blank_lines_skipped(self):
        t = _load("# header\n\n0 0 0 1.0\n  # indented comment\n1 1 0 2.0\n",
                  n_nodes=2, n_slots=1)
        assert t.n_entries == 2

    def test_dims_header(self):
        t = _load("%dims 4 4 3\n0 1 2 3.5\n")
        assert (t.n_nodes, t.n_slots) == (4, 3)

    def test_dims_header_agrees_with_flags(self):
        t = _load("%dims 4 4 3\n0 0 0 1.0\n", n_nodes=4, n_slots=3)
        assert t.n_nodes == 4
        with pytest.raises(DataError, match="disagrees"):
            _load("%dims 4 4 3\n0 0 0 1.0\n", n_nodes=5, n_slots=3)

    def test_missing_dims(self):
        with pytest.raises(DataError, match="dimensions unknown"):
            _load("0 0 0 1.0\n")

    def test_negative_value_reports_line(self):
        with pytest.raises(DataError, match="negative value at line 2"):
            _load("0 0 0 1.0\n0 1 2 -1.0\n", n_nodes=2, n_slots=3)

    def test_duplicate_reports_line(self):
        with pytest.raises(DataError, match=r"duplicate \(0, 0, 0\) at line 2"):
            _load("0 0 0 1.0\n0 0 0 1.0\n", n_nodes=1, n_slots=1)

    def test_malformed_lines(self):
        with pytest.raises(DataError, match="line 1"):
            _load("0 1\n", n_nodes=2, n_slots=1)
        with pytest.raises(DataError, match="integers"):
            _load("a b c 1.0\n", n_nodes=2, n_slots=1)
        with pytest.raises(DataError, match="not a number"):
            _load("0 0 0 xyz\n", n_nodes=2, n_slots=1)
        with pytest.raises(DataError, match="non-finite"):
            _load("0 0 0 inf\n", n_nodes=2, n_slots=1)

    def test_out_of_bounds_index(self):
        with pytest.raises(DataError, match="out of bounds at line 1"):
            _load("5 0 0 1.0\n", n_nodes=4, n_slots=1)
        with pytest.raises(DataError, match="out of bounds at line 1"):
            _load("0 0 9 1.0\n", n_nodes=4, n_slots=3)

    def test_scientific_notation_value(self):
        t = _load("0 0 0 2.5e-3\n", n_nodes=1, n_slots=1)
        assert t.values[0] == 2.5e-3

    def test_directed_pairs_are_distinct(self):
        # (i, j, k) and (j, i, k) are different observations, never merged
        t = _load("0 1 0 1.0\n1 0 0 2.0\n", n_nodes=2, n_slots=1)
        assert t.n_entries == 2


def test_round_trip_exact(tmp_path, small_tensor):
    rng = np.random.default_rng(5)
    vals = rng.uniform(0.0, 3.0, size=small_tensor.n_entries)
    t = SparseTensor(4, 3, small_tensor.i, small_tensor.j, small_tensor.k, vals)
    path = tmp_path / "t.coo"
    save_coo(t, path)
    back = load_coo(path)
    assert back.entries == t.entries
    assert np.array_equal(back.values, t.values)


def test_tensor_arrays_read_only(small_tensor):
    with pytest.raises(ValueError):
        small_tensor.values[0] = 9.0


def test_take_subset(small_tensor):
    sub = small_tensor.take(np.array([1, 3]))
    assert sub.entries == [small_tensor.entries[1], small_tensor.entries[3]]
    assert (sub.n_nodes, sub.n_slots) == (4, 3)


def test_constructor_validation():
    with pytest.raises(DataError, match="out of bounds"):
        SparseTensor(2, 2, [2], [0], [0], [1.0])
    with pytest.raises(DataError, match="negative"):
        SparseTensor(2, 2, [0], [0], [0], [-1.0])
    with pytest.raises(DataError, match="duplicate"):
        SparseTensor(2, 2, [0, 0], [1, 1], [0, 0], [1.0, 2.0])
    with pytest.raises(DataError, match="non-finite"):
        SparseTensor(2, 2, [0], [0], [0], [np.nan])


class TestSplit:
    def test_sizes_floor_then_remainder(self):
        t = SparseTensor(5, 4, np.arange(20) % 5, np.arange(20) // 5 % 5,
                         np.arange(20) % 4, np.ones(20))
        sp = split(t, (7, 1, 2), seed=0)
        sizes = (sp.train.n_entries, sp.validation.n_entries, sp.test.n_entries)
        assert sizes == (14, 2, 4)

    def test_deterministic(self, fixture_data):
        data, _ = fixture_data
        a = split(data, (7, 1, 2), seed=13)
        b = split(data, (7, 1, 2), seed=13)
        for part in ("train", "validation", "test"):
            assert getattr(a, part).entries == getattr(b, part).entries

    def test_disjoint_union(self, fixture_data):
        data, _ = fixture_data
        sp = split(data, (7, 1, 2), seed=13)
        parts = [set(p.entries) for p in (sp.train, sp.validation, sp.test)]
        assert sum(len(p) for p in parts) == data.n_entries
        assert parts[0] | parts[1] | parts[2] == set(data.entries)

    def test_zero_ratio_part_rejected(self, small_tensor):
        with pytest.raises(ValueError, match="empty split part"):
            split(small_tensor, (1, 0, 0), seed=0)

    def test_bad_ratios(self, small_tensor):
        with pytest.raises(ValueError, match="ratio sum zero"):
            split(small_tensor, (0, 0, 0), seed=0)
        with pytest.raises(ValueError, match="triple"):
            split(small_tensor, (1, 1), seed=0)
        with pytest.raises(ValueError, match="nonnegative"):
            split(small_tensor, (7, -1, 2), seed=0)

    def test_empty_tensor_rejected(self):
        t = SparseTensor(2, 2, [], [], [], [])
        with pytest.raises(ValueError, match="empty tensor"):
            split(t, (7, 1, 2), seed=0)


class TestComputeStats:
    def test_fully_observed(self):
        t = SparseTensor(2, 1, [0, 0, 1, 1], [0, 1, 0, 1], [0, 0, 0, 0], [1.0] * 4)
        st = compute_stats(t)
        assert st.density == 1.0
        assert st.observed_count == 4

    @pytest.mark.parametrize("n,k,count,expected", [
        (40072, 318, 24638, 4.82e-8),
        (46468, 412, 15114, 1.69e-8),
    ])
    def test_large_network_density(self, n, k, count, expected):
        rng = np.random.default_rng(count)
        total = n * n * k
        pos = np.unique(rng.integers(0, total, size=count + 2000))[:count]
        t = SparseTensor(n, k, pos // (n * k), (pos % (n * k)) // k, pos % k,
                         np.ones(count))
        st = compute_stats(t)
        assert st.observed_count == count
        assert st.density == count / total
        assert st.density == pytest.approx(expected, rel=0.01)


class TestGenerateSynthetic:
    def test_entry_count_contract(self):
        data, _ = generate_synthetic(10, 4, 2, 0.13, 0.5, 0.0, seed=1)
        assert data.n_entries == round(0.13 * 10 * 10 * 4)

    def test_deterministic(self):
        a, ta = generate_synthetic(10, 4, 2, 0.2, 0.5, 0.01, seed=3)
        b, tb = generate_synthetic(10, 4, 2, 0.2, 0.5, 0.01, seed=3)
        assert np.array_equal(a.values, b.values)
        assert a.entries == b.entries
        assert np.array_equal(ta.Z, tb.Z)

    def test_noiseless_values_match_truth(self):
        data, truth = generate_synthetic(12, 5, 2, 0.3, 0.7, 0.0, seed=9)
        cache = dyntf.compute_temporal(truth)
        preds = dyntf.predict_entries(truth, cache, data.i, data.j, data.k)
        assert np.max(np.abs(preds - data.values)) <= 1e-12

    def test_truth_is_positive_with_identity_weights(self, fixture_data):
        _, truth = fixture_data
        for arr in (truth.S, truth.U, truth.Z, truth.a, truth.c, truth.e):
            assert arr.min() > 0
        assert truth.window == 0
        assert np.array_equal(truth.weights.w, np.eye(truth.n_slots))

    def test_values_nonnegative(self, fixture_data):
        data, _ = fixture_data
        assert data.values.min() >= 0

    def test_temporal_columns_autocorrelated(self, fixture_data):
        # lag-1 sample autocorrelation of each ground-truth Z column
        _, truth = fixture_data
        for d in range(truth.rank):
            col = truth.Z[:, d]
            x, y = col[:-1] - col[:-1].mean(), col[1:] - col[1:].mean()
            rho = (x * y).sum() / np.sqrt((x * x).sum() * (y * y).sum())
            assert rho > 0.5

    def test_degenerate_requests_rejected(self):
        with pytest.raises(ValueError, match="density too small"):
            generate_synthetic(2, 2, 1, 1e-6, 0.5, 0.0, seed=0)
        with pytest.raises(ValueError, match="exceeds"):
            generate_synthetic(2, 2, 1, 1.7, 0.5, 0.0, seed=0)
        with pytest.raises(ValueError, match="temporal_correlation"):
            generate_synthetic(2, 2, 1, 0.5, 1.0, 0.0, seed=0)
        with pytest.raises(ValueError, match="noise_scale"):
            generate_synthetic(2, 2, 1, 0.5, 0.5, -0.1, seed=0)
