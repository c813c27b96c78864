import io

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import dyntf
from dyntf import DataError, SparseTensor, compute_stats, generate_synthetic, load_coo, save_coo, split
from dyntf.tensor import _parse_line, _sample_positions


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

    def test_bad_dims_rejected_before_records(self):
        with pytest.raises(ValueError, match="n_nodes and n_slots"):
            _load("0 0 0 1.0\n", n_nodes=0, n_slots=3)
        with pytest.raises(ValueError, match="n_nodes and n_slots"):
            _load(f"%dims {2**64} {2**64} 1\n{2**63} 0 0 1.0\n")

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

    def test_first_bad_line_wins(self):
        # the bulk pass sees the bound fault of line 3 first, but line 2 is
        # the first bad line
        with pytest.raises(DataError, match=r"duplicate \(0, 0, 0\) at line 2"):
            _load("0 0 0 1.0\n0 0 0 2.0\n0 0 9 1.0\n", n_nodes=1, n_slots=1)
        with pytest.raises(DataError, match="out of bounds at line 1"):
            _load("0 0 9 1.0\n0 0 0 1.0\n0 0 0 2.0\n", n_nodes=1, n_slots=1)

    def test_record_fields_checked_per_line(self):
        # 3 + 5 fields make 8 tokens that read as two valid records,
        # (0, 1, 1, 1.0) and (0, 0, 0, 5.0), but neither line is one
        with pytest.raises(DataError, match="line 1: expected 'i j k value', got 3"):
            _load("0 1 1\n1 0 0 0 5\n", n_nodes=2, n_slots=2)

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


def _reference_load(text, n_nodes=None, n_slots=None):
    """The line-by-line reader that the bulk parser replaced, kept as its
    oracle: same arrays on good input, same DataError on bad input."""
    ii, jj, kk, vals = [], [], [], []
    seen = set()
    header_allowed = True
    for lineno, raw in enumerate(io.StringIO(text), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if header_allowed and tokens[0] == "%dims":
            header_allowed = False
            if len(tokens) != 4:
                raise DataError(f"malformed line {lineno}: expected '%dims N N K'")
            try:
                hn, hn2, hk = int(tokens[1]), int(tokens[2]), int(tokens[3])
            except ValueError:
                raise DataError(f"malformed line {lineno}: %dims values must be integers") from None
            if hn != hn2:
                raise DataError(f"malformed line {lineno}: first two %dims values must match")
            if n_nodes is not None and n_nodes != hn:
                raise DataError(f"declared n_nodes {n_nodes} disagrees with %dims header {hn}")
            if n_slots is not None and n_slots != hk:
                raise DataError(f"declared n_slots {n_slots} disagrees with %dims header {hk}")
            n_nodes, n_slots = hn, hk
            continue
        header_allowed = False
        if n_nodes is None or n_slots is None:
            raise DataError("tensor dimensions unknown: pass n_nodes/n_slots or add a %dims header")
        i, j, k, value = _parse_line(tokens, lineno, n_nodes, n_slots)
        if (i, j, k) in seen:
            raise DataError(f"duplicate {(i, j, k)} at line {lineno}")
        seen.add((i, j, k))
        ii.append(i)
        jj.append(j)
        kk.append(k)
        vals.append(value)
    if n_nodes is None or n_slots is None:
        raise DataError("tensor dimensions unknown: pass n_nodes/n_slots or add a %dims header")
    return SparseTensor(n_nodes, n_slots, ii, jj, kk, vals)


def _outcome(read, text, kw):
    try:
        t = read(text, **kw)
    except (DataError, ValueError) as exc:
        return type(exc).__name__, str(exc)
    return ((t.n_nodes, t.n_slots), t.i.tolist(), t.j.tolist(), t.k.tolist(),
            t.values.tobytes())


_FILLER = st.sampled_from(["", "   ", "\t", "# comment", "  # 1 2 3 4", "#%dims 9 9 9"])
_SEP = st.sampled_from([" ", "  ", "\t", " \t "])
_DOUBLES = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)


@st.composite
def coo_documents(draw):
    """A valid COO text as its lines, plus the load_coo keywords it needs."""
    n = draw(st.integers(1, 5))
    slots = draw(st.integers(1, 4))
    cells = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                    st.integers(0, slots - 1)), unique=True, max_size=10))
    lines = [draw(_FILLER) for _ in range(draw(st.integers(0, 2)))]
    header = draw(st.booleans())
    if header:
        lines.append(f"%dims {n}{draw(_SEP)}{n} {slots}")
    for cell in cells:
        value = draw(_DOUBLES)
        text = draw(st.sampled_from([repr(value), f"{value:.17e}", f"{value:.3f}"]))
        fields = [str(c) for c in cell] + [text]
        lines.append(draw(st.sampled_from(["", " ", "\t"])) + draw(_SEP).join(fields))
        lines.extend(draw(_FILLER) for _ in range(draw(st.integers(0, 1))))
    if header and draw(st.booleans()):
        kw = {}
    else:
        kw = {"n_nodes": n, "n_slots": slots}
    return lines, kw


def _join(lines, newline, trailing):
    return newline.join(lines) + (newline if trailing else "")


@settings(max_examples=150, deadline=None)
@given(coo_documents(), st.sampled_from(["\n", "\r\n"]), st.booleans())
def test_reader_matches_line_reference(doc, newline, trailing):
    lines, kw = doc
    text = _join(lines, newline, trailing)
    expected = _outcome(_reference_load, text, kw)
    assert _outcome(_load, text, kw) == expected
    assert _outcome(lambda t, **k: load_coo(io.BytesIO(t.encode()), **k), text, kw) == expected


_FAULTS = ["0 1", "0 0 0 1.0 5", "a b c 1.0", "0 0 0 xyz", "0 0 0 inf", "0 0 0 nan",
           "0 0 0 -1.0", "-1 0 0 1.0", "9 0 0 1.0", "0 0 9 1.0", "0 0 0 1e400",
           "99999999999999999999 0 0 1.0", "%dims 3 3 3", "%dims 3 4 2", "%dims a b c",
           "%dims 3 3", "1.5 0 0 1.0", "0 0 0 1_0", "DUPLICATE"]


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(coo_documents(), st.data())
def test_reader_raises_reference_error(doc, data):
    lines, kw = doc
    lines = list(lines)
    for _ in range(data.draw(st.integers(1, 2))):
        fault = data.draw(st.sampled_from(_FAULTS))
        at = data.draw(st.integers(0, len(lines)))
        if fault == "DUPLICATE":
            records = [ln for ln in lines[:at] if ln.strip()[:1].isdigit()]
            if not records:
                continue
            fault = data.draw(st.sampled_from(records))
        lines.insert(at, fault)
    text = _join(lines, "\n", True)
    assert _outcome(_load, text, kw) == _outcome(_reference_load, text, kw)


@settings(max_examples=100, deadline=None)
@given(st.lists(_DOUBLES, min_size=1, max_size=30))
@example([0.0, 5e-324, 1.7976931348623157e308])
def test_save_load_round_trips_every_double(values):
    n = len(values)
    t = SparseTensor(n, 1, np.arange(n), np.arange(n)[::-1], np.zeros(n), values)
    buf = io.StringIO()
    save_coo(t, buf)
    back = _load(buf.getvalue())
    assert back.values.tobytes() == t.values.tobytes()
    assert back.entries == t.entries


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
    with pytest.raises(ValueError, match="n_nodes and n_slots"):
        SparseTensor(2**63, 1, [], [], [], [])


def test_duplicate_check_at_dims_past_int64():
    # N * N * K = 2**95: the linear key (i * N + j) * K + k would wrap, and
    # i = 1 and i = 3 would both map to -2**63
    n, k = 2**32, 2**31
    t = SparseTensor(n, k, [1, 3], [0, 0], [0, 0], [1.0, 1.0])
    assert t.n_entries == 2
    SparseTensor(n, k, [5, 5, 5], [n - 1, n - 1, 0], [k - 1, k - 2, k - 1], [1.0] * 3)
    with pytest.raises(DataError, match="duplicate"):
        SparseTensor(n, k, [1, 3, 1], [n - 1, 0, n - 1], [k - 1, 0, k - 1], [1.0] * 3)


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
        with pytest.raises(ValueError, match=r"empty split part.* at ratios \(1\.0, 0\.0, 0\.0\)"):
            split(small_tensor, (1, 0, 0), seed=0)

    def test_bad_ratios(self, small_tensor):
        with pytest.raises(ValueError, match="ratio sum zero"):
            split(small_tensor, (0, 0, 0), seed=0)
        with pytest.raises(ValueError, match="triple"):
            split(small_tensor, (1, 1), seed=0)
        with pytest.raises(ValueError, match="nonnegative"):
            split(small_tensor, (7, -1, 2), seed=0)

    def test_huge_ratios_keep_proportions(self, small_tensor):
        # n * 1e308 overflows; only the proportions may matter
        a = split(small_tensor, (1e308, 1e308, 1e308), seed=0)
        b = split(small_tensor, (1, 1, 1), seed=0)
        for part in ("train", "validation", "test"):
            assert getattr(a, part).entries == getattr(b, part).entries
        with pytest.raises(ValueError, match="empty split part"):
            split(small_tensor, (7, 1e308, 2), seed=0)

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
        preds = dyntf.predict_entries(truth, data.i, data.j, data.k)
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

    def test_sparse_sampling_matches_reference(self):
        # total > 2**24 takes the rejection branch; same positions, and the
        # generator ends in the same state, so the noise draws that follow agree
        for seed in range(3):
            a, b = np.random.default_rng(seed), np.random.default_rng(seed)
            got = _sample_positions(a, 2**24 + 1, 20_000)
            assert np.array_equal(got, _reference_positions(b, 2**24 + 1, 20_000))
            assert a.integers(0, 2**62) == b.integers(0, 2**62)

    def test_sparse_sampling_rejects_repeats_across_batches(self):
        # draws from 40 values only, so every batch repeats itself and earlier ones
        class FewValues:
            def __init__(self, seed):
                self.rng = np.random.default_rng(seed)

            def integers(self, low, high, size):
                return self.rng.integers(0, 40, size=size)

        for count in (1, 25, 40):
            got = _sample_positions(FewValues(count), 2**25, count)
            assert np.array_equal(got, _reference_positions(FewValues(count), 2**25, count))
            assert got.size == count == np.unique(got).size

    def test_degenerate_requests_rejected(self):
        with pytest.raises(ValueError, match="density too small"):
            generate_synthetic(2, 2, 1, 1e-6, 0.5, 0.0, seed=0)
        with pytest.raises(ValueError, match="density must be in"):
            generate_synthetic(2, 2, 1, 1.7, 0.5, 0.0, seed=0)
        with pytest.raises(ValueError, match="temporal_correlation"):
            generate_synthetic(2, 2, 1, 0.5, 1.0, 0.0, seed=0)
        with pytest.raises(ValueError, match="noise_scale"):
            generate_synthetic(2, 2, 1, 0.5, 0.5, -0.1, seed=0)

    def test_density_just_above_one_rejected(self):
        # rounds to N^2*K entries, so a count check alone lets it through
        with pytest.raises(ValueError, match="density must be in"):
            generate_synthetic(10, 1, 1, 1.004, 0.5, 0.0, seed=1)

    @pytest.mark.parametrize("n_nodes, n_slots", [(0, 3), (-2, 3), (3, 0)])
    def test_empty_or_negative_shape_rejected(self, n_nodes, n_slots):
        with pytest.raises(ValueError, match="must be >= 1"):
            generate_synthetic(n_nodes, n_slots, 1, 0.5, 0.5, 0.0, seed=1)


def _reference_positions(rng, total, count):
    """The per-draw rejection loop that the batch version replaced."""
    picked = {}
    while len(picked) < count:
        batch = rng.integers(0, total, size=int(1.3 * (count - len(picked)) + 16))
        for p in batch.tolist():
            if p not in picked:
                picked[p] = None
                if len(picked) == count:
                    break
    return np.sort(np.fromiter(picked.keys(), dtype=np.int64, count=count))
