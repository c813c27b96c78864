import io
import re
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import dyntf
from dyntf import DataError, SparseTensor, compute_stats, generate_synthetic, load_coo, save_coo, split
from dyntf.tensor import MAX_DIM, _sample_positions

from conftest import dense_w, entry_tuples, traced_peak


def _load(text, **kw):
    return load_coo(io.StringIO(text), **kw)


class TestLoadCoo:
    def test_basic_parse(self):
        t = _load("0 1 2 3.5\n", n_nodes=2, n_slots=3)
        assert entry_tuples(t) == [(0, 1, 2, 3.5)]

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
        with pytest.raises(DataError, match="^declared n_slots 2 disagrees with %dims header 3$"):
            _load("%dims 4 4 3\n0 0 0 1.0\n", n_nodes=4, n_slots=2)

    def test_dims_header_needs_three_values(self):
        with pytest.raises(DataError, match="^malformed line 2: expected '%dims N N K'$"):
            _load("# comment\n%dims 3 3\n0 0 0 1.0\n")

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
        # a record numpy cannot cast is looked at only after the ones before it
        with pytest.raises(DataError, match=r"duplicate \(0, 0, 0\) at line 2"):
            _load("0 0 0 1.0\n0 0 0 2.0\n0 0 0 xyz\n", n_nodes=1, n_slots=1)
        with pytest.raises(DataError, match="malformed line 2: value is not a number"):
            _load("0 0 0 1.0\n0 0 0 xyz\n0 0 0 2.0\n", n_nodes=1, n_slots=1)
        with pytest.raises(DataError, match="negative value at line 1"):
            _load("0 0 0 -1.0\n99999999999999999999 0 0 1.0\n", n_nodes=1, n_slots=1)
        with pytest.raises(DataError, match=r"node index out of bounds at line 2: \(-9{20}, 0\)"):
            _load("0 0 0 1.0\n-99999999999999999999 0 0 1.0\n", n_nodes=1, n_slots=1)

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
    assert entry_tuples(back) == entry_tuples(t)
    assert np.array_equal(back.values, t.values)


def _parse_line(tokens, lineno, n_nodes, n_slots):
    if len(tokens) != 4:
        raise DataError(f"malformed line {lineno}: expected 'i j k value', got {len(tokens)} fields")
    try:
        i, j, k = int(tokens[0]), int(tokens[1]), int(tokens[2])
    except ValueError:
        raise DataError(f"malformed line {lineno}: indices must be integers") from None
    try:
        value = float(tokens[3])
    except ValueError:
        raise DataError(f"malformed line {lineno}: value is not a number") from None
    if i < 0 or i >= n_nodes or j < 0 or j >= n_nodes:
        raise DataError(f"node index out of bounds at line {lineno}: ({i}, {j}) with N={n_nodes}")
    if k < 0 or k >= n_slots:
        raise DataError(f"slot index out of bounds at line {lineno}: {k} with K={n_slots}")
    if value < 0:
        raise DataError(f"negative value at line {lineno}")
    if not np.isfinite(value):
        raise DataError(f"non-finite value at line {lineno}")
    return i, j, k, value


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
# every Unicode whitespace separates fields, for str.split and numpy alike
_SEP = st.sampled_from([" ", "  ", "\t", " \t ", "\x0b", "\x0c", "\x1c", "\x85", "\u2028",
                        "\u3000", "\xa0"])
_DOUBLES = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)


@st.composite
def coo_documents(draw, fast=False):
    """A valid COO text as its lines, plus the load_coo keywords it needs.

    With `fast`, every token is one numpy's C reader reads (and int()/float()
    too), and there is at least one record; the values may be infinite."""
    n = draw(st.integers(1, 5))
    slots = draw(st.integers(1, 4))
    cells = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                    st.integers(0, slots - 1)), unique=True,
                          min_size=int(fast), max_size=10))
    lines = [draw(_FILLER) for _ in range(draw(st.integers(0, 2)))]
    header = draw(st.booleans())
    if header:
        lines.append(f"%dims {n}{draw(_SEP)}{n} {slots}")
    for cell in cells:
        value = draw(_DOUBLES)
        if fast:
            text = draw(st.sampled_from([repr(value)] * 4 + [
                f"{value:.17e}", "Infinity", "1e500", "-0.0", ".5", "5.", "+1", "01"]))
            fields = [draw(st.sampled_from([str(c), f"+{c}", f"0{c}"])) for c in cell] + [text]
        else:
            text = draw(st.sampled_from([repr(value), f"{value:.17e}", f"{value:.3f}",
                                         "+1", "01", "1_0", "\u0663"]))
            # int() reads a sign, leading zeros, underscores and any Unicode digit
            fields = [draw(st.sampled_from([str(c), f"+{c}", f"0{c}", f"0_{c}", chr(0x660 + c)]))
                      for c in cell] + [text]
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


def _no_walk(rows, n_nodes, n_slots):
    raise AssertionError(f"walk reached for {rows!r}")


@settings(max_examples=150, deadline=None)
@given(coo_documents(fast=True), st.sampled_from(["\n", "\r\n"]), st.booleans())
def test_c_reader_alone_matches_line_reference(doc, newline, trailing):
    lines, kw = doc
    text = _join(lines, newline, trailing)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("dyntf.tensor._walk", _no_walk)
        assert _outcome(_load, text, kw) == _outcome(_reference_load, text, kw)


@pytest.mark.parametrize("data", [
    b"%dims 2 2 1\n0 0\r0 1.0\n1 1 0 2.0\n",  # two records
    b"%dims 2 2 1\r\n0 0 0 1.0\r\n0 0\r5 2.0\r\n",  # slot 5 out of bounds at line 3
])
def test_every_source_ends_lines_at_newline_alone(tmp_path, data):
    # a lone "\r" separates fields inside a line, as it does for the reference
    path = tmp_path / "t.coo"
    path.write_bytes(data)
    expected = _outcome(_reference_load, data.decode(), {})
    for source in (path, io.BytesIO(data), io.StringIO(data.decode())):
        assert _outcome(lambda _: load_coo(source), None, {}) == expected, source


def test_walk_reads_the_numbers_of_the_c_reader():
    # one "1_0" sends all 20k rows through the walk instead of numpy's C reader
    rng = np.random.default_rng(14)
    pos = rng.choice(300 * 300 * 20, size=20_000, replace=False)
    rows = [f"{a} {b} {c} {v!r}" for a, b, c, v in zip(
        (pos // 6000).tolist(), (pos // 20 % 300).tolist(), (pos % 20).tolist(),
        rng.uniform(0, 3, 20_000).tolist())]
    header = "%dims 300 300 20\n"
    rows[12_345] = rows[12_345].rsplit(" ", 1)[0] + " {}"
    fast = load_coo(io.StringIO(header + "\n".join(rows).format("10")))
    walked = load_coo(io.StringIO(header + "\n".join(rows).format("1_0")))
    assert walked.values[12_345] == 10.0
    for a, b in zip((fast.i, fast.j, fast.k, fast.values),
                    (walked.i, walked.j, walked.k, walked.values)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    rows[12_345] = rows[12_345].format("1_0")
    with pytest.raises(DataError, match="^malformed line 2: value is not a number$"):
        _load(header + "\n".join(["0 0 0 xyz"] + rows))
    with pytest.raises(DataError, match=r"^node index out of bounds at line 20002: \(300, 0\) with N=300$"):
        _load(header + "\n".join(rows + ["300 0 0 1.0"]))


def test_dims_only_file_loads_no_entries_silently():
    # numpy's reader warns on no rows; the reader never hands it none
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        t = _load("%dims 3 3 2\n# nothing observed\n\n")
    assert (t.n_nodes, t.n_slots, t.n_entries) == (3, 2, 0)


_FAULTS = ["0 1", "0 0 0 1.0 5", "a b c 1.0", "0 0 0 xyz", "0 0 0 inf", "0 0 0 nan",
           "0 0 0 -1.0", "-1 0 0 1.0", "9 0 0 1.0", "0 0 9 1.0", "0 0 0 1e400",
           "99999999999999999999 0 0 1.0", "%dims 3 3 3", "%dims 3 4 2", "%dims a b c",
           "%dims 3 3", "1.5 0 0 1.0", "0 0 0 1_0", "0 0 -99999999999999999999 1.0",
           "0 0 0 -inf", "0 0 0 \u0663", "0 0\r0 1.0", "0 0 0 0x10", "DUPLICATE"]


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


@pytest.mark.parametrize("block", [1, 7])
def test_reader_reference_tests_hold_at_tiny_read_blocks(monkeypatch, block):
    # every line crosses a read block's boundary, most of them several
    monkeypatch.setattr(dyntf.tensor, "_READ_BLOCK", block)
    test_reader_matches_line_reference()
    test_reader_raises_reference_error()


@pytest.mark.parametrize("data, expected", [
    # "\r" ends the 12-byte read block, "\n" starts the next
    (b"%dims 2 2 1\r\n0 0 0 1.0\r\n1 1 0 -2.0\r\n", "negative value at line 3"),
    (b"%dims 2 2 1\n0 0 0 1.0\n1 1 0 2.0", None),  # no newline after the last line
    (b"%dims 2 2 1\n0 0 0 1.0\n1 1 0 -2.0", "negative value at line 3"),
    # the first 12-byte block holds comments alone; the header is record 0 all the same
    (b"# 9 bytes\n#\n%dims 2 2 1\n0 0 0 1.0\n", None),
    (b"# 9 bytes\n#\n%dims 2 2\n0 0 0 1.0\n", "malformed line 3: expected '%dims N N K'"),
    (b"%dims 3 3 2\n0 1 0 1.5\n1 2 1 \xff2.0\n2 0 1 0.5\n", "invalid UTF-8 at line 3: invalid start byte"),
    # a bad line in an earlier block, even one that stops the parse, does not
    # hide invalid UTF-8 in a later one
    (b"%dims 3 3 2\n0 1 0 xyz\n" + b"# pad\n" * 9 + b"1 2 1 \xff2.0\n",
     "invalid UTF-8 at line 12: invalid start byte"),
    (b"# caf\xc3\xa9\n%dims 2 2 1\n0 0 0 1.0\n", None),  # a boundary inside "\xc3\xa9"
    (b"%dims 2 2 1\n0 0 0 1.0\n1 1 0 2.0\n# pad\n0 0 0 3.0\n", r"duplicate \(0, 0, 0\) at line 5"),
    # numpy reads line 2 in its block; the walk stops at line 5 in a later one
    (b"%dims 2 2 1\n0 0 5 1.0\n1 1 0 2.0\n\n0 1 0 xyz\n", "slot index out of bounds at line 2: 5 with K=1"),
])
def test_reader_across_read_blocks(monkeypatch, data, expected):
    for block in (1, 2, 5, 12, 1 << 20):
        monkeypatch.setattr(dyntf.tensor, "_READ_BLOCK", block)
        if expected is None:
            t = load_coo(io.BytesIO(data))
            assert _outcome(lambda _: t, None, {}) == _outcome(_reference_load, data.decode(), {})
        else:
            with pytest.raises(DataError, match=f"^{expected}$"):
                load_coo(io.BytesIO(data))


@pytest.fixture(scope="module")
def wide_coo(tmp_path_factory):
    """A wide-shaped COO file: N=2000, K=50, 150 000 entries (4.5 MB)."""
    rng = np.random.default_rng(20)
    pos = rng.choice(2000 * 2000 * 50, size=150_000, replace=False)
    path = tmp_path_factory.mktemp("wide") / "wide.coo"
    path.write_text("%dims 2000 2000 50\n" + "".join(
        f"{a} {b} {c} {v!r}\n" for a, b, c, v in zip(
            (pos // 100_000).tolist(), (pos // 50 % 2000).tolist(), (pos % 50).tolist(),
            rng.uniform(0, 3, 150_000).tolist())))
    return path


def test_reader_holds_about_one_block_of_text(wide_coo):
    # reading the whole file as lines peaked at 33.3 MB; block by block, the
    # columns, the tensor's copy of them and its checks set the peak (13-15 MB)
    peak, t = traced_peak(load_coo, wide_coo)
    assert t.n_entries == 150_000
    assert peak <= 20e6


def test_writer_holds_a_few_write_blocks(wide_coo, tmp_path):
    # 65536 lines a write peaked at 12.2 MB on this part, 8192 at about 6.3 MB
    part = load_coo(wide_coo).take(np.arange(105_000))
    peak, _ = traced_peak(save_coo, part, tmp_path / "part.coo")
    assert peak <= 7.5e6


def test_split_holds_each_part_once(wide_coo):
    # copying each part again after indexing it peaked at 10.4-11.2 MB
    # (2.2-2.3 times the parts' 4.8 MB), keeping the indexed arrays at 7.1-7.8 MB
    t = load_coo(wide_coo)
    peak, _ = traced_peak(split, t, (7, 1, 2), 1)
    assert peak <= 1.9 * 150_000 * 32


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
    assert entry_tuples(back) == entry_tuples(t)


def _reference_save(tensor):
    """The per-row writer that formats every index on its own, kept as the
    oracle of the one that formats each distinct index once."""
    return (f"%dims {tensor.n_nodes} {tensor.n_nodes} {tensor.n_slots}\n"
            + "".join([f"{a} {b} {c} {v!r}\n" for a, b, c, v in zip(
                tensor.i.tolist(), tensor.j.tolist(), tensor.k.tolist(), tensor.values.tolist())]))


_INDICES = st.sampled_from([0, 1, 2, 10, 2**53 + 1, MAX_DIM - 2, MAX_DIM - 1])


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([(11, 3), (MAX_DIM, MAX_DIM)]),
       st.lists(st.tuples(_INDICES, _INDICES, _INDICES, _DOUBLES),
                unique_by=lambda e: e[:3], max_size=30))
@example((11, 3), [])
def test_writer_matches_per_row_reference(dims, entries):
    n, k = dims
    entries = [e for e in entries if max(e[:2]) < n and e[2] < k]
    columns = [list(c) for c in zip(*entries)] or [[], [], [], []]
    t = SparseTensor(n, k, *columns)
    buf = io.StringIO()
    save_coo(t, buf)
    assert buf.getvalue() == _reference_save(t)


def test_writer_matches_reference_across_write_blocks():
    # the writer formats _WRITE_BLOCK (8192) lines at a time: 16 full blocks, one short
    n = 2 * 65536 + 3
    ii, rest = np.divmod(np.arange(n) * 7919 % (1000 * 1000 * 200), 1000 * 200)
    jj, kk = np.divmod(rest, 200)
    t = SparseTensor(1000, 200, ii, jj, kk, np.random.default_rng(4).uniform(0, 9, n))
    buf = io.StringIO()
    save_coo(t, buf)
    assert buf.getvalue() == _reference_save(t)


def test_tensor_arrays_read_only(small_tensor, tmp_path):
    # every public array of every tensor, however it was built, refuses a write
    save_coo(small_tensor, tmp_path / "t.coo")
    tensors = [small_tensor, load_coo(tmp_path / "t.coo"),
               *vars(split(small_tensor, (2, 1, 1), seed=0)).values()]
    for t in tensors:
        for arr in (t.i, t.j, t.k, t.values):
            with pytest.raises(ValueError):
                arr[0] = 1


def test_caller_arrays_stay_writable():
    # the tensor freezes its own copies, not the caller's arrays
    ii, jj, kk = (np.array([0, 1], dtype=np.int64) for _ in range(3))
    values = np.array([1.0, 2.0])
    t = SparseTensor(2, 2, ii, jj, kk, values)
    ii[0] = jj[0] = kk[0] = 1
    values[0] = -1.0
    assert entry_tuples(t) == [(0, 0, 0, 1.0), (1, 1, 1, 2.0)]


def test_write_to_view_base_does_not_reach_tensor():
    # the validated entries are the tensor's own: a view's base cannot change them
    big = np.arange(6)
    t = SparseTensor(3, 1, big[:3], big[:3], np.zeros(3, dtype=np.int64), np.ones(3))
    big[0] = 99
    assert t.i.tolist() == t.j.tolist() == [0, 1, 2]


def test_dimensions_must_be_integers():
    # a float is refused, not truncated to an int; a numpy integer is an int
    for n_nodes, n_slots in [(2.9, 1), (2, 1.5), (2.0, 1)]:
        with pytest.raises(TypeError):
            SparseTensor(n_nodes, n_slots, [1], [1], [0], [1.0])
        with pytest.raises(TypeError):
            _load("1 1 0 1.0\n", n_nodes=n_nodes, n_slots=n_slots)
        with pytest.raises(TypeError):  # a header that agrees does not make a float pass
            _load("%dims 2 2 1\n1 1 0 1.0\n", n_nodes=n_nodes, n_slots=n_slots)
    t = SparseTensor(np.int64(2), np.int64(1), [1], [1], [0], [1.0])
    assert (type(t.n_nodes), type(t.n_slots)) == (int, int)



@pytest.mark.parametrize("name", ["i", "j", "k"])
@pytest.mark.parametrize("bad, shown", [
    (np.array([0, 1.9]), "1.9"),
    (np.array([0, np.nan]), "nan"),
    (np.array([0, 2.0**63]), "9.223372036854776e+18"),
    (np.array([0, 2**64 - 1], dtype=np.uint64), "18446744073709551615"),
], ids=["fraction", "nan", "float-past-int64", "uint64-past-int64"])
def test_index_values_must_survive_the_int64_cast(name, bad, shown):
    # refused, like n_nodes=2.9, rather than truncated, wrapped or cast to garbage
    cols = {"i": [0, 1], "j": [1, 0], "k": [0, 0]}
    cols[name] = bad
    with pytest.raises(TypeError, match=rf"^{name} holds {re.escape(shown)} at entry 1, not an int64 index$"):
        SparseTensor(3, 3, cols["i"], cols["j"], cols["k"], [1.0, 2.0])


def test_whole_float_and_empty_indices_are_accepted():
    t = SparseTensor(3, 3, np.array([0.0, 2.0]), np.array([1, 2], dtype=np.uint64),
                     [0.0, 1.0], [1.0, 2.0])
    assert entry_tuples(t) == [(0, 1, 0, 1.0), (2, 2, 1, 2.0)]
    assert t.i.dtype == t.j.dtype == t.k.dtype == np.int64
    assert SparseTensor(3, 3, [], [], [], []).n_entries == 0

def test_take_subset(small_tensor):
    sub = small_tensor.take(np.array([1, 3]))
    entries = entry_tuples(small_tensor)
    assert entry_tuples(sub) == [entries[1], entries[3]]
    assert (sub.n_nodes, sub.n_slots) == (4, 3)


def test_constructor_validation():
    with pytest.raises(DataError, match=r"^node index out of bounds at entry 0: \(2, 0\) with N=2$"):
        SparseTensor(2, 2, [2], [0], [0], [1.0])
    with pytest.raises(DataError, match="^slot index out of bounds at entry 1: 2 with K=2$"):
        SparseTensor(2, 2, [0, 0], [0, 0], [0, 2], [1.0, 1.0])
    with pytest.raises(DataError, match="^negative value at entry 0$"):
        SparseTensor(2, 2, [0], [0], [0], [-1.0])
    with pytest.raises(DataError, match="^negative value at entry 0$"):
        SparseTensor(2, 2, [0], [0], [0], [-np.inf])
    with pytest.raises(DataError, match=r"^duplicate \(0, 1, 0\) at entry 1$"):
        SparseTensor(2, 2, [0, 0], [1, 1], [0, 0], [1.0, 2.0])
    with pytest.raises(DataError, match="^non-finite value at entry 0$"):
        SparseTensor(2, 2, [0], [0], [0], [np.nan])
    # the first bad entry wins over the order of fault kinds
    with pytest.raises(DataError, match=r"^duplicate \(0, 0, 0\) at entry 1$"):
        SparseTensor(2, 2, [0, 0, 5], [0, 0, 0], [0, 0, 0], [1.0] * 3)
    with pytest.raises(ValueError, match="n_nodes and n_slots"):
        SparseTensor(2**63, 1, [], [], [], [])
    with pytest.raises(ValueError, match="equal length"):
        SparseTensor(2, 2, [0, 1], [0, 1], [0], [1.0, 1.0])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(*[st.sampled_from([0, 1, 2] * 4 + [-1, 3])] * 2,
                          st.sampled_from([0, 1] * 6 + [-1, 2]),
                          st.sampled_from([0.0, 1.0, 2.5] * 5 + [-1.0, np.inf, -np.inf, np.nan])),
                max_size=40))
@example([(p % 3, 0, 0, 1.0) for p in range(40)])  # an unstable sort misorders long runs
def test_constructor_names_the_reference_entry(entries):
    # the same records as text: entry p is line p + 1 for the line-by-line reference
    text = "".join(f"{a} {b} {c} {v!r}\n" for a, b, c, v in entries)
    expected = _outcome(_reference_load, text, {"n_nodes": 3, "n_slots": 2})
    columns = [list(c) for c in zip(*entries)] or [[], [], [], []]
    try:
        tensor = SparseTensor(3, 2, *columns)
    except DataError as exc:
        got = ("DataError", re.sub(r"at entry (\d+)", lambda m: f"at line {int(m[1]) + 1}", str(exc)))
    else:
        got = _outcome(lambda _text: tensor, text, {})
    assert got == expected


def test_duplicate_check_at_dims_past_int64():
    # N * N * K = 2**95: the linear key (i * N + j) * K + k would wrap, and
    # i = 1 and i = 3 would both map to -2**63
    n, k = 2**32, 2**31
    t = SparseTensor(n, k, [1, 3], [0, 0], [0, 0], [1.0, 1.0])
    assert t.n_entries == 2
    SparseTensor(n, k, [5, 5, 5], [n - 1, n - 1, 0], [k - 1, k - 2, k - 1], [1.0] * 3)
    with pytest.raises(DataError, match=rf"^duplicate \(1, {n - 1}, {k - 1}\) at entry 2$"):
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
            assert entry_tuples(getattr(a, part)) == entry_tuples(getattr(b, part))

    def test_disjoint_union(self, fixture_data):
        data, _ = fixture_data
        sp = split(data, (7, 1, 2), seed=13)
        parts = [set(entry_tuples(p)) for p in (sp.train, sp.validation, sp.test)]
        assert sum(len(p) for p in parts) == data.n_entries
        assert parts[0] | parts[1] | parts[2] == set(entry_tuples(data))

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

    @pytest.mark.parametrize("ratios", [(np.inf, 1, 1), (1, np.nan, 1), (7, 1, -np.inf)])
    def test_non_finite_ratios_rejected(self, small_tensor, ratios):
        # named before any arithmetic, which would warn and then fail on NaN
        with pytest.raises(ValueError, match=r"^non-finite ratios \("):
            split(small_tensor, ratios, seed=0)

    def test_huge_ratios_keep_proportions(self, small_tensor):
        # n * 1e308 overflows; only the proportions may matter
        a = split(small_tensor, (1e308, 1e308, 1e308), seed=0)
        b = split(small_tensor, (1, 1, 1), seed=0)
        for part in ("train", "validation", "test"):
            assert entry_tuples(getattr(a, part)) == entry_tuples(getattr(b, part))
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

    def test_positions_past_int64_rejected_before_any_draw(self, monkeypatch):
        def no_draw(seed):
            pytest.fail("a generator was made before the size check")

        monkeypatch.setattr(np.random, "default_rng", no_draw)
        with pytest.raises(ValueError, match=re.escape(
                f"<= {MAX_DIM}, got N=10000000, K=1000000")):
            generate_synthetic(10**7, 10**6, 2, 1e-19, 0.5, 0.0, seed=0)

    def test_deterministic(self):
        a, ta = generate_synthetic(10, 4, 2, 0.2, 0.5, 0.01, seed=3)
        b, tb = generate_synthetic(10, 4, 2, 0.2, 0.5, 0.01, seed=3)
        assert np.array_equal(a.values, b.values)
        assert entry_tuples(a) == entry_tuples(b)
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
        assert np.array_equal(dense_w(truth.W), np.eye(truth.n_slots))

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
