"""Sparse third-order tensors over dynamic communication networks.

An N x N x K tensor is kept as its observed-entry set in coordinate form:
parallel arrays of sender index i, receiver index j, temporal slot k, and
a nonnegative value. The observed set is a set: duplicate (i, j, k)
coordinates are rejected. A tensor copies its inputs, so no write by the
caller reaches a validated tensor. Its public arrays are read-only views of
the copies it owns, which stay writable because numpy copies a read-only
argument of np.take or np.bincount per call; nothing writes them, so a
tensor is safe to share across threads. An empty set is a valid tensor.

Text format: one `i j k value` record a line, `#` starts a comment line,
and an optional `%dims N N K` header may only be the first record. Reading
and writing hold one block of lines at a time, never the file's text.
"""

from __future__ import annotations

import operator
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from .atomic import open_atomic
from .errors import DataError
from .model import FactorModel, predict_entries


MAX_DIM = 2**63 - 1  # the largest N or K: every in-bounds index fits the int64 index arrays
_READ_BLOCK = 1 << 18  # bytes (characters for a text stream) load_coo reads at once
_WRITE_BLOCK = 8192  # lines save_coo formats per write


class SparseTensor:
    """Observed entries of an N x N x K nonnegative tensor.

    Attributes:
        n_nodes: N, shared by the first two axes.
        n_slots: K, the temporal axis length.
        i, j, k: int64 index arrays, one element per observed entry.
        values: float64 array of interaction weights.
    """

    def __init__(self, n_nodes: int, n_slots: int, i, j, k, values):
        for name, a in zip("ijk", map(np.asarray, (i, j, k))):  # 1.9 fails, not truncated
            with np.errstate(invalid="ignore"):  # a nan casts to garbage, which != catches
                bad = np.flatnonzero(a.astype(np.int64) != a) if a.dtype.kind in "fu" else ()
            if len(bad):
                raise TypeError(f"{name} holds {a[bad[0]]} at entry {bad[0]}, not an int64 index")
        self._keep(n_nodes, n_slots, *(np.array(a, dtype=np.int64) for a in (i, j, k)),
                   np.array(values, dtype=np.float64))

    def _keep(self, n_nodes, n_slots, i, j, k, values) -> None:  # arrays no one else holds
        self.n_nodes = operator.index(n_nodes)  # 2.9 fails here, not truncated to 2
        self.n_slots = operator.index(n_slots)
        if not (1 <= self.n_nodes <= MAX_DIM and 1 <= self.n_slots <= MAX_DIM):
            raise ValueError("n_nodes and n_slots must lie in [1, 2**63 - 1], "
                             f"got {n_nodes}, {n_slots}")
        self.i, self.j, self.k, self.values = i, j, k, values
        if not (i.shape == j.shape == k.shape == values.shape):
            raise ValueError("index and value arrays must have equal length")
        self._validate()
        self._columns = (i, j, k, values)  # writable owners behind the frozen views
        self.i, self.j, self.k, self.values = (a.view() for a in self._columns)
        for arr in (self.i, self.j, self.k, self.values):
            arr.setflags(write=False)

    def _validate(self) -> None:
        # The first bad entry, by its first fault in the reader's order: node
        # bounds, slot bounds, sign, finiteness, then duplicate (the later copy).
        n, K, v = self.n_nodes, self.n_slots, self.values
        bad = np.flatnonzero((self.i < 0) | (self.i >= n) | (self.j < 0) | (self.j >= n)
                             | (self.k < 0) | (self.k >= K) | ~((v >= 0) & (v < np.inf)))
        stop = int(bad[0]) if bad.size else v.size
        i, j, k = self.i[:stop], self.j[:stop], self.k[:stop]  # valid up to the first bad one
        if n * n * K <= np.iinfo(np.int64).max:
            key = (i * n + j) * K + k
            # without a duplicate, the common case, no argsort is needed
            order = key[:0] if np.diff(np.sort(key)).all() else np.argsort(key, kind="stable")
        else:  # the linear key would wrap: sort the (i, j, k) triples instead
            order = np.lexsort((k, j, i))
        triples = np.stack((i[order], j[order], k[order]))
        # a stable sort keeps equal triples in entry order: all but the first are later copies
        later = order[1:][(triples[:, 1:] == triples[:, :-1]).all(axis=0)]
        if later.size:
            p = int(later.min())
            raise _BadEntry(p, f"duplicate {(int(i[p]), int(j[p]), int(k[p]))} at {{}}")
        if bad.size:
            raise _BadEntry(stop, _fault(self.i[stop], self.j[stop], self.k[stop], v[stop], n, K))

    @property
    def n_entries(self) -> int:
        return int(self.values.size)

    def take(self, positions: np.ndarray) -> "SparseTensor":
        """New tensor over the same (N, K) holding the selected entries."""
        part = SparseTensor.__new__(SparseTensor)
        # indexing by an array copies: the part keeps those copies, not a second one
        part._keep(self.n_nodes, self.n_slots, self.i[positions], self.j[positions],
                   self.k[positions], self.values[positions])
        return part


@dataclass
class DatasetSplit:
    """Disjoint train / validation / test partition of one observed set."""

    train: SparseTensor
    validation: SparseTensor
    test: SparseTensor


@dataclass
class DatasetStats:
    n_nodes: int
    n_slots: int
    observed_count: int
    density: float


class _BadEntry(DataError):
    """Entry `entry` is bad; `template` is the message, with `{}` where it names the entry."""

    def __init__(self, entry: int, template: str):
        super().__init__(template.format(f"entry {entry}"))
        self.entry, self.template = entry, template


def _fault(i: int, j: int, k: int, value: float, n_nodes: int, n_slots: int) -> str:
    """The message of the first fault of an entry known to have one, for _BadEntry."""
    if not (0 <= i < n_nodes and 0 <= j < n_nodes):
        return f"node index out of bounds at {{}}: ({i}, {j}) with N={n_nodes}"
    if not 0 <= k < n_slots:
        return f"slot index out of bounds at {{}}: {k} with K={n_slots}"
    return "negative value at {}" if value < 0 else "non-finite value at {}"


def load_coo(source, n_nodes: int | None = None, n_slots: int | None = None) -> SparseTensor:
    """Parse COO text into a SparseTensor, _READ_BLOCK bytes (or characters)
    at a time, so about one block of text is held whatever the file's size.

    Args:
        source: path (read as bytes), byte or text stream. Lines end at "\\n" alone, except
            in a text stream that translates newlines: open(path) has made "\\r" a line end.
        n_nodes, n_slots: declared bounds, integers. Optional if the file
            carries a `%dims N N K` header; if both are present they must agree.

    Raises:
        DataError: malformed record, out-of-bounds index, negative or
            non-finite value, duplicate coordinate, invalid UTF-8 (all with the
            offending line number; invalid UTF-8 first), or missing dimensions.
        ValueError: N or K below 1 or above 2**63 - 1, whatever the records hold.
    """
    # integers before any record is read, so 3.0 fails with or without a header
    n_nodes, n_slots = (None if n is None else operator.index(n) for n in (n_nodes, n_slots))
    with nullcontext(source) if hasattr(source, "read") else open(source, "rb") as stream:
        blocks = _line_blocks(stream)
        try:
            return _parse_blocks(blocks, n_nodes, n_slots)
        except (DataError, ValueError):
            for _ in blocks:  # invalid UTF-8 anywhere in the file is reported first
                pass
            raise


def _line_blocks(stream):
    """Yield (lines, number of lines before them) for each _READ_BLOCK read."""
    carry, before = [], 0
    while True:
        block = stream.read(_READ_BLOCK)
        cut = block.rfind(b"\n" if isinstance(block, bytes) else "\n")
        if block and cut < 0:  # a line cut by a read is carried into the next
            carry.append(block)
            continue
        text = block[:0].join(carry + [block[:cut]])  # at the end: the text after the last newline
        carry = [block[cut + 1:]]
        try:
            lines = (text.decode("utf-8") if isinstance(text, bytes) else text).split("\n")
        except UnicodeDecodeError as exc:
            lineno = before + text.count(b"\n", 0, exc.start) + 1
            raise DataError(f"invalid UTF-8 at line {lineno}: {exc.reason}") from None
        yield lines, before
        if not block:
            return
        before += len(lines)


def _parse_blocks(blocks, n_nodes, n_slots) -> SparseTensor:
    # The records are the stripped lines that are neither blank nor a comment.
    # numpy's C reader reads a block's data rows in one go; if it refuses one,
    # _walk reads them up to the first row bad on its own, and no later block
    # is parsed. SparseTensor then names the first bad entry before that row.
    skipped = []  # the numbers of the lines that are not records, in order
    first = None  # records before the data rows: 1 after a header, None before the first record
    columns = [[np.empty(0, dtype=np.int64)] * 3 + [np.empty(0)]]  # each block's i, j, k, values
    fault = None
    try:
        for lines, before in blocks:
            rows = [row for row in map(str.strip, lines) if row and row[0] != "#"]
            if len(rows) < len(lines):
                skipped += [n for n, row in enumerate(map(str.strip, lines), before + 1)
                            if not row or row[0] == "#"]
            if first is None and rows:
                first = 0
                if rows[0].split()[0] == "%dims":
                    n_nodes, n_slots = _dims(rows.pop(0), n_nodes, n_slots)
                    first = 1
                if n_nodes is None or n_slots is None:
                    break
            if rows:  # loadtxt warns on no rows
                try:
                    read = np.loadtxt(rows, dtype="i8,i8,i8,f8", comments=None, ndmin=1,
                                      unpack=True)
                except ValueError:
                    read, fault = _walk(rows, n_nodes, n_slots)
                columns.append(read)
                if fault:
                    break
        if n_nodes is None or n_slots is None:
            raise DataError("tensor dimensions unknown: pass n_nodes/n_slots or add a %dims header")
        columns = [np.concatenate(c) for c in zip(*columns)]  # frees the blocks' arrays
        tensor = SparseTensor(n_nodes, n_slots, *columns)
        if fault:
            raise _BadEntry(tensor.n_entries, fault)
        return tensor
    except _BadEntry as exc:
        lineno = exc.entry + first + 1  # its line if no line before it were skipped
        for n in skipped:
            lineno += n <= lineno
        raise DataError(exc.template.format(f"line {lineno}")) from None


def _dims(header: str, n_nodes, n_slots) -> tuple[int, int]:
    """N and K of a `%dims N N K` header (record 0), checked against those declared."""
    tokens = header.split()
    if len(tokens) != 4:
        raise _BadEntry(0, "malformed {}: expected '%dims N N K'")
    try:
        hn, hn2, hk = map(int, tokens[1:])
    except ValueError:
        raise _BadEntry(0, "malformed {}: %dims values must be integers") from None
    if hn != hn2:
        raise _BadEntry(0, "malformed {}: first two %dims values must match")
    if n_nodes is not None and n_nodes != hn:
        raise DataError(f"declared n_nodes {n_nodes} disagrees with %dims header {hn}")
    if n_slots is not None and n_slots != hk:
        raise DataError(f"declared n_slots {n_slots} disagrees with %dims header {hk}")
    return hn, hk


def _walk(rows: list[str], n_nodes: int, n_slots: int) -> tuple[list[np.ndarray], str | None]:
    """The i, j, k and value arrays of the rows before the first that is not
    4 fields int()/float() read with its indices in bounds, and that row's
    _BadEntry template (None if there is no such row)."""
    n, K = min(n_nodes, MAX_DIM), min(n_slots, MAX_DIM)  # every index kept fits int64
    ii, jj, kk, vv = [], [], [], []
    fault = None
    for tokens in map(str.split, rows):
        if len(tokens) != 4:
            fault = f"malformed {{}}: expected 'i j k value', got {len(tokens)} fields"
            break
        a, b, c, d = tokens
        template = "malformed {}: indices must be integers"
        try:
            i, j, k = int(a), int(b), int(c)
            template = "malformed {}: value is not a number"
            v = float(d)
        except ValueError:
            fault = template
            break
        if not (0 <= i < n and 0 <= j < n and 0 <= k < K):
            fault = _fault(i, j, k, v, n, K)
            break
        ii.append(i)
        jj.append(j)
        kk.append(k)
        vv.append(v)
    columns = [np.array(c, dtype=np.int64) for c in (ii, jj, kk)] + [np.array(vv, dtype=np.float64)]
    return columns, fault


def save_coo(tensor: SparseTensor, dest) -> None:
    """Write COO text with a `%dims` header, _WRITE_BLOCK lines a write; values
    use repr so a reload reproduces every double exactly. A path is written
    atomically: a failed write leaves the previous file, or none, in place."""
    with nullcontext(dest) if hasattr(dest, "write") else open_atomic(dest) as fh:
        fh.write(f"%dims {tensor.n_nodes} {tensor.n_nodes} {tensor.n_slots}\n")
        columns = []
        for col in (tensor.i, tensor.j, tensor.k):  # str() each distinct index once
            distinct, where = np.unique(col, return_inverse=True)
            columns.append((np.array(list(map(str, distinct.tolist())), dtype=object), where))
        for lo in range(0, len(tensor.i), _WRITE_BLOCK):
            fh.write("".join([f"{a} {b} {c} {v!r}\n" for a, b, c, v in zip(
                *(text[where[lo:lo + _WRITE_BLOCK]].tolist() for text, where in columns),
                tensor.values[lo:lo + _WRITE_BLOCK].tolist())]))


def split_ratios(ratios) -> np.ndarray:
    """`split`'s (train, validation, test) as float64; ValueError unless finite, >= 0, not all 0."""
    r = np.asarray(ratios, dtype=float)
    if r.shape != (3,):
        raise ValueError("ratios must be a triple (train, validation, test)")
    if not np.isfinite(r).all():
        raise ValueError(f"non-finite ratios {tuple(r.tolist())}")
    if (r < 0).any():
        raise ValueError("ratios must be nonnegative")
    if not r.any():
        raise ValueError("ratio sum zero")
    return r


def split(tensor: SparseTensor, ratios, seed: int) -> DatasetSplit:
    """Shuffle entries and slice into train / validation / test parts.

    Part sizes use floor rounding on the normalized ratios with the
    remainder assigned to the training part, so sizes always sum to the
    entry count. Deterministic given the seed.

    Raises:
        ValueError: ratios that `split_ratios` refuses, an empty tensor or an empty part.
    """
    r = split_ratios(ratios)
    n = tensor.n_entries
    if n == 0:
        raise ValueError("empty tensor")
    if r.max() > np.finfo(float).max / (3 * n):
        r = r / r.max()  # only the proportions matter; this keeps n * r and its sum finite
    total = float(r.sum())
    n_val = int(np.floor(n * r[1] / total))
    n_test = int(np.floor(n * r[2] / total))
    n_train = n - n_val - n_test
    for name, size in (("train", n_train), ("validation", n_val), ("test", n_test)):
        if size <= 0:
            raise ValueError(f"empty split part: {name} gets 0 of {n} entries "
                             f"at ratios {tuple(r.tolist())}")
    perm = np.random.default_rng(seed).permutation(n)
    parts = (perm[:n_train], perm[n_train:n_train + n_val], perm[n_train + n_val:])
    return DatasetSplit(
        train=tensor.take(parts[0]),
        validation=tensor.take(parts[1]),
        test=tensor.take(parts[2]),
    )


def compute_stats(tensor: SparseTensor) -> DatasetStats:
    """Entry count and density |observed| / (N^2 * K)."""
    cells = tensor.n_nodes * tensor.n_nodes * tensor.n_slots
    return DatasetStats(
        n_nodes=tensor.n_nodes,
        n_slots=tensor.n_slots,
        observed_count=tensor.n_entries,
        density=tensor.n_entries / cells,
    )


def _sample_positions(rng: np.random.Generator, total: int, count: int) -> np.ndarray:
    # uniform without replacement over [0, total); rejection sampling keeps
    # memory bounded when total is huge and the draw is sparse
    if total <= 1 << 24:
        pos = rng.choice(total, size=count, replace=False)
    else:
        # keep the first `count` distinct draws, batch by batch: a batch's new
        # values in first-occurrence order, minus those already picked
        pos = np.empty(0, dtype=np.int64)
        while pos.size < count:
            batch = rng.integers(0, total, size=int(1.3 * (count - pos.size) + 16))
            _, first = np.unique(batch, return_index=True)
            fresh = batch[np.sort(first)]
            fresh = fresh[~np.isin(fresh, pos)]
            pos = np.concatenate((pos, fresh[:count - pos.size]))
    return np.sort(pos)


def generate_synthetic(n_nodes: int, n_slots: int, true_rank: int, density: float,
                       temporal_correlation: float, noise_scale: float,
                       seed: int) -> tuple[SparseTensor, FactorModel]:
    """Draw a ground-truth model and sample a sparse tensor from it.

    The temporal factor follows a first-order autoregressive recurrence
    per column, Z[k+1, d] = temporal_correlation * Z[k, d] + innovation
    with a strictly positive innovation, so consecutive slots are
    genuinely correlated and a temporal-dependent model has something to
    exploit. Observed positions are sampled uniformly without
    replacement; each value is the ground-truth prediction plus zero-mean
    Gaussian noise, clamped at 0. Deterministic given the seed.

    Returns:
        (tensor, truth) where truth is the generating FactorModel with
        identity temporal weights (window 0).

    Raises:
        ValueError: n_nodes, n_slots or true_rank below 1, N*N*K above 2**63 - 1,
            density outside (0, 1] or rounding to 0 entries, temporal_correlation
            outside [0, 1), or noise_scale negative or non-finite.
    """
    if n_nodes < 1 or n_slots < 1 or true_rank < 1:
        raise ValueError("n_nodes, n_slots and true_rank must be >= 1")
    if not (0 < density <= 1):
        raise ValueError("density must be in (0,1]")
    if not (0 <= temporal_correlation < 1):
        raise ValueError("temporal_correlation must lie in [0, 1)")
    if not (0 <= noise_scale < np.inf):
        raise ValueError("noise_scale must be finite and nonnegative")
    total = n_nodes * n_nodes * n_slots
    if total > MAX_DIM:  # the positions are drawn as int64
        raise ValueError(f"n_nodes**2 * n_slots must be <= {MAX_DIM}, got N={n_nodes}, K={n_slots}")
    count = int(round(density * total))
    if count < 1:
        raise ValueError("density too small: no entries would be generated")

    rng = np.random.default_rng(seed)
    s = rng.uniform(0.2, 1.0, size=(n_nodes, true_rank))
    u = rng.uniform(0.2, 1.0, size=(n_nodes, true_rank))
    z = np.empty((n_slots, true_rank))
    z[0] = rng.uniform(0.5, 1.5, size=true_rank)
    # innovation on (0, width]: strictly positive, mean (1 - rho) keeps the
    # process level near 1 regardless of rho
    width = 2.0 * (1.0 - temporal_correlation)
    for k in range(1, n_slots):
        z[k] = temporal_correlation * z[k - 1] + width * (1.0 - rng.random(true_rank))
    a = rng.uniform(0.05, 0.25, size=n_nodes)
    c = rng.uniform(0.05, 0.25, size=n_nodes)
    e = rng.uniform(0.05, 0.25, size=n_slots)

    truth = FactorModel(S=s, U=u, Z=z, a=a, c=c, e=e, W=np.zeros((n_slots, 0)))

    pos = _sample_positions(rng, total, count)
    per_node = n_nodes * n_slots
    ii = pos // per_node
    jj = (pos % per_node) // n_slots
    kk = pos % n_slots
    values = predict_entries(truth, ii, jj, kk)
    if noise_scale > 0:
        values = np.maximum(values + rng.normal(0.0, noise_scale, size=count), 0.0)
    return SparseTensor(n_nodes, n_slots, ii, jj, kk, values), truth
