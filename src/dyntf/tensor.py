"""Sparse third-order tensors over dynamic communication networks.

An N x N x K tensor is kept as its observed-entry set in coordinate form:
parallel arrays of sender index i, receiver index j, temporal slot k, and
a nonnegative value. The observed set is a set: duplicate (i, j, k)
coordinates are rejected. Tensors are immutable after construction and
safe to share read-only across threads.

Text format: one `i j k value` record per line, `#` starts a comment
line, and an optional `%dims N N K` header may appear as the first
non-comment line.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .atomic import open_atomic
from .errors import DataError
from .model import FactorModel, TemporalWeights, predict_entries


class ObservedEntry(NamedTuple):
    i: int
    j: int
    k: int
    value: float


def _check_dims(n_nodes: int, n_slots: int) -> None:
    # the cap keeps every in-bounds index within the int64 index arrays
    if not (1 <= n_nodes < 2**63 and 1 <= n_slots < 2**63):
        raise ValueError(f"n_nodes and n_slots must lie in [1, 2**63 - 1], got {n_nodes}, {n_slots}")


class SparseTensor:
    """Observed entries of an N x N x K nonnegative tensor.

    Attributes:
        n_nodes: N, shared by the first two axes.
        n_slots: K, the temporal axis length.
        i, j, k: int64 index arrays, one element per observed entry.
        values: float64 array of interaction weights.
    """

    def __init__(self, n_nodes: int, n_slots: int, i, j, k, values):
        _check_dims(n_nodes, n_slots)
        self.n_nodes = int(n_nodes)
        self.n_slots = int(n_slots)
        self.i = np.ascontiguousarray(i, dtype=np.int64)
        self.j = np.ascontiguousarray(j, dtype=np.int64)
        self.k = np.ascontiguousarray(k, dtype=np.int64)
        self.values = np.ascontiguousarray(values, dtype=np.float64)
        if not (self.i.shape == self.j.shape == self.k.shape == self.values.shape):
            raise ValueError("index and value arrays must have equal length")
        self._validate()
        for arr in (self.i, self.j, self.k, self.values):
            arr.setflags(write=False)

    def _validate(self) -> None:
        n, k = self.n_nodes, self.n_slots
        for name, arr, bound in (("i", self.i, n), ("j", self.j, n), ("k", self.k, k)):
            if arr.size and (arr.min() < 0 or arr.max() >= bound):
                raise DataError(f"{name} index out of bounds for declared size {bound}")
        if self.values.size:
            if not np.isfinite(self.values).all():
                raise DataError("non-finite value in tensor")
            if self.values.min() < 0:
                raise DataError("negative value in tensor")
        if n * n * k <= np.iinfo(np.int64).max:
            linear = np.sort((self.i * n + self.j) * k + self.k)
            repeated = linear[1:] == linear[:-1]
        else:  # the linear key would wrap: sort the (i, j, k) triples instead
            triples = np.stack((self.i, self.j, self.k))[:, np.lexsort((self.k, self.j, self.i))]
            repeated = (triples[:, 1:] == triples[:, :-1]).all(axis=0)
        if repeated.any():
            raise DataError("duplicate (i, j, k) entry")

    @property
    def n_entries(self) -> int:
        return int(self.values.size)

    @property
    def entries(self) -> list[ObservedEntry]:
        return [ObservedEntry(int(a), int(b), int(c), float(v))
                for a, b, c, v in zip(self.i, self.j, self.k, self.values)]

    def take(self, positions: np.ndarray) -> "SparseTensor":
        """New tensor over the same (N, K) holding the selected entries."""
        return SparseTensor(self.n_nodes, self.n_slots,
                            self.i[positions], self.j[positions],
                            self.k[positions], self.values[positions])


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


def _parse_line(tokens: list[str], lineno: int, n_nodes: int, n_slots: int):
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


def load_coo(source, n_nodes: int | None = None, n_slots: int | None = None) -> SparseTensor:
    """Parse COO text into a SparseTensor.

    Args:
        source: path, text stream, or byte stream.
        n_nodes, n_slots: declared bounds. Optional if the file carries a
            `%dims N N K` header; if both are present they must agree.

    Raises:
        DataError: malformed record, out-of-bounds index, negative or
            non-finite value, duplicate coordinate (all with the offending
            line number), or missing dimensions.
        ValueError: N or K below 1 or above 2**63 - 1, before any record is read.
    """
    if hasattr(source, "read"):
        return _load_coo_stream(source, n_nodes, n_slots)
    with open(source, "r", encoding="utf-8") as fh:
        return _load_coo_stream(fh, n_nodes, n_slots)


def _load_coo_stream(stream, n_nodes, n_slots) -> SparseTensor:
    # One pass in bulk: the data lines are tokenised together, numpy casts
    # each column (str -> int64/float64 calls int()/float() per token, so it
    # accepts the same tokens and gives the same doubles), and SparseTensor
    # checks bounds, signs, finiteness and duplicates once. Any failure hands
    # the text to the line-by-line reader, which names the first bad line.
    text = stream.read()
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    lines = text.split("\n")
    start, n_nodes, n_slots = _take_header(lines, n_nodes, n_slots)
    if n_nodes is None or n_slots is None:
        raise DataError("tensor dimensions unknown: pass n_nodes/n_slots or add a %dims header")
    _check_dims(n_nodes, n_slots)
    rows = [line for line in map(str.strip, lines[start:]) if line and line[0] != "#"]
    try:
        # per line, not by the total: 3 + 5 fields would shift the columns
        if set(map(len, map(str.split, rows))) - {4}:
            raise ValueError("a record without 4 fields")
        tokens = " ".join(rows).split()
        i, j, k = (np.array(tokens[c::4], dtype=np.int64) for c in range(3))
        return SparseTensor(n_nodes, n_slots, i, j, k,
                            np.array(tokens[3::4], dtype=np.float64))
    except (ValueError, OverflowError, DataError):
        return _load_lines(lines, start, n_nodes, n_slots)


def _take_header(lines: list[str], n_nodes, n_slots):
    """Read the optional `%dims N N K` header, which may only be the first
    non-comment line. Returns (index of the first data line, N, K)."""
    for lineno, line in enumerate(lines, start=1):
        tokens = line.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        if tokens[0] != "%dims":
            return lineno - 1, n_nodes, n_slots
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
        return lineno, hn, hk
    return len(lines), n_nodes, n_slots


def _load_lines(lines: list[str], start: int, n_nodes: int, n_slots: int) -> SparseTensor:
    """The line-by-line reader, run only when the bulk pass fails: it raises
    the error of the first bad line, or builds the tensor if there is none."""
    ii: list[int] = []
    jj: list[int] = []
    kk: list[int] = []
    vals: list[float] = []
    seen: set[tuple[int, int, int]] = set()
    for lineno, line in enumerate(lines[start:], start=start + 1):
        tokens = line.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        i, j, k, value = _parse_line(tokens, lineno, n_nodes, n_slots)
        key = (i, j, k)
        if key in seen:
            raise DataError(f"duplicate {key} at line {lineno}")
        seen.add(key)
        ii.append(i)
        jj.append(j)
        kk.append(k)
        vals.append(value)
    return SparseTensor(n_nodes, n_slots, ii, jj, kk, vals)


def save_coo(tensor: SparseTensor, dest) -> None:
    """Write COO text with a `%dims` header. Values use repr so a reload
    reproduces every double exactly. A path is written atomically: a
    failed write leaves the previous file, or none, in place."""
    if hasattr(dest, "write"):
        _save_coo_stream(tensor, dest)
    else:
        with open_atomic(dest) as fh:
            _save_coo_stream(tensor, fh)


def _save_coo_stream(tensor: SparseTensor, fh) -> None:
    fh.write(f"%dims {tensor.n_nodes} {tensor.n_nodes} {tensor.n_slots}\n")
    fh.write("".join([f"{a} {b} {c} {v!r}\n" for a, b, c, v in zip(
        tensor.i.tolist(), tensor.j.tolist(), tensor.k.tolist(), tensor.values.tolist())]))


def split(tensor: SparseTensor, ratios, seed: int) -> DatasetSplit:
    """Shuffle entries and slice into train / validation / test parts.

    Part sizes use floor rounding on the normalized ratios with the
    remainder assigned to the training part, so sizes always sum to the
    entry count. Deterministic given the seed.

    Raises:
        ValueError: fewer than three ratios, ratio sum zero, a negative
            ratio, an empty input tensor, or any part coming out empty.
    """
    r = np.asarray(ratios, dtype=float)
    if r.shape != (3,):
        raise ValueError("ratios must be a triple (train, validation, test)")
    if (r < 0).any():
        raise ValueError("ratios must be nonnegative")
    n = tensor.n_entries
    if n and r.max() > np.finfo(float).max / (3 * n):
        r = r / r.max()  # only the proportions matter; this keeps n * r and its sum finite
    total = float(r.sum())
    if total == 0:
        raise ValueError("ratio sum zero")
    if n == 0:
        raise ValueError("empty tensor")
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
        ValueError: n_nodes, n_slots or true_rank below 1, density outside
            (0, 1] or rounding to 0 entries, temporal_correlation outside
            [0, 1), or noise_scale negative or non-finite.
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

    truth = FactorModel(S=s, U=u, Z=z, a=a, c=c, e=e,
                        weights=TemporalWeights(band=np.zeros((n_slots, 0))))

    pos = _sample_positions(rng, total, count)
    per_node = n_nodes * n_slots
    ii = pos // per_node
    jj = (pos % per_node) // n_slots
    kk = pos % n_slots
    values = predict_entries(truth, ii, jj, kk)
    if noise_scale > 0:
        values = np.maximum(values + rng.normal(0.0, noise_scale, size=count), 0.0)
    return SparseTensor(n_nodes, n_slots, ii, jj, kk, values), truth
