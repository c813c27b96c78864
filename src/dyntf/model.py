"""Latent factor model with biases and temporal-dependence weights.

The model represents an N x N x K nonnegative tensor through sender
features S (N x D), receiver features U (N x D), temporal features
Z (K x D), bias vectors a, c (length N) and e (length K), and a
lower-triangular temporal weight matrix W (K x K) with unit diagonal.
Slot k sees a mixed temporal feature

    z_hat[k, d] = sum_{l <= k} w[k, l] * Z[l, d]

and a mixed temporal bias e_hat[k] defined the same way, so the predicted
entry is

    x_hat[i, j, k] = sum_d S[i, d] * U[j, d] * z_hat[k, d] + a[i] + c[j] + e_hat[k]

A window parameter bounds how far back W may reach: w[k, l] = 0 whenever
k - l > window. window = K - 1 allows the full lower triangle; window = 0
pins W to the identity and reduces the model to a plain biased
factorization.

W is stored as its band, the (K, window) array FactorModel.W with
W[k, m - 1] = w[k, k - m]; the unit diagonal and the zeros are implied,
and W is validated and stepped like the other six parameter arrays. Two
loops own the lag-by-lag contractions with W, each O(K * window * D):
`compute_temporal` mixes W @ [Z | e] and the trainer's `_mu_terms` carries
its slot sums back through W.T, so no caller hands a mix in. Predictions
gather their rows into two buffers of 256 KiB each, whatever the rank.
"""

from __future__ import annotations

import copy
import json
import operator
import os
from dataclasses import dataclass

import numpy as np

from .atomic import write_json

_GATHER_BYTES = 256 << 10  # bytes of each of _predict_blocks' two row buffers


@dataclass
class HyperParams:
    """Regularization strengths: lam for features, lam_b for biases."""

    lam: float = 0.0
    lam_b: float = 0.0

    def __post_init__(self):
        if not (np.isfinite(self.lam) and np.isfinite(self.lam_b)):
            raise ValueError("hyperparameters must be finite")
        if self.lam < 0 or self.lam_b < 0:
            raise ValueError("hyperparameters must be nonnegative")


@dataclass
class FactorModel:
    """All learnable parameters. A plain value object: copy to branch."""

    S: np.ndarray
    U: np.ndarray
    Z: np.ndarray
    a: np.ndarray
    c: np.ndarray
    e: np.ndarray
    W: np.ndarray  # the band of w: W[k, m - 1] = w[k, k - m], window columns

    @property
    def n_nodes(self) -> int:
        return self.S.shape[0]

    @property
    def n_slots(self) -> int:
        return self.Z.shape[0]

    @property
    def rank(self) -> int:
        return self.S.shape[1]

    @property
    def window(self) -> int:
        return self.W.shape[1]

    def copy(self) -> "FactorModel":
        return copy.deepcopy(self)

    def validate(self) -> None:
        arrays = {name: getattr(self, name) for name in ("S", "U", "Z", "a", "c", "e", "W")}
        for name, arr in arrays.items():
            ndim = 1 if name in ("a", "c", "e") else 2
            if arr.ndim != ndim:
                raise ValueError(f"{name} must have {ndim} dimensions, not {arr.ndim}")
            if arr.dtype != np.float64:
                raise ValueError(f"{name} must hold float64 values, not {arr.dtype}")
        n, d = self.S.shape
        k = self.Z.shape[0]
        if self.U.shape != (n, d) or self.Z.shape != (k, d):
            raise ValueError("factor matrix dimensions disagree")
        if self.a.shape != (n,) or self.c.shape != (n,) or self.e.shape != (k,):
            raise ValueError("bias vector dimensions disagree")
        if self.W.shape[0] != k:
            raise ValueError("temporal weight band must have K rows")
        if not (0 <= self.window <= max(k - 1, 0)):
            raise ValueError("window must lie in [0, K-1]")
        for name, arr in arrays.items():
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} contains non-finite values")
            if (arr < 0).any():
                raise ValueError(f"{name} contains negative values")
        if np.triu(self.W[:self.window]).any():
            raise ValueError("temporal weights before slot 0 must be exactly 0")


def band_indices(n_slots: int, window: int):
    """(k, l) index arrays of the admissible strictly-lower band, row-major
    by k then l. This is the canonical serialization order of W; the band
    position of (k, l) is [k, k - l - 1]."""
    ks, cols = np.nonzero(np.arange(n_slots)[:, None] + np.arange(window) >= window)
    return ks, ks - window + cols


def init_positive(n_nodes: int, n_slots: int, rank: int, window: int,
                  seed, scale: float = 0.1) -> FactorModel:
    """Draw a strictly positive model, deterministic given the seed.

    Every element of S, U, Z, a, c, e is uniform on (0, scale]. The W band
    is uniform on (0, scale], drawn in serialization order, so window = 0
    yields the identity.

    Args:
        n_nodes: node count N.
        n_slots: temporal slot count K.
        rank: latent dimension D (>= 1).
        window: temporal dependence depth (0 .. K-1).
        seed: int or numpy SeedSequence.
        scale: upper end of the draw range (> 0).

    A model larger than physical memory raises MemoryError before any draw.
    """
    if rank < 1:
        raise ValueError("rank must be >= 1")
    if not (0 < scale < np.inf):
        raise ValueError("scale must be positive and finite")
    if not (0 <= window <= max(n_slots - 1, 0)):
        raise ValueError(f"window must lie in [0, {max(n_slots - 1, 0)}]")
    check_memory(n_nodes, n_slots, rank, window)
    rng = np.random.default_rng(seed)

    def positive(*shape):
        # 1 - random() maps [0, 1) onto (0, 1], keeping the draw strictly positive
        return scale * (1.0 - rng.random(shape))

    s = positive(n_nodes, rank)
    u = positive(n_nodes, rank)
    z = positive(n_slots, rank)
    a = positive(n_nodes)
    c = positive(n_nodes)
    e = positive(n_slots)
    band = np.zeros((n_slots, window))
    ks, ls = band_indices(n_slots, window)
    band[ks, ks - ls - 1] = positive(ks.size)
    return FactorModel(S=s, U=u, Z=z, a=a, c=c, e=e, W=band)


def check_memory(n_nodes: int, n_slots: int, rank: int, window: int,
                 replicas: int = 1) -> None:
    """Raise MemoryError, allocating nothing, when `replicas` models of this
    shape hold more float64 bytes (S, U, Z, the W band, a, c and e) than
    this machine's physical memory."""
    need = replicas * 8 * (2 * n_nodes * rank + n_slots * rank + n_slots * window
                           + 2 * n_nodes + n_slots)
    if need > os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE"):
        what = (f"a swarm of {replicas} model replicas" if replicas > 1 else
                f"a model of N={n_nodes}, K={n_slots}, rank {rank}, window {window}")
        raise MemoryError(f"{what} needs {need} bytes, more than this machine's physical memory")


def compute_temporal(model: FactorModel) -> tuple[np.ndarray, np.ndarray]:
    """Contract W against Z and e: returns (z_hat, e_hat) with z_hat[k] =
    sum_{l<=k} w[k,l] Z[l] (K x D) and e_hat[k] = sum_{l<=k} w[k,l] e[l]."""
    ze = np.column_stack((model.Z, model.e))
    mixed = ze.copy()
    for m in range(1, model.window + 1):  # lag m adds w[k, k - m] * ze[k - m]
        mixed[m:] += model.W[m:, m - 1, None] * ze[:-m]
    return mixed[:, :-1], mixed[:, -1]


def predict_entries(model: FactorModel, ii: np.ndarray, jj: np.ndarray,
                    kk: np.ndarray) -> np.ndarray:
    """Predictions for parallel index arrays (ii, jj, kk); each call mixes W.
    Raises ValueError for arrays of unequal length and IndexError naming the
    first entry with an index out of range (negative ones included)."""
    ii, jj, kk = np.asarray(ii), np.asarray(jj), np.asarray(kk)
    if not ii.shape == jj.shape == kk.shape:
        raise ValueError("index arrays must have equal length")
    n, n_slots = model.n_nodes, model.n_slots
    bad = np.flatnonzero((ii < 0) | (ii >= n) | (jj < 0) | (jj >= n) | (kk < 0) | (kk >= n_slots))
    if bad.size:
        i, j, k = ii[bad[0]], jj[bad[0]], kk[bad[0]]
        if not (0 <= i < n and 0 <= j < n):
            raise IndexError(f"node index out of range: ({i}, {j}) with N={n}")
        raise IndexError(f"slot index out of range: {k} with K={n_slots}")
    return _predict_blocks(model, *compute_temporal(model), ii, jj, kk)


def _predict_blocks(model: FactorModel, z_hat: np.ndarray, e_hat: np.ndarray,
                    ii: np.ndarray, jj: np.ndarray, kk: np.ndarray) -> np.ndarray:
    """Predictions for in-range indices, a block of entries at a time: the
    rows are gathered into two (block, rank) buffers of _GATHER_BYTES that
    every block reuses, and each prediction reads its own entry alone, so
    no byte depends on the block length."""
    out = np.empty(len(ii))
    block = max(1, _GATHER_BYTES // (8 * max(model.rank, 1)))
    shape = (min(block, len(ii)), model.rank)
    su, zk = np.empty(shape), np.empty(shape)
    for lo in range(0, len(ii), block):
        i, j, k = (idx[lo:lo + block] for idx in (ii, jj, kk))
        rows, other = su[:len(i)], zk[:len(i)]
        # np.take "clip" writes straight into `out` ("raise" buffers it); the
        # callers have checked the indices, so it clips nothing
        np.take(model.S, i, 0, rows, "clip")
        rows *= np.take(model.U, j, 0, other, "clip")
        part = out[lo:lo + block]  # the biases are added in place, one gather at a time
        np.einsum("nd,nd->n", rows, np.take(z_hat, k, 0, other, "clip"), out=part)
        for bias, at in ((model.a, i), (model.c, j), (e_hat, k)):
            part += bias[at]
    return out


def predict(model: FactorModel, i: int, j: int, k: int) -> float:
    """Predicted interaction weight for a single (i, j, k) position."""
    return float(predict_entries(model, [i], [j], [k])[0])


def objective(model: FactorModel, entries, hp: HyperParams) -> float:
    """Regularized half squared error over the observed entries.

    eps = 1/2 sum_obs (x - x_hat)^2
        + 1/2 sum_obs (lam * sum_d (S[i,d]^2 + U[j,d]^2 + z_hat[k,d]^2)
                       + lam_b * (a[i]^2 + c[j]^2 + e_hat[k]^2))

    The regularization sum runs over observed entries, so a parameter is
    penalized once per entry that touches it. The predictions come from
    predict_entries, which mixes W itself and raises its IndexError for an
    entry outside the model; W is mixed again for the z_hat, e_hat penalties.
    """
    i, j, k = entries.i, entries.j, entries.k
    resid = entries.values - predict_entries(model, i, j, k)
    z_hat, e_hat = compute_temporal(model)
    row_s = np.einsum("nd,nd->n", model.S, model.S)
    row_u = np.einsum("nd,nd->n", model.U, model.U)
    row_z = np.einsum("nd,nd->n", z_hat, z_hat)
    reg = (hp.lam * (row_s[i] + row_u[j] + row_z[k])
           + hp.lam_b * (model.a[i] ** 2 + model.c[j] ** 2 + e_hat[k] ** 2))
    return 0.5 * float(np.sum(resid * resid) + np.sum(reg))


def model_to_dict(model: FactorModel, hp: HyperParams) -> dict:
    """JSON-ready document. Matrices are flattened row-major; W is stored
    as its admissible strictly-lower band in row-major (k, then l) order."""
    return {name: value.tolist() if isinstance(value, np.ndarray) else value
            for name, value in _fields(model, hp).items()}


def _fields(model: FactorModel, hp: HyperParams) -> dict:
    # the model document with each list of floats still a 1-D array
    ks, ls = band_indices(model.n_slots, model.window)
    return {
        "n_nodes": model.n_nodes,
        "n_slots": model.n_slots,
        "rank": model.rank,
        "window": model.window,
        "S": model.S.ravel(),
        "U": model.U.ravel(),
        "Z": model.Z.ravel(),
        "a": model.a,
        "c": model.c,
        "e": model.e,
        "W_band": model.W[ks, ks - ls - 1],
        "lambda": float(hp.lam),
        "lambda_b": float(hp.lam_b),
    }


def model_from_dict(doc: dict) -> tuple[FactorModel, HyperParams]:
    """Inverse of model_to_dict. Raises ValueError naming the first field
    that is missing or malformed."""
    if not isinstance(doc, dict):
        raise ValueError("model document must be a JSON object")

    def field(name, convert, *shape):
        if name not in doc:
            raise ValueError(f"model document lacks field {name!r}")
        try:
            if not shape and isinstance(doc[name], bool):  # JSON true/false is no number
                raise TypeError(f"got {doc[name]}")
            return np.asarray(doc[name], convert).reshape(shape) if shape else convert(doc[name])
        except (TypeError, ValueError) as exc:
            raise ValueError(f"model field {name!r} is malformed: {exc}") from None

    n, k, d, window = (field(name, operator.index)  # JSON integers only, not 2.5 or inf
                       for name in ("n_nodes", "n_slots", "rank", "window"))
    for name, value in (("n_nodes", n), ("n_slots", k), ("rank", d)):
        if value < 0:  # reshape would read -1 as "infer this dimension"
            raise ValueError(f"model field {name!r} must be nonnegative")
    e = field("e", float, k)  # bounds K by the document size before any (K, window) allocation
    if not (0 <= window <= max(k - 1, 0)):
        raise ValueError(f"model field 'window' must lie in [0, {max(k - 1, 0)}]")
    values = field("W_band", float, window * (window - 1) // 2 + window * (k - window))
    band = np.zeros((k, window))
    ks, ls = band_indices(k, window)
    band[ks, ks - ls - 1] = values
    model = FactorModel(
        S=field("S", float, n, d), U=field("U", float, n, d), Z=field("Z", float, k, d),
        a=field("a", float, n), c=field("c", float, n), e=e, W=band,
    )
    model.validate()
    return model, HyperParams(lam=field("lambda", float), lam_b=field("lambda_b", float))


def save_model(model: FactorModel, hp: HyperParams, path, extra: dict | None = None) -> None:
    """Write model_to_dict's document and `extra`'s fields as JSON, atomically
    and array by array (write_json). Floats round-trip exactly (repr)."""
    write_json(path, {**_fields(model, hp), **(extra or {})})


def load_model(path) -> tuple[FactorModel, HyperParams]:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except RecursionError:
            raise ValueError("model JSON is nested too deeply") from None
    return model_from_dict(doc)
