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

W is stored as its band, a (K, window) array with band[k, m - 1] =
w[k, k - m]; the unit diagonal and the zeros are implied. Contractions
with W run lag by lag in O(K * window * D); `TemporalWeights.w` builds a
read-only dense copy on demand. Each function that needs z_hat and e_hat
mixes them itself (`compute_temporal`), so no caller hands a mix in.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .atomic import write_json


@dataclass
class TemporalWeights:
    """Lower-triangular mixing weights stored by band, band[k, m - 1] =
    w[k, k - m]. The band's width is the window. Invariants: window in
    [0, K-1], every entry nonnegative and finite, and exactly 0 where
    k < m."""

    band: np.ndarray

    @property
    def window(self) -> int:
        return self.band.shape[1]

    @property
    def w(self) -> np.ndarray:
        """Dense K x K matrix, built on demand and read-only."""
        ks, ls = band_indices(len(self.band), self.window)
        w = np.eye(len(self.band))
        w[ks, ls] = self.band[ks, ks - ls - 1]
        w.flags.writeable = False
        return w

    def mix(self, x: np.ndarray, transpose: bool = False) -> np.ndarray:
        """W @ x (or W.T @ x) for x with K rows, one lag at a time."""
        out = x.copy()
        for m in range(1, self.window + 1):
            lag = self.band[m:, m - 1].reshape((-1,) + (1,) * (x.ndim - 1))
            if transpose:
                out[:-m] += lag * x[m:]
            else:
                out[m:] += lag * x[:-m]
        return out

    def validate(self) -> None:
        band, window = self.band, self.window
        if not (0 <= window <= max(band.shape[0] - 1, 0)):
            raise ValueError("window must lie in [0, K-1]")
        if not np.isfinite(band).all() or (band < 0).any():
            raise ValueError("temporal weights must be nonnegative and finite")
        if np.triu(band[:window]).any():
            raise ValueError("temporal weights before slot 0 must be exactly 0")


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
    weights: TemporalWeights

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
        return self.weights.window

    def copy(self) -> "FactorModel":
        return FactorModel(
            S=self.S.copy(),
            U=self.U.copy(),
            Z=self.Z.copy(),
            a=self.a.copy(),
            c=self.c.copy(),
            e=self.e.copy(),
            weights=TemporalWeights(self.weights.band.copy()),
        )

    def validate(self) -> None:
        n, d = self.S.shape
        k = self.Z.shape[0]
        if self.U.shape != (n, d) or self.Z.shape != (k, d):
            raise ValueError("factor matrix dimensions disagree")
        if self.a.shape != (n,) or self.c.shape != (n,) or self.e.shape != (k,):
            raise ValueError("bias vector dimensions disagree")
        if self.weights.band.shape[:1] != (k,):
            raise ValueError("temporal weight band must have K rows")
        for name, arr in (("S", self.S), ("U", self.U), ("Z", self.Z),
                          ("a", self.a), ("c", self.c), ("e", self.e)):
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} contains non-finite values")
            if (arr < 0).any():
                raise ValueError(f"{name} contains negative values")
        self.weights.validate()


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
    """
    if rank < 1:
        raise ValueError("rank must be >= 1")
    if not (0 < scale < np.inf):
        raise ValueError("scale must be positive and finite")
    if not (0 <= window <= max(n_slots - 1, 0)):
        raise ValueError(f"window must lie in [0, {max(n_slots - 1, 0)}]")
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
    return FactorModel(S=s, U=u, Z=z, a=a, c=c, e=e,
                       weights=TemporalWeights(band=band))


def compute_temporal(model: FactorModel) -> tuple[np.ndarray, np.ndarray]:
    """Contract W against Z and e: returns (z_hat, e_hat) with z_hat[k] =
    sum_{l<=k} w[k,l] Z[l] (K x D) and e_hat[k] = sum_{l<=k} w[k,l] e[l]."""
    mixed = model.weights.mix(np.column_stack((model.Z, model.e)))
    return mixed[:, :-1], mixed[:, -1]


def predict_entries(model: FactorModel, ii: np.ndarray, jj: np.ndarray,
                    kk: np.ndarray) -> np.ndarray:
    """Predictions for parallel index arrays (ii, jj, kk); each call mixes W."""
    z_hat, e_hat = compute_temporal(model)
    return predict_rows(model.S[ii] * model.U[jj], z_hat[kk],
                        model.a[ii], model.c[jj], e_hat[kk])


def predict_rows(su: np.ndarray, zk: np.ndarray, ai: np.ndarray, cj: np.ndarray,
                 ek: np.ndarray) -> np.ndarray:
    """Predictions from gathered rows: su = S[i] * U[j], zk = z_hat[k] and
    the biases a[i], c[j], e_hat[k] of each entry."""
    return np.einsum("nd,nd->n", su, zk) + ai + cj + ek


def predict(model: FactorModel, i: int, j: int, k: int) -> float:
    """Predicted interaction weight for a single (i, j, k) position."""
    n, ks = model.n_nodes, model.n_slots
    if not (0 <= i < n and 0 <= j < n):
        raise IndexError(f"node index out of range: ({i}, {j}) with N={n}")
    if not (0 <= k < ks):
        raise IndexError(f"slot index out of range: {k} with K={ks}")
    return float(predict_entries(model, [i], [j], [k])[0])


def objective(model: FactorModel, entries, hp: HyperParams) -> float:
    """Regularized half squared error over the observed entries.

    eps = 1/2 sum_obs (x - x_hat)^2
        + 1/2 sum_obs (lam * sum_d (S[i,d]^2 + U[j,d]^2 + z_hat[k,d]^2)
                       + lam_b * (a[i]^2 + c[j]^2 + e_hat[k]^2))

    The regularization sum runs over observed entries, so a parameter is
    penalized once per entry that touches it. W is mixed once, for both
    the predictions and the z_hat, e_hat penalties.
    """
    z_hat, e_hat = compute_temporal(model)
    i, j, k = entries.i, entries.j, entries.k
    preds = predict_rows(model.S[i] * model.U[j], z_hat[k], model.a[i], model.c[j], e_hat[k])
    resid = entries.values - preds
    row_s = np.einsum("nd,nd->n", model.S, model.S)
    row_u = np.einsum("nd,nd->n", model.U, model.U)
    row_z = np.einsum("nd,nd->n", z_hat, z_hat)
    reg = (hp.lam * (row_s[i] + row_u[j] + row_z[k])
           + hp.lam_b * (model.a[i] ** 2 + model.c[j] ** 2 + e_hat[k] ** 2))
    return 0.5 * float(np.sum(resid * resid) + np.sum(reg))


def model_to_dict(model: FactorModel, hp: HyperParams) -> dict:
    """JSON-ready document. Matrices are flattened row-major; W is stored
    as its admissible strictly-lower band in row-major (k, then l) order."""
    ks, ls = band_indices(model.n_slots, model.window)
    return {
        "n_nodes": model.n_nodes,
        "n_slots": model.n_slots,
        "rank": model.rank,
        "window": model.window,
        "S": model.S.ravel().tolist(),
        "U": model.U.ravel().tolist(),
        "Z": model.Z.ravel().tolist(),
        "a": model.a.tolist(),
        "c": model.c.tolist(),
        "e": model.e.tolist(),
        "W_band": model.weights.band[ks, ks - ls - 1].tolist(),
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
            return np.asarray(doc[name], convert).reshape(shape) if shape else convert(doc[name])
        except (TypeError, ValueError) as exc:
            raise ValueError(f"model field {name!r} is malformed: {exc}") from None

    n, k, d, window = (field(name, int) for name in ("n_nodes", "n_slots", "rank", "window"))
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
        a=field("a", float, n), c=field("c", float, n), e=e,
        weights=TemporalWeights(band=band),
    )
    model.validate()
    return model, HyperParams(lam=field("lambda", float), lam_b=field("lambda_b", float))


def save_model(model: FactorModel, hp: HyperParams, path, extra: dict | None = None) -> None:
    """Write the model as JSON, atomically. Floats round-trip exactly (repr
    encoding)."""
    doc = model_to_dict(model, hp)
    if extra:
        doc.update(extra)
    write_json(path, doc)


def load_model(path) -> tuple[FactorModel, HyperParams]:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return model_from_dict(doc)
