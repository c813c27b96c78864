"""Multiplicative-update training for the temporal factor model.

One epoch performs a simultaneous (Jacobi) multiplicative update: every
numerator and denominator is accumulated from the epoch-start parameter
snapshot, then all parameters are replaced at once. For a parameter theta
with gradient written as (denominator terms) - (numerator terms), the
learning rate theta / denominator turns the additive step into

    theta <- theta * numerator / max(denominator, DENOM_FLOOR)

which preserves nonnegativity. Parameters touched by no observed entry
keep their value.

The accumulation is a reduction over observed entries. Entries are
processed in fixed-size chunks whose partial sums are combined in chunk
order, so the result is bit-identical whether chunks run on one thread or
several; `threads` only controls how many chunks are in flight. The chunk
size is a constant, never derived from `threads` or the machine, because
the chunk grid fixes the summation order and so the bytes of the model.
Its value, 8192 entries, came from a sweep of 4096/8192/16384 on a
2000-node rank-20 tensor and a 2000-slot rank-10 one at 1 and 2 threads:
at rank 20 a chunk's per-entry temporaries are then 1.3 MB each, which
stay in a 2 MB L2 cache (32768 made them 5.2 MB), and 100k entries make
13 chunks, which two threads share evenly (32768 made 4, three full and
one short).

`train` and the tuner's `adapt_train` are steps of one epoch loop,
`_run_epochs`, which records the scores, stops and builds the report.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError
from .metrics import MetricSeries, convergence_rounds, mae, rmse
from .model import (FactorModel, HyperParams, compute_temporal, predict_entries,
                    predict_rows)

_CHUNK = 8192
DENOM_FLOOR = 1e-12  # smallest denominator a multiplicative step divides by


@dataclass
class TrainConfig:
    """Knobs for the training loop.

    mode "att" learns the temporal weight band; "baseline" leaves the
    temporal weights untouched (with an identity W this is a plain biased
    factorization).
    """

    max_epochs: int = 1000
    tolerance: float = 1e-5
    mode: str = "att"

    def __post_init__(self):
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")
        if self.tolerance < 0:
            raise ValueError("tolerance must be nonnegative")
        if self.mode not in ("att", "baseline"):
            raise ValueError("mode must be 'att' or 'baseline'")


@dataclass
class TrainReport:
    """Per-epoch validation trace and termination bookkeeping.

    cr_rmse / cr_mae are the first epochs at which the consecutive RMSE /
    MAE change drops below the tolerance. Adaptive runs fill `tuner` with
    the swarm's population and best rule; their chosen lambdas are
    final_hp.
    """

    epochs_run: int
    per_epoch_rmse: list[float]
    per_epoch_mae: list[float]
    per_epoch_h: list[float]
    cr_rmse: int
    cr_mae: int
    termination: str
    final_hp: HyperParams
    tuner: dict | None = None

    def to_dict(self) -> dict:
        lambdas = {"lambda": float(self.final_hp.lam),
                   "lambda_b": float(self.final_hp.lam_b)}
        doc = {
            "epochs_run": self.epochs_run,
            "per_epoch_rmse": [float(v) for v in self.per_epoch_rmse],
            "per_epoch_mae": [float(v) for v in self.per_epoch_mae],
            "per_epoch_h": [float(v) for v in self.per_epoch_h],
            "cr_rmse": self.cr_rmse,
            "cr_mae": self.cr_mae,
            "termination": self.termination,
            "final_hp": lambdas,
        }
        if self.tuner is not None:
            doc["best_lambda"] = lambdas["lambda"]
            doc["best_lambda_b"] = lambdas["lambda_b"]
            doc.update(self.tuner)
        return doc


# divergence shows up as inf/nan accumulators and is reported through
# DivergenceError, so the intermediate FP warnings are pure noise
@np.errstate(over="ignore", invalid="ignore")
def _chunk_sums(model, cache, data, lo, hi):
    ii = data.i[lo:hi]
    jj = data.j[lo:hi]
    kk = data.k[lo:hi]
    x = data.values[lo:hi]
    si = model.S[ii]
    uj = model.U[jj]
    zk = cache.z_hat[kk]
    su = si * uj
    pred = predict_rows(su, zk, model.a[ii], model.c[jj], cache.e_hat[kk])
    n, k, rank = model.n_nodes, model.n_slots, model.rank
    sums = {}
    for idx, rows, groups, names in ((ii, uj * zk, n, ("num_s", "den_s", "num_a", "den_a")),
                                     (jj, si * zk, n, ("num_u", "den_u", "num_c", "den_c")),
                                     (kk, su, k, ("g_num", "g_den", "h_num", "h_den"))):
        # row-wise scatter-add over one key array: out[g, d] += weight[n] *
        # rows[n, d] for every n with idx[n] == g
        keys = (idx[:, None] * rank + np.arange(rank)).ravel()
        for weight, row_name, bias_name in zip((x, pred), names[:2], names[2:]):
            sums[row_name] = np.bincount(keys, weights=(weight[:, None] * rows).ravel(),
                                         minlength=groups * rank).reshape(groups, rank)
            sums[bias_name] = np.bincount(idx, weights=weight, minlength=groups)
    return sums


def _epoch_sums(model, cache, data, threads):
    bounds = [(lo, min(lo + _CHUNK, data.n_entries))
              for lo in range(0, data.n_entries, _CHUNK)]

    def chunk(b):
        return _chunk_sums(model, cache, data, *b)

    if threads > 1 and len(bounds) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return _merge_in_order(pool.map(chunk, bounds))
    return _merge_in_order(map(chunk, bounds))


def _merge_in_order(parts):
    # adds each chunk's sums into the first chunk's arrays in chunk order,
    # so the totals do not depend on which thread ran which chunk
    parts = iter(parts)
    total = next(parts)
    for part in parts:
        for key, arr in total.items():
            arr += part[key]
    return total


def _window_reach(counts_k: np.ndarray, window: int) -> np.ndarray:
    # number of observed entries whose slot falls in [l, l + window]
    k = counts_k.size
    csum = np.concatenate(([0], np.cumsum(counts_k)))
    upper = np.minimum(np.arange(k) + window, k - 1)
    return csum[upper + 1] - csum[np.arange(k)]


def _ensure_finite(what: str, arr: np.ndarray) -> None:
    if not np.isfinite(arr).all():
        raise DivergenceError(f"non-finite {what}; model diverged")


def _mu_step(name, mask, old, num, den):
    # old * num / max(den, floor) where mask holds, old elsewhere
    _ensure_finite(f"accumulator in {name} update", num)
    _ensure_finite(f"accumulator in {name} update", den)
    new = np.where(mask, old * num / np.maximum(den, DENOM_FLOOR), old)
    _ensure_finite(f"{name} after the update", new)
    return new


@np.errstate(over="ignore", invalid="ignore")
def nmu_epoch(model: FactorModel, train: "SparseTensor", hp: HyperParams,
              mode: str = "att", threads: int = 1) -> FactorModel:
    """Run one full multiplicative update in place and return the model.

    Accumulator forms, all from the epoch-start snapshot with x_hat the
    snapshot prediction:

      S[i,d]: num = sum over entries of i of x * U[j,d] * z_hat[k,d]
              den = sum of x_hat * U[j,d] * z_hat[k,d] + lam * S[i,d]
      U[j,d]: symmetric over the entries of j
      Z[l,d]: over entries with slot k in [l, l + window],
              num = sum of x * S[i,d] * U[j,d] * w[k,l]
              den = sum of (x_hat * S[i,d] * U[j,d] + lam * z_hat[k,d]) * w[k,l]
      a[i]:   num = sum of x; den = sum of x_hat + lam_b * a[i]
      c[j]:   symmetric over the entries of j
      e[l]:   num = sum of x * w[k,l]
              den = sum of (x_hat + lam_b * e_hat[k]) * w[k,l]
      w[k,l] (0 < k - l <= window): over the entries of slot k,
              num = sum of sum_d x * S[i,d] * U[j,d] * Z[l,d] + x * e[l]
              den = sum of sum_d (x_hat * S[i,d] * U[j,d] + lam * z_hat[k,d]) * Z[l,d]
                    + (x_hat + lam_b * e_hat[k]) * e[l]

    Baseline mode skips the w update. Raises DivergenceError, leaving the
    model as it was, when an accumulator or an updated parameter group
    turns non-finite or the updated predictions could overflow.
    """
    if train.n_entries == 0:
        return model  # nothing observed: every entry subset is empty
    weights = model.weights
    window = weights.window
    n, n_slots = model.n_nodes, model.n_slots
    cache = compute_temporal(model)
    sums = _epoch_sums(model, cache, train, threads)

    counts_i = np.bincount(train.i, minlength=n).astype(float)
    counts_j = np.bincount(train.j, minlength=n).astype(float)
    counts_k = np.bincount(train.k, minlength=n_slots).astype(float)
    lam, lam_b = hp.lam, hp.lam_b

    den_s = sums["den_s"] + lam * model.S * counts_i[:, None]
    den_u = sums["den_u"] + lam * model.U * counts_j[:, None]
    den_a = sums["den_a"] + lam_b * model.a * counts_i
    den_c = sums["den_c"] + lam_b * model.c * counts_j
    # per-slot sums of the [Z | e] numerators (index 0) and denominators
    # (index 1), K x 2 x (D + 1); W.T carries them back to the slots they mix
    slot = np.stack((np.column_stack((sums["g_num"], sums["h_num"])),
                     np.column_stack((sums["g_den"] + lam * cache.z_hat * counts_k[:, None],
                                      sums["h_den"] + lam_b * cache.e_hat * counts_k))),
                    axis=1)
    back = weights.mix(slot, transpose=True)

    has_i = counts_i > 0
    has_j = counts_j > 0
    reach = _window_reach(counts_k, window) > 0
    new = {
        "S": _mu_step("S", has_i[:, None], model.S, sums["num_s"], den_s),
        "U": _mu_step("U", has_j[:, None], model.U, sums["num_u"], den_u),
        "Z": _mu_step("Z", reach[:, None], model.Z, back[:, 0, :-1], back[:, 1, :-1]),
        "a": _mu_step("a", has_i, model.a, sums["num_a"], den_a),
        "c": _mu_step("c", has_j, model.c, sums["num_c"], den_c),
        "e": _mu_step("e", reach, model.e, back[:, 0, -1], back[:, 1, -1]),
    }

    new_band = weights.band
    if mode == "att" and window > 0:
        # lag m pairs slot k's sums with [Z | e][k - m]; rows k < m stay 0
        ze = np.column_stack((model.Z, model.e))
        acc = np.zeros((n_slots, 2, window))
        for m in range(1, window + 1):
            acc[m:, :, m - 1] = np.einsum("ksd,kd->ks", slot[m:], ze[:-m])
        new_band = _mu_step("W", (counts_k > 0)[:, None], new_band, acc[:, 0], acc[:, 1])

    # nonnegative factors: this bounds every prediction of the updated model
    w_row = 1.0 + new_band.sum(axis=1).max()  # largest row sum of W
    peak = (model.rank * new["S"].max() * new["U"].max() * new["Z"].max() * w_row
            + new["a"].max() + new["c"].max() + new["e"].max() * w_row)
    _ensure_finite("prediction bound after the update", peak)

    for name, arr in new.items():
        setattr(model, name, arr)
    weights.band = new_band
    return model


def validation_metrics(model: FactorModel, validation) -> tuple[float, float, float]:
    """(rmse, mae, h) of the model on a held-out entry set; a score that
    overflows is inf, without a warning, and the epoch loop calls it
    divergence."""
    with np.errstate(over="ignore", invalid="ignore"):
        cache = compute_temporal(model)
        preds = predict_entries(model, cache, validation.i, validation.j, validation.k)
        pairs = np.column_stack((validation.values, preds))
        r = rmse(pairs)
        m = mae(pairs)
    return r, m, (r + m) / 2.0


def _run_epochs(step, cap, tolerance, final_hp, tuner=None) -> TrainReport:
    """The epoch loop shared by train and adapt_train.

    step() runs one epoch and returns (rmse, mae, h, h_watched): the
    validation scores to record and the H whose change is tested. The
    loop stops at the first epoch t >= 2 with |h_watched_t -
    h_watched_{t-1}| < tolerance, or after `cap` epochs. A DivergenceError
    from the step, or a non-finite score, is raised again with "epoch t: "
    in front. final_hp() gives the report's hyperparameters at the end.
    """
    traces = ([], [], [])  # rmse, mae, h
    termination = "max_epochs"
    watched_prev = None
    for epoch in range(1, cap + 1):
        try:
            *scores, watched = step()
            _ensure_finite("validation score", np.array(scores))
        except DivergenceError as exc:
            raise DivergenceError(f"epoch {epoch}: {exc}") from exc
        for trace, value in zip(traces, scores):
            trace.append(value)
        if watched_prev is not None and abs(watched - watched_prev) < tolerance:
            termination = "tolerance"
            break
        watched_prev = watched
    rmse_trace, mae_trace, h_trace = traces
    return TrainReport(
        epochs_run=len(h_trace),
        per_epoch_rmse=rmse_trace,
        per_epoch_mae=mae_trace,
        per_epoch_h=h_trace,
        cr_rmse=convergence_rounds(MetricSeries(rmse_trace, tolerance)),
        cr_mae=convergence_rounds(MetricSeries(mae_trace, tolerance)),
        termination=termination,
        final_hp=final_hp(),
        tuner=tuner,
    )


def train(model: FactorModel, train_set, validation, hp: HyperParams,
          config: TrainConfig, threads: int = 1) -> tuple[FactorModel, TrainReport]:
    """Run epochs until the validation H stalls or the epoch cap is hit.

    The input model is copied, never mutated. After each epoch the
    validation RMSE, MAE and H are recorded; training stops once
    |H_t - H_{t-1}| < tolerance (earliest at epoch 2) or at max_epochs.

    Returns:
        (trained model, report). The report's termination field is
        "tolerance" or "max_epochs". A DivergenceError names its epoch.
    """
    if validation.n_entries == 0:
        raise ValueError("empty validation set")
    model.validate()
    work = model.copy()

    def step():
        nmu_epoch(work, train_set, hp, mode=config.mode, threads=threads)
        r, m, h = validation_metrics(work, validation)
        return r, m, h, h

    return work, _run_epochs(step, config.max_epochs, config.tolerance, lambda: hp)


def analytic_gradient(model: FactorModel, entries, hp: HyperParams, coordinate) -> float:
    """Partial derivative of objective() with respect to one parameter.

    Coordinates: ("s", i, d), ("u", j, d), ("z", l, d), ("a", i),
    ("c", j), ("e", l), ("w", k, l). The z, e and w derivatives carry the
    chain-rule weight w[k,l] through the temporal contraction; w[k,l] gets
    both the feature-path and bias-path terms. Intended for verification
    on small instances, so it favors clarity over vector speed.

    Raises:
        ValueError: unknown coordinate kind or inadmissible w position.
        IndexError: coordinate index out of range.
    """
    kind = coordinate[0]
    w = model.weights.w
    window = model.weights.window
    n, n_slots, rank = model.n_nodes, model.n_slots, model.rank
    cache = compute_temporal(model)
    preds = predict_entries(model, cache, entries.i, entries.j, entries.k)
    resid = preds - entries.values  # d(eps)/d(x_hat) direction
    lam, lam_b = hp.lam, hp.lam_b

    if kind == "s":
        _, i, d = coordinate
        _check_index(i, n, "node"), _check_index(d, rank, "rank")
        pos = np.flatnonzero(entries.i == i)
        terms = resid[pos] * model.U[entries.j[pos], d] * cache.z_hat[entries.k[pos], d]
        return float(np.sum(terms) + lam * model.S[i, d] * pos.size)
    if kind == "u":
        _, j, d = coordinate
        _check_index(j, n, "node"), _check_index(d, rank, "rank")
        pos = np.flatnonzero(entries.j == j)
        terms = resid[pos] * model.S[entries.i[pos], d] * cache.z_hat[entries.k[pos], d]
        return float(np.sum(terms) + lam * model.U[j, d] * pos.size)
    if kind == "a":
        _, i = coordinate
        _check_index(i, n, "node")
        pos = np.flatnonzero(entries.i == i)
        return float(np.sum(resid[pos]) + lam_b * model.a[i] * pos.size)
    if kind == "c":
        _, j = coordinate
        _check_index(j, n, "node")
        pos = np.flatnonzero(entries.j == j)
        return float(np.sum(resid[pos]) + lam_b * model.c[j] * pos.size)
    if kind == "z":
        _, l, d = coordinate
        _check_index(l, n_slots, "slot"), _check_index(d, rank, "rank")
        out = 0.0
        for k in range(l, min(l + window, n_slots - 1) + 1):
            pos = np.flatnonzero(entries.k == k)
            inner = (resid[pos] * model.S[entries.i[pos], d] * model.U[entries.j[pos], d]
                     + lam * cache.z_hat[k, d])
            out += w[k, l] * float(np.sum(inner))
        return out
    if kind == "e":
        _, l = coordinate
        _check_index(l, n_slots, "slot")
        out = 0.0
        for k in range(l, min(l + window, n_slots - 1) + 1):
            pos = np.flatnonzero(entries.k == k)
            out += w[k, l] * float(np.sum(resid[pos] + lam_b * cache.e_hat[k]))
        return out
    if kind == "w":
        _, k, l = coordinate
        _check_index(k, n_slots, "slot"), _check_index(l, n_slots, "slot")
        if l >= k or k - l > window:
            raise ValueError(f"inadmissible temporal weight coordinate (k={k}, l={l})")
        pos = np.flatnonzero(entries.k == k)
        feat = (resid[pos, None] * model.S[entries.i[pos]] * model.U[entries.j[pos]]
                + lam * cache.z_hat[k]) @ model.Z[l]
        bias = (resid[pos] + lam_b * cache.e_hat[k]) * model.e[l]
        return float(np.sum(feat) + np.sum(bias))
    raise ValueError(f"unknown coordinate kind {kind!r}")


def _check_index(value: int, bound: int, what: str) -> None:
    if not (0 <= value < bound):
        raise IndexError(f"{what} index {value} out of range [0, {bound})")
