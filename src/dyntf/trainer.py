"""Multiplicative-update training for the temporal factor model.

One epoch performs a simultaneous (Jacobi) multiplicative update: every
numerator and denominator is accumulated from the epoch-start parameter
snapshot, then all parameters are replaced at once. For a parameter theta
with gradient written as (denominator terms) - (numerator terms), the
learning rate theta / denominator turns the additive step into

    theta <- theta * numerator / max(denominator, DENOM_FLOOR)

which preserves nonnegativity. Parameters touched by no observed entry
keep their value. `_mu_terms` computes every numerator and denominator;
`analytic_gradient` is den - num of those same terms, so a finite-
difference check of it checks the code that trains.

The accumulation is a reduction over observed entries. Entries are
processed in fixed-size chunks whose partial sums are combined in chunk
order, so the result is bit-identical whether chunks run on one thread or
several. `_ordered_map`, the one place dyntf starts threads (the tuner's
swarm uses it too), runs them; `threads` only sets how many are in flight.
The chunk size is a constant, never derived from `threads` or the machine:
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
from .metrics import convergence_rounds, mae, rmse
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
        if not (0 <= self.tolerance < np.inf):
            raise ValueError("tolerance must be finite and nonnegative")
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
def _chunk_sums(model, z_hat, e_hat, data, lo, hi):
    ii = data.i[lo:hi]
    jj = data.j[lo:hi]
    kk = data.k[lo:hi]
    x = data.values[lo:hi]
    si = model.S[ii]
    uj = model.U[jj]
    zk = z_hat[kk]
    su = si * uj
    pred = predict_rows(su, zk, model.a[ii], model.c[jj], e_hat[kk])
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


def _ordered_map(fn, items, threads):
    """Yield fn(item) for every item, in item order; the calls run on a pool
    of `threads` workers only when threads > 1 and there are several items."""
    if threads > 1 and len(items) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            yield from pool.map(fn, items)
    else:
        yield from map(fn, items)


def _epoch_sums(model, z_hat, e_hat, data, threads):
    bounds = [(lo, min(lo + _CHUNK, data.n_entries))
              for lo in range(0, data.n_entries, _CHUNK)]
    return _merge_in_order(_ordered_map(lambda b: _chunk_sums(model, z_hat, e_hat, data, *b),
                                        bounds, threads))


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


@np.errstate(over="ignore", invalid="ignore")
def _mu_terms(model: FactorModel, data, hp: HyperParams, threads: int) -> dict:
    """{group: (num, den, mask)} for S, U, Z, a, c, e and the W band over the
    entries of `data` (at least one), mixing W once. den - num is the gradient
    of objective(); mask marks the parameters some entry reaches, and den - num
    is 0 elsewhere. With x_hat the current prediction:

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
    """
    n, n_slots, window = model.n_nodes, model.n_slots, model.window
    z_hat, e_hat = compute_temporal(model)
    sums = _epoch_sums(model, z_hat, e_hat, data, threads)
    counts_i = np.bincount(data.i, minlength=n).astype(float)
    counts_j = np.bincount(data.j, minlength=n).astype(float)
    counts_k = np.bincount(data.k, minlength=n_slots).astype(float)
    lam, lam_b = hp.lam, hp.lam_b

    # per-slot sums of the [Z | e] numerators (index 0) and denominators
    # (index 1), K x 2 x (D + 1); W.T carries them back to the slots they mix
    slot = np.stack((np.column_stack((sums["g_num"], sums["h_num"])),
                     np.column_stack((sums["g_den"] + lam * z_hat * counts_k[:, None],
                                      sums["h_den"] + lam_b * e_hat * counts_k))),
                    axis=1)
    back = model.weights.mix(slot, transpose=True)
    # lag m pairs slot k's sums with [Z | e][k - m]; rows k < m stay 0
    ze = np.column_stack((model.Z, model.e))
    band = np.zeros((n_slots, 2, window))
    for m in range(1, window + 1):
        band[m:, :, m - 1] = np.einsum("ksd,kd->ks", slot[m:], ze[:-m])

    has_i, has_j = counts_i > 0, counts_j > 0
    reach = _window_reach(counts_k, window) > 0
    return {
        "S": (sums["num_s"], sums["den_s"] + lam * model.S * counts_i[:, None], has_i[:, None]),
        "U": (sums["num_u"], sums["den_u"] + lam * model.U * counts_j[:, None], has_j[:, None]),
        "Z": (back[:, 0, :-1], back[:, 1, :-1], reach[:, None]),
        "a": (sums["num_a"], sums["den_a"] + lam_b * model.a * counts_i, has_i),
        "c": (sums["num_c"], sums["den_c"] + lam_b * model.c * counts_j, has_j),
        "e": (back[:, 0, -1], back[:, 1, -1], reach),
        "W": (band[:, 0], band[:, 1], (counts_k > 0)[:, None]),
    }


@np.errstate(over="ignore", invalid="ignore")
def nmu_epoch(model: FactorModel, train: "SparseTensor", hp: HyperParams,
              mode: str = "att", threads: int = 1) -> FactorModel:
    """Run one full multiplicative update in place and return the model.

    Every group takes theta * num / max(den, DENOM_FLOOR) from the terms of
    `_mu_terms`; baseline mode skips W. Raises DivergenceError, leaving the
    model as it was, when a term or an updated group turns non-finite or
    the updated predictions could overflow.
    """
    if train.n_entries == 0:
        return model  # nothing observed: every entry subset is empty
    terms = _mu_terms(model, train, hp, threads)
    if mode != "att":
        del terms["W"]
    old = {"S": model.S, "U": model.U, "Z": model.Z, "a": model.a, "c": model.c,
           "e": model.e, "W": model.weights.band}
    new = {}
    for name, (num, den, mask) in terms.items():
        _ensure_finite(f"accumulator in {name} update", num)
        _ensure_finite(f"accumulator in {name} update", den)
        # old * num / max(den, floor) where mask holds, old elsewhere
        new[name] = np.where(mask, old[name] * num / np.maximum(den, DENOM_FLOOR), old[name])
        _ensure_finite(f"{name} after the update", new[name])
    new_band = new.pop("W", model.weights.band)

    # nonnegative factors: this bounds every prediction of the updated model
    w_row = 1.0 + new_band.sum(axis=1).max()  # largest row sum of W
    peak = (model.rank * new["S"].max() * new["U"].max() * new["Z"].max() * w_row
            + new["a"].max() + new["c"].max() + new["e"].max() * w_row)
    _ensure_finite("prediction bound after the update", peak)

    for name, arr in new.items():
        setattr(model, name, arr)
    model.weights.band = new_band
    return model


def validation_metrics(model: FactorModel, validation) -> tuple[float, float, float]:
    """(rmse, mae, h) of the model on a held-out entry set; a score that
    overflows is inf, without a warning, and the epoch loop calls it
    divergence."""
    with np.errstate(over="ignore", invalid="ignore"):
        preds = predict_entries(model, validation.i, validation.j, validation.k)
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
        cr_rmse=convergence_rounds(rmse_trace, tolerance),
        cr_mae=convergence_rounds(mae_trace, tolerance),
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
    ("c", j), ("e", l), ("w", k, l). Every multiplicative-update ratio
    splits the gradient as den - num, so the value is read from the terms
    nmu_epoch trains with; checking it against finite differences checks
    those terms.

    Raises:
        ValueError: unknown coordinate kind or inadmissible w position.
        IndexError: coordinate index out of range.
    """
    n, n_slots, rank = model.n_nodes, model.n_slots, model.rank
    groups = {"s": ("S", n, rank), "u": ("U", n, rank), "z": ("Z", n_slots, rank),
              "a": ("a", n), "c": ("c", n), "e": ("e", n_slots),
              "w": ("W", n_slots, n_slots)}
    kind, *index = coordinate
    if kind not in groups or len(index) != len(groups[kind]) - 1:
        raise ValueError(f"unknown coordinate {coordinate!r}")
    group, *bounds = groups[kind]
    for value, bound in zip(index, bounds):
        if not (0 <= value < bound):
            raise IndexError(f"index {value} of {coordinate!r} out of range [0, {bound})")
    if kind == "w":
        k, l = index
        if l >= k or k - l > model.window:
            raise ValueError(f"inadmissible temporal weight coordinate (k={k}, l={l})")
        index = [k, k - l - 1]  # its band slot
    if entries.n_entries == 0:
        return 0.0
    num, den, _ = _mu_terms(model, entries, hp, 1)[group]
    return float(den[tuple(index)] - num[tuple(index)])
