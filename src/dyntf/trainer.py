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

The accumulation is a reduction over observed entries. `_epoch_sums`
predicts every entry once, gathering rows into two 256 KiB buffers
(`model._predict_blocks`), then sums one latent column at a time: one
`np.bincount` per column, group and weight adds the entries into their
rows in entry order, as an unchunked `np.add.at` does, so the sums need
no chunk grid or merge to fix their order and equal that reference bit
for bit. The columns 0 .. rank (the last sums the biases) are cut into at
most `threads` runs, which `_ordered_map`, the one place dyntf starts
threads (the tuner's swarm uses it too), runs on at most rank + 1
threads, each call in a copy of the caller's context (numpy's error state
with it); one thread sums a whole column, so the thread count changes no
byte. Each run is one item: its columns and two buffers of one
float per entry (16 B an entry, once per epoch) that the caller allocates.
It writes its rows of the six (rank + 1, groups) totals. The entry arrays
are read from the tensor's writable owners (`_columns`): numpy copies a
read-only argument of np.take or np.bincount per call. The trained model
is then written field by field, its arrays in blocks (`save_model`).

`train` and the tuner's `adapt_train` are steps of one epoch loop,
`_run_epochs`, which records the scores, stops and builds the report.
Every epoch updates the W band; the non-temporal baseline is window 0,
whose (K, 0) band makes that update a no-op.
"""

from __future__ import annotations

import contextvars
import operator
import threading
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError
from .metrics import convergence_rounds, mae, rmse
from .model import (FactorModel, HyperParams, _predict_blocks, compute_temporal,
                    predict_entries)

DENOM_FLOOR = 1e-12  # smallest denominator a multiplicative step divides by


@dataclass
class TrainConfig:
    """Knobs for the training loop: the epoch cap and the H-change
    tolerance. Whether W is learned is the model's window, not a knob."""

    max_epochs: int = 1000
    tolerance: float = 1e-5

    def __post_init__(self):
        self.max_epochs = operator.index(self.max_epochs)  # 2.5 fails here, not in range()
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")
        if not (0 <= self.tolerance < np.inf):
            raise ValueError("tolerance must be finite and nonnegative")


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


def _ordered_map(fn, items, threads):
    """[fn(item) for item in items]; at T = min(threads, len(items)) >= 2, item p runs
    on thread p mod T in a copy of the caller's context (numpy's error state with it).
    A thread stops at its first exception; the first in item order raises."""
    n_threads = min(threads, len(items))
    if n_threads < 2:
        return [fn(item) for item in items]
    context = contextvars.copy_context()  # a new thread starts with an empty one
    results, errors = [None] * len(items), {}

    def work(first):
        try:
            for p in range(first, len(items), n_threads):
                results[p] = context.copy().run(fn, items[p])
        except BaseException as exc:
            errors[p] = exc

    workers = [threading.Thread(target=work, args=(t,)) for t in range(n_threads)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    if errors:
        raise errors[min(errors)]  # every earlier item on its thread has run
    return results


def _epoch_sums(model, z_hat, e_hat, data, threads):
    ii, jj, kk, x = data._columns  # writable, so numpy copies none of them per call
    rank = model.rank
    pred = _predict_blocks(model, z_hat, e_hat, ii, jj, kk)
    # each group's index, size and the two factors whose product are its rows:
    # U[j] * z_hat[k] for S, S[i] * z_hat[k] for U, S[i] * U[j] for Z
    groups = {"s": (ii, model.n_nodes, (model.U, jj), (z_hat, kk)),
              "u": (jj, model.n_nodes, (model.S, ii), (z_hat, kk)),
              "z": (kk, model.n_slots, (model.S, ii), (model.U, jj))}
    # total[d, g] = sum of weight[n] * rows[n, d] over the n with idx[n] == g, in
    # entry order; row `rank` sums weight[n] alone (the bias)
    totals = {kind + group: np.empty((rank + 1, size))
              for group, (_, size, *_) in groups.items() for kind in ("num_", "den_")}

    def run(item):
        columns, rows, weighted = item
        for d in columns:
            for group, (idx, size, (f, fi), (g, gi)) in groups.items():
                if d < rank:
                    # "clip" writes into `out` ("raise" buffers it); it clips nothing,
                    # as _mu_terms checks that the tensor fits the model
                    np.take(f[:, d], fi, out=rows, mode="clip")
                    rows *= np.take(g[:, d], gi, out=weighted, mode="clip")
                for weight, kind in ((x, "num_"), (pred, "den_")):
                    if d < rank:  # the bias column sums the weight alone
                        weight = np.multiply(weight, rows, out=weighted)
                    totals[kind + group][d] = np.bincount(idx, weights=weight, minlength=size)

    # each column is one thread's, so no sum depends on the thread count. Each
    # run's two length-n buffers are allocated on this thread: allocated in the
    # workers, they raised wide's train peak RSS by about 4.5 MB
    runs = [(columns, np.empty(len(x)), np.empty(len(x)))
            for columns in np.array_split(np.arange(rank + 1), min(threads, rank + 1))]
    _ordered_map(run, runs, len(runs))  # each run writes its rows of the totals
    return {key: total.T for key, total in totals.items()}


def _ensure_finite(what: str, arr: np.ndarray) -> None:
    if not np.isfinite(arr).all():
        raise DivergenceError(f"non-finite {what}; model diverged")


def _mu_terms(model: FactorModel, data, hp: HyperParams, threads: int) -> dict:
    """{group: (num, den, mask)} for S, U, Z, a, c, e and the W band over the
    entries of `data`, mixing W once. den - num is the gradient of
    objective(); mask marks the parameters some entry reaches, and den - num
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
    if data.n_nodes > n or data.n_slots > n_slots:
        raise ValueError(f"a tensor of N={data.n_nodes}, K={data.n_slots} does not fit "
                         f"a model of N={n}, K={n_slots}")
    z_hat, e_hat = compute_temporal(model)
    sums = _epoch_sums(model, z_hat, e_hat, data, threads)
    counts_i, counts_j, counts_k = (np.bincount(idx, minlength=size).astype(float)
                                    for idx, size in zip(data._columns, (n, n, n_slots)))
    lam, lam_b = hp.lam, hp.lam_b
    # each group's sums are (groups, D + 1): its row sums, then its bias sum.
    # Per-slot sums of the [Z | e] numerators (index 0) and denominators
    # (index 1), K x 2 x (D + 1); W.T carries them back to the slots they mix.
    # Popped, so the z totals are freed once stacked
    slot = np.stack((sums.pop("num_z"), sums.pop("den_z")), axis=1)
    slot[:, 1, :-1] += lam * z_hat * counts_k[:, None]
    slot[:, 1, -1] += lam_b * e_hat * counts_k
    back = slot.copy()
    for m in range(1, window + 1):  # fused with the band loop below, both ran 6-18 % slower
        back[:-m] += model.W[m:, m - 1, None, None] * slot[m:]
    # lag m pairs slot k's sums with [Z | e][k - m]; rows k < m stay 0
    ze = np.column_stack((model.Z, model.e))
    band = np.zeros((n_slots, 2, window))
    for m in range(1, window + 1):
        band[m:, :, m - 1] = np.einsum("ksd,kd->ks", slot[m:], ze[:-m])

    has_i, has_j = counts_i > 0, counts_j > 0
    # Z[l] and e[l] are reached when some entry's slot lies in [l, l + window]
    csum = np.concatenate(([0], np.cumsum(counts_k)))
    reach = csum[np.minimum(np.arange(n_slots) + window + 1, n_slots)] > csum[:-1]
    num_s, den_s, num_u, den_u = (sums[name] for name in ("num_s", "den_s", "num_u", "den_u"))
    return {
        "S": (num_s[:, :-1], den_s[:, :-1] + lam * model.S * counts_i[:, None], has_i[:, None]),
        "U": (num_u[:, :-1], den_u[:, :-1] + lam * model.U * counts_j[:, None], has_j[:, None]),
        "Z": (back[:, 0, :-1], back[:, 1, :-1], reach[:, None]),
        "a": (num_s[:, -1], den_s[:, -1] + lam_b * model.a * counts_i, has_i),
        "c": (num_u[:, -1], den_u[:, -1] + lam_b * model.c * counts_j, has_j),
        "e": (back[:, 0, -1], back[:, 1, -1], reach),
        "W": (band[:, 0], band[:, 1], (counts_k > 0)[:, None]),
    }


# divergence shows up as inf/nan accumulators and is reported through
# DivergenceError, so the FP warnings of the three public entry points are noise
@np.errstate(over="ignore", invalid="ignore")
def nmu_epoch(model: FactorModel, train: "SparseTensor", hp: HyperParams, *,
              threads: int = 1) -> FactorModel:
    """Run one full multiplicative update in place and return the model.

    Every group, the W band included, takes theta * num / max(den,
    DENOM_FLOOR) from the terms of `_mu_terms`; at window 0 the band is
    (K, 0) and W stays the identity. Raises DivergenceError, leaving the
    model as it was, when a term or an updated group turns non-finite or
    the updated predictions could overflow.
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    terms = _mu_terms(model, train, hp, threads)
    old = {name: getattr(model, name) for name in terms}
    new = {}
    for name, (num, den, mask) in terms.items():
        _ensure_finite(f"accumulator in {name} update", num)
        _ensure_finite(f"accumulator in {name} update", den)
        # old * num / max(den, floor) where mask holds, old elsewhere
        new[name] = np.where(mask, old[name] * num / np.maximum(den, DENOM_FLOOR), old[name])
        _ensure_finite(f"{name} after the update", new[name])

    # nonnegative factors: this bounds every prediction of the updated model
    w_row = 1.0 + new["W"].sum(axis=1).max()  # largest row sum of W
    peak = (model.rank * new["S"].max() * new["U"].max() * new["Z"].max() * w_row
            + new["a"].max() + new["c"].max() + new["e"].max() * w_row)
    _ensure_finite("prediction bound after the update", peak)

    for name, arr in new.items():
        setattr(model, name, arr)
    return model


@np.errstate(over="ignore", invalid="ignore")
def validation_metrics(model: FactorModel, validation) -> tuple[float, float, float]:
    """(rmse, mae, h) of the model on a held-out entry set; a score that
    overflows is inf, without a warning, and the epoch loop calls it
    divergence."""
    preds = predict_entries(model, validation.i, validation.j, validation.k)
    pairs = np.column_stack((validation.values, preds))
    r, m = rmse(pairs), mae(pairs)
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
        nmu_epoch(work, train_set, hp, threads=threads)
        r, m, h = validation_metrics(work, validation)
        return r, m, h, h

    return work, _run_epochs(step, config.max_epochs, config.tolerance, lambda: hp)


@np.errstate(over="ignore", invalid="ignore")
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
    num, den, _ = _mu_terms(model, entries, hp, 1)[group]
    return float(den[tuple(index)] - num[tuple(index)])
