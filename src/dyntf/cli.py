"""Command-line entry point.

Subcommands: generate (synthetic data), split (train/validation/test
partition), train (fixed or adaptive hyperparameters), evaluate, predict.
Every run is reproducible from its flags: seeds default to 0 and are
echoed into reports, logs go to stderr, data goes to files only.

Exit codes: 0 success, 2 usage error, 3 data error (or too little memory
for the sizes asked), 4 numerical divergence.
"""

from __future__ import annotations

import argparse
import sys
from functools import partial

import numpy as np

from .atomic import write_json
from .errors import DataError, DivergenceError
# perfbench/spans.py traces rmse, mae, h_score, compute_temporal and
# predict_entries under these names, so they stay importable from here
from .metrics import h_score, mae, rmse  # noqa: F401
from .model import (HyperParams, compute_temporal, init_positive, load_model,  # noqa: F401
                    predict, predict_entries, save_model)
from .tensor import MAX_DIM, generate_synthetic, load_coo, save_coo, split
from .trainer import TrainConfig, train, validation_metrics
from .tuner import DEAConfig, adapt_train


class UsageError(Exception):
    """Semantically invalid flag combination or value."""


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def _int_in(low: int, high, what: str, text: str) -> int:
    """argparse type: an integer in [low, high], else exit 2 naming the flag."""
    try:
        value = int(text)
    except ValueError:
        value = low - 1
    if not low <= value <= high:
        raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
    return value


_seed = partial(_int_in, 0, np.inf, "a nonnegative integer")  # the seeds numpy accepts
_positive = partial(_int_in, 1, np.inf, "a positive integer")
_dim = partial(_int_in, 1, MAX_DIM, f"a positive integer <= {MAX_DIM}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dyntf",
        description="Temporal tensor factorization for dynamic communication networks.")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a synthetic COO tensor and its ground truth")
    g.add_argument("--nodes", type=int, required=True, help="node count N")
    g.add_argument("--slots", type=int, required=True, help="temporal slot count K")
    g.add_argument("--rank", type=int, default=2, help="ground-truth rank")
    g.add_argument("--density", type=float, required=True, help="observed proportion in (0,1]")
    g.add_argument("--ar", type=float, default=0.9,
                   help="temporal autocorrelation of the ground-truth Z, in [0,1)")
    g.add_argument("--noise", type=float, default=0.01, help="observation noise scale")
    g.add_argument("--seed", type=_seed, default=0)
    g.add_argument("--out", required=True, help="COO output path")
    g.add_argument("--truth-out", help="optional ground-truth model JSON path")
    g.set_defaults(func=cmd_generate)

    s = sub.add_parser("split", help="partition a COO file into train/validation/test")
    s.add_argument("--input", required=True)
    s.add_argument("--ratios", default="7,1,2", help="comma-separated triple, default 7,1,2")
    s.add_argument("--seed", type=_seed, default=0)
    s.add_argument("--nodes", type=_dim, help="N when the file has no %%dims header")
    s.add_argument("--slots", type=_dim, help="K when the file has no %%dims header")
    s.add_argument("--out-train", required=True)
    s.add_argument("--out-val", required=True)
    s.add_argument("--out-test", required=True)
    s.set_defaults(func=cmd_split)

    t = sub.add_parser("train", help="fit a model on a training file")
    t.add_argument("--train", required=True, dest="train_path")
    t.add_argument("--val", required=True, dest="val_path")
    t.add_argument("--nodes", type=_dim, help="N when the files have no %%dims header")
    t.add_argument("--slots", type=_dim, help="K when the files have no %%dims header")
    t.add_argument("--mode", choices=("att", "baseline"), default="att")
    t.add_argument("--rank", type=int, default=20)
    t.add_argument("--window", type=int, default=None,
                   help="temporal dependence depth, default K-1 (full); baseline forces 0")
    t.add_argument("--max-epochs", type=int, default=1000)
    t.add_argument("--tol", type=float, default=1e-5)
    t.add_argument("--init-scale", type=float, default=0.1)
    t.add_argument("--lambda", type=float, dest="lam", default=None,
                   help="fixed feature regularization")
    t.add_argument("--lambda-b", type=float, dest="lam_b", default=None,
                   help="fixed bias regularization")
    t.add_argument("--adapt", action="store_true",
                   help="adapt the regularization pair instead of fixing it")
    t.add_argument("--pop", type=int, default=10, help="swarm size for --adapt")
    t.add_argument("--scale-factor", type=float, default=0.4)
    t.add_argument("--cp", type=float, default=0.9, help="crossover probability")
    t.add_argument("--bounds", default="1e-4,0.5,1e-4,0.5",
                   help="lam_min,lam_max,lam_b_min,lam_b_max")
    t.add_argument("--best-rule", choices=("argmin_h", "paper_f"), default="argmin_h")
    t.add_argument("--seed", type=_seed, default=0)
    t.add_argument("--out", required=True, help="model JSON output path")
    t.add_argument("--report", required=True, help="report JSON output path")
    t.add_argument("--threads", type=_positive, default=1,
                   help="worker threads; the output is the same bytes for every count")
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("evaluate", help="score a model file on a test file")
    e.add_argument("--model", required=True)
    e.add_argument("--test", required=True)
    e.add_argument("--report", required=True)
    e.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("predict", help="print one predicted entry")
    p.add_argument("--model", required=True)
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=cmd_predict)
    return parser


def cmd_generate(args) -> int:
    try:
        tensor, truth = generate_synthetic(
            n_nodes=args.nodes, n_slots=args.slots, true_rank=args.rank,
            density=args.density, temporal_correlation=args.ar,
            noise_scale=args.noise, seed=args.seed)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    save_coo(tensor, args.out)
    if args.truth_out:
        save_model(truth, HyperParams(0.0, 0.0), args.truth_out, extra={
            "generator": {"nodes": args.nodes, "slots": args.slots,
                          "rank": args.rank, "density": args.density,
                          "ar": args.ar, "noise": args.noise, "seed": args.seed},
        })
    _log(f"[generate] wrote {tensor.n_entries} entries to {args.out}")
    return 0


def _parse_floats(text: str, count: int, flag: str) -> tuple:
    """`count` comma-separated finite numbers, else a UsageError naming `flag`."""
    try:
        parts = tuple(float(tok) for tok in text.split(","))
    except ValueError:
        parts = ()
    if len(parts) != count or not np.isfinite(parts).all():
        raise UsageError(f"{flag} must be {count} comma-separated finite numbers")
    return parts


def cmd_split(args) -> int:
    ratios = _parse_floats(args.ratios, 3, "--ratios")
    # the loaded tensor is freed once split returns, before the parts are written
    result = split(load_coo(args.input, n_nodes=args.nodes, n_slots=args.slots), ratios,
                   args.seed)
    save_coo(result.train, args.out_train)
    save_coo(result.validation, args.out_val)
    save_coo(result.test, args.out_test)
    _log(f"[split] {result.train.n_entries}/{result.validation.n_entries}/"
         f"{result.test.n_entries} entries (seed {args.seed})")
    return 0


def cmd_train(args) -> int:
    # every flag is checked before a file is read, except init_positive's
    # rank, init-scale and window: the window's range needs K
    try:
        tc = TrainConfig(max_epochs=args.max_epochs, tolerance=args.tol)
        if args.adapt:
            if args.lam is not None or args.lam_b is not None:
                raise UsageError("give either --lambda/--lambda-b or --adapt, not both")
            bounds = _parse_floats(args.bounds, 4, "--bounds")
            fit, settings = adapt_train, DEAConfig(
                population=args.pop, scale_factor=args.scale_factor, crossover_prob=args.cp,
                bounds=bounds, best_rule=args.best_rule)
            echo = {"pop": args.pop, "scale_factor": args.scale_factor, "cp": args.cp,
                    "bounds": list(bounds), "best_rule": args.best_rule}
        else:
            if args.lam is None or args.lam_b is None:
                raise UsageError("fixed training needs both --lambda and --lambda-b "
                                 "(or use --adapt)")
            fit, settings = train, HyperParams(lam=args.lam, lam_b=args.lam_b)
            echo = {"lambda": args.lam, "lambda_b": args.lam_b}
    except ValueError as exc:
        raise UsageError(str(exc)) from exc

    train_set = load_coo(args.train_path, n_nodes=args.nodes, n_slots=args.slots)
    val_set = load_coo(args.val_path, n_nodes=train_set.n_nodes, n_slots=train_set.n_slots)
    window = 0 if args.mode == "baseline" else args.window  # baseline is window 0
    if window is None:
        window = train_set.n_slots - 1
    # numpy.random's first use; before the loads it raises the peak RSS by ~1 MB
    init_ss, dea_ss = np.random.SeedSequence(args.seed).spawn(2)
    if args.adapt:
        settings.seed = dea_ss
    try:
        model = init_positive(train_set.n_nodes, train_set.n_slots, args.rank,
                              window, init_ss, scale=args.init_scale)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    fitted, report = fit(model, train_set, val_set, settings, tc, threads=args.threads)

    # report before model: a run cut between the two writes leaves no new
    # model without its report
    write_json(args.report, {**report.to_dict(), "config": {
        "command": "train", "train": str(args.train_path), "val": str(args.val_path),
        "mode": args.mode, "rank": args.rank, "window": window,
        "max_epochs": args.max_epochs, "tol": args.tol,
        "init_scale": args.init_scale, "seed": args.seed,
        "threads": args.threads, "adapt": bool(args.adapt), **echo}})
    save_model(fitted, report.final_hp, args.out)
    _log(f"[train] {report.epochs_run} epochs ({report.termination}), "
         f"final h={report.per_epoch_h[-1]:.6f}")
    return 0


def cmd_evaluate(args) -> int:
    model, _hp = load_model(args.model)
    try:
        test = load_coo(args.test, n_nodes=model.n_nodes, n_slots=model.n_slots)
    except DataError as exc:
        if "out of bounds" in str(exc) or "disagrees" in str(exc):
            raise DataError(f"dimension mismatch between model and test tensor: {exc}") from exc
        raise
    if test.n_entries == 0:
        raise DataError("empty test set")
    r, m, h = validation_metrics(model, test)
    scores = {"rmse": r, "mae": m, "h": h}
    bad = ", ".join(f"{name}={v}" for name, v in scores.items() if not np.isfinite(v))
    if bad:
        raise DataError(f"non-finite test scores ({bad}); the model's errors overflow")
    doc = {
        **scores,
        "n_test": test.n_entries,
        "config": {"command": "evaluate", "model": str(args.model),
                   "test": str(args.test)},
    }
    write_json(args.report, doc)
    _log(f"[evaluate] rmse={doc['rmse']:.6f} mae={doc['mae']:.6f} on {test.n_entries} entries")
    return 0


def cmd_predict(args) -> int:
    model, _hp = load_model(args.model)
    cell = (args.i, args.j, args.k)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            value = predict(model, *cell)
    except IndexError as exc:
        raise DataError(str(exc)) from exc
    if not np.isfinite(value):
        raise DataError(f"non-finite prediction {value} at cell {cell}; the model overflows")
    print(repr(value))
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse prints its own message
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except UsageError as exc:
        _log(f"error: {exc}")
        return 2
    except (DataError, ValueError, OSError) as exc:
        _log(f"error: {exc}")
        return 3
    except MemoryError as exc:  # a failed Python allocation carries no message
        _log(f"error: {str(exc) or 'out of memory'}")
        return 3
    except DivergenceError as exc:
        _log(f"error: {exc}")
        return 4


if __name__ == "__main__":
    sys.exit(main())
