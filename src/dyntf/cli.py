"""Command-line entry point.

Subcommands: generate (synthetic data), split (train/validation/test
partition), train (fixed or adaptive hyperparameters), evaluate, predict.
Every run is reproducible from its flags: seeds default to 0 and are
echoed into reports, logs go to stderr, data goes to files only.

Exit codes: 0 success, 2 usage error, 3 data error, 4 numerical
divergence.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .atomic import open_atomic
from .errors import DataError, DivergenceError
# perfbench/spans.py traces rmse, mae, h_score and predict_entries under
# these names, so they stay importable from here
from .metrics import h_score, mae, rmse  # noqa: F401
from .model import (HyperParams, compute_temporal, init_positive, load_model,  # noqa: F401
                    predict, predict_entries, save_model)
from .tensor import generate_synthetic, load_coo, save_coo, split
from .trainer import TrainConfig, train, validation_metrics
from .tuner import DEAConfig, adapt_train


class UsageError(Exception):
    """Semantically invalid flag combination or value."""


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def _write_json(path, doc: dict) -> None:
    with open_atomic(path) as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _load_tensor(path, nodes, slots):
    return load_coo(path, n_nodes=nodes, n_slots=slots)


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
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True, help="COO output path")
    g.add_argument("--truth-out", help="optional ground-truth model JSON path")
    g.set_defaults(func=cmd_generate)

    s = sub.add_parser("split", help="partition a COO file into train/validation/test")
    s.add_argument("--input", required=True)
    s.add_argument("--ratios", default="7,1,2", help="comma-separated triple, default 7,1,2")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--nodes", type=int, help="N when the file has no %%dims header")
    s.add_argument("--slots", type=int, help="K when the file has no %%dims header")
    s.add_argument("--out-train", required=True)
    s.add_argument("--out-val", required=True)
    s.add_argument("--out-test", required=True)
    s.set_defaults(func=cmd_split)

    t = sub.add_parser("train", help="fit a model on a training file")
    t.add_argument("--train", required=True, dest="train_path")
    t.add_argument("--val", required=True, dest="val_path")
    t.add_argument("--nodes", type=int, help="N when the files have no %%dims header")
    t.add_argument("--slots", type=int, help="K when the files have no %%dims header")
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
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--out", required=True, help="model JSON output path")
    t.add_argument("--report", required=True, help="report JSON output path")
    t.add_argument("--threads", type=int, default=1)
    t.add_argument("--strict-sequential", action="store_true",
                   help="force the bit-exact single-thread path")
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("evaluate", help="score a model file on a test file")
    e.add_argument("--model", required=True)
    e.add_argument("--test", required=True)
    e.add_argument("--nodes", type=int, help="N when the file has no %%dims header")
    e.add_argument("--slots", type=int, help="K when the file has no %%dims header")
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
    if not (0 < args.density <= 1):
        raise UsageError("density must be in (0,1]")
    if not (0 <= args.ar < 1):
        raise UsageError("--ar must lie in [0,1)")
    if args.noise < 0:
        raise UsageError("--noise must be nonnegative")
    if args.nodes < 1 or args.slots < 1 or args.rank < 1:
        raise UsageError("--nodes, --slots and --rank must be >= 1")
    tensor, truth = generate_synthetic(
        n_nodes=args.nodes, n_slots=args.slots, true_rank=args.rank,
        density=args.density, temporal_correlation=args.ar,
        noise_scale=args.noise, seed=args.seed)
    save_coo(tensor, args.out)
    if args.truth_out:
        save_model(truth, HyperParams(0.0, 0.0), args.truth_out, extra={
            "generator": {"nodes": args.nodes, "slots": args.slots,
                          "rank": args.rank, "density": args.density,
                          "ar": args.ar, "noise": args.noise, "seed": args.seed},
        })
    _log(f"[generate] wrote {tensor.n_entries} entries to {args.out}")
    return 0


def _parse_triple(text: str):
    parts = [float(tok) for tok in text.split(",")]
    if len(parts) != 3:
        raise ValueError
    return tuple(parts)


def cmd_split(args) -> int:
    try:
        ratios = _parse_triple(args.ratios)
    except ValueError:
        raise UsageError("--ratios must be three comma-separated numbers") from None
    tensor = _load_tensor(args.input, args.nodes, args.slots)
    result = split(tensor, ratios, args.seed)
    save_coo(result.train, args.out_train)
    save_coo(result.validation, args.out_val)
    save_coo(result.test, args.out_test)
    _log(f"[split] {result.train.n_entries}/{result.validation.n_entries}/"
         f"{result.test.n_entries} entries (seed {args.seed})")
    return 0


def _parse_bounds(text: str):
    parts = [float(tok) for tok in text.split(",")]
    if len(parts) != 4:
        raise UsageError("--bounds must be four comma-separated numbers")
    return tuple(parts)


def cmd_train(args) -> int:
    fixed_given = args.lam is not None or args.lam_b is not None
    if args.adapt and fixed_given:
        raise UsageError("give either --lambda/--lambda-b or --adapt, not both")
    if not args.adapt and (args.lam is None or args.lam_b is None):
        raise UsageError("fixed training needs both --lambda and --lambda-b (or use --adapt)")
    if args.threads < 1:
        raise UsageError("--threads must be >= 1")
    if args.strict_sequential and args.threads > 1:
        raise UsageError("--strict-sequential conflicts with --threads > 1")

    train_set = _load_tensor(args.train_path, args.nodes, args.slots)
    val_set = _load_tensor(args.val_path, train_set.n_nodes, train_set.n_slots)
    if val_set.n_entries == 0:
        raise DataError("empty validation set")

    window = args.window
    if args.mode == "baseline":
        window = 0  # temporal weights stay identity
    elif window is None:
        window = train_set.n_slots - 1
    if not (0 <= window <= train_set.n_slots - 1):
        raise UsageError(f"--window must lie in [0, {train_set.n_slots - 1}]")

    init_ss, dea_ss = np.random.SeedSequence(args.seed).spawn(2)
    try:
        model = init_positive(train_set.n_nodes, train_set.n_slots, args.rank,
                              window, init_ss, scale=args.init_scale)
        tc = TrainConfig(max_epochs=args.max_epochs, tolerance=args.tol, mode=args.mode)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    threads = 1 if args.strict_sequential else args.threads

    config_echo = {
        "command": "train", "train": str(args.train_path), "val": str(args.val_path),
        "mode": args.mode, "rank": args.rank, "window": window,
        "max_epochs": args.max_epochs, "tol": args.tol,
        "init_scale": args.init_scale, "seed": args.seed,
        "threads": threads, "strict_sequential": bool(args.strict_sequential),
        "adapt": bool(args.adapt),
    }
    if args.adapt:
        bounds = _parse_bounds(args.bounds)
        try:
            dea = DEAConfig(population=args.pop, max_iterations=args.max_epochs,
                            scale_factor=args.scale_factor, crossover_prob=args.cp,
                            bounds=bounds, best_rule=args.best_rule, seed=dea_ss)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        config_echo.update({"pop": args.pop, "scale_factor": args.scale_factor,
                            "cp": args.cp, "bounds": list(bounds),
                            "best_rule": args.best_rule})
        fitted, report = adapt_train(model, train_set, val_set, dea, tc, threads=threads)
        hp_out = report.final_hp
    else:
        try:
            hp_out = HyperParams(lam=args.lam, lam_b=args.lam_b)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        config_echo.update({"lambda": args.lam, "lambda_b": args.lam_b})
        fitted, report = train(model, train_set, val_set, hp_out, tc, threads=threads)

    # report before model: a run cut between the two writes leaves no new
    # model without its report
    doc = report.to_dict()
    doc["config"] = config_echo
    _write_json(args.report, doc)
    save_model(fitted, hp_out, args.out)
    _log(f"[train] {report.epochs_run} epochs ({report.termination}), "
         f"final h={report.per_epoch_h[-1]:.6f}")
    return 0


def cmd_evaluate(args) -> int:
    model, _hp = load_model(args.model)
    if args.nodes is not None and args.nodes != model.n_nodes:
        raise DataError(f"dimension mismatch: model has N={model.n_nodes}, got --nodes {args.nodes}")
    if args.slots is not None and args.slots != model.n_slots:
        raise DataError(f"dimension mismatch: model has K={model.n_slots}, got --slots {args.slots}")
    try:
        test = _load_tensor(args.test, model.n_nodes, model.n_slots)
    except DataError as exc:
        if "out of bounds" in str(exc) or "disagrees" in str(exc):
            raise DataError(f"dimension mismatch between model and test tensor: {exc}") from exc
        raise
    if test.n_entries == 0:
        raise DataError("empty test set")
    r, m, h = validation_metrics(model, test)
    doc = {
        "rmse": r,
        "mae": m,
        "h": h,
        "n_test": test.n_entries,
        "config": {"command": "evaluate", "model": str(args.model),
                   "test": str(args.test)},
    }
    _write_json(args.report, doc)
    _log(f"[evaluate] rmse={doc['rmse']:.6f} mae={doc['mae']:.6f} on {test.n_entries} entries")
    return 0


def cmd_predict(args) -> int:
    model, _hp = load_model(args.model)
    cache = compute_temporal(model)
    try:
        value = predict(model, cache, args.i, args.j, args.k)
    except IndexError as exc:
        raise DataError(str(exc)) from exc
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
    except DivergenceError as exc:
        _log(f"error: {exc}")
        return 4


if __name__ == "__main__":
    sys.exit(main())
