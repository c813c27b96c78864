"""Hash the outputs of a fixed set of dyntf runs, to compare two checkouts.

    python3 tools/bytecheck.py --out DIR [--root CHECKOUT] > hashes.txt

Runs the CLI of CHECKOUT's `src/` (default: the checkout holding this
file), each command in a fresh process whose working directory is DIR, so
every path a report echoes is relative and the same for any checkout.
Prints one `sha256  name` line per output file, in run order, and one
`exit N  <last stderr line>  <label>` line per refused command (followed
by the names of any files it left).

The runs:
- fixtures: generate with truth (N 60, K 30, rank 3, density 0.1), split,
  six trainings at `--threads` 1 and 2 (fixed window 5 `--tol 0`,
  `--adapt --pop 5`, paper_f with `--tol 0.05`, paper_f with pop 4,
  `--mode baseline`, `--window 3 --tol 0`), evaluate of a trained model
  and of the truth model, and `predict --i 3 --j 14 --k 6`;
- refusals: commands that must fail (REFUSALS), run after the fixtures in
  the same directory, so a diff shows each exit code or message a change
  moves;
- the benchmark shapes at seed 9001: each workload's input from
  perfbench/gen.py, its split parts, and its model, train report and
  evaluate report at `--threads` 1 and 2, with the command lines of
  perfbench/run.py (imported, never written).

Two checkouts give the same bytes when the outputs of

    python3 tools/bytecheck.py --root PARENT --out a > a.txt
    python3 tools/bytecheck.py --out b > b.txt
    diff a.txt b.txt

agree. Any fixture or benchmark command that fails stops the run with its
exit code and stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys

BENCH_SEED = 9001
THREADS = (1, 2)
FIXTURE_TRAIN = ["--rank", "3", "--seed", "1", "--max-epochs", "40"]
FIXED = ["--lambda", "0.01", "--lambda-b", "0.01"]
FITS = {
    "fixed": [*FIXED, "--window", "5", "--tol", "0"],
    "adapt": ["--adapt", "--pop", "5"],
    "paper_f_tol": ["--adapt", "--pop", "5", "--best-rule", "paper_f", "--tol", "0.05"],
    "paper_f_pop4": ["--adapt", "--pop", "4", "--best-rule", "paper_f"],
    "baseline": [*FIXED, "--mode", "baseline"],
    "window3": [*FIXED, "--window", "3", "--tol", "0"],
}
SPLIT_OUT = ["--out-train", "no-tr.coo", "--out-val", "no-va.coo", "--out-test", "no-te.coo"]
TRAIN_IO = ["--train", "tr.coo", "--val", "va.coo", "--out", "no.model.json",
            "--report", "no.report.json"]
REFUSALS = {
    "split --ratios=-1,1,1": ["split", "--input", "data.coo", "--ratios=-1,1,1", *SPLIT_OUT],
    "split --input missing.coo --ratios=0,0,0":
        ["split", "--input", "missing.coo", "--ratios=0,0,0", *SPLIT_OUT],
    "split --ratios 1,0,0": ["split", "--input", "data.coo", "--ratios", "1,0,0", *SPLIT_OUT],
    "train --adapt --bounds 1,2,3": ["train", *TRAIN_IO, "--adapt", "--bounds", "1,2,3"],
    "train --adapt --bounds a,b,c,d": ["train", *TRAIN_IO, "--adapt", "--bounds", "a,b,c,d"],
    "train --max-epochs 0": ["train", *TRAIN_IO, *FIXED, "--max-epochs", "0"],
    "train --threads 0": ["train", *TRAIN_IO, *FIXED, "--threads", "0"],
    "evaluate missing.coo": ["evaluate", "--model", "fixed-t1.model.json", "--test",
                             "missing.coo", "--report", "no.eval.json"],
    "predict --i 99": ["predict", "--model", "fixed-t1.model.json",
                       "--i", "99", "--j", "0", "--k", "0"],
}


class Checkout:
    """Runs one checkout's CLI inside the output directory and hashes what it writes."""

    def __init__(self, root: str, out: str):
        self.out = out
        self.env = {**os.environ, "PYTHONPATH": os.path.join(root, "src")}

    def run(self, *args) -> subprocess.CompletedProcess:
        argv = [sys.executable, "-m", "dyntf.cli", *map(str, args)]
        return subprocess.run(argv, cwd=self.out, env=self.env, capture_output=True, text=True)

    def cli(self, *args) -> str:
        proc = self.run(*args)
        if proc.returncode:
            sys.exit(f"exit {proc.returncode}: {' '.join(map(str, args))}\n{proc.stderr}")
        return proc.stdout

    def show(self, *names: str) -> None:
        for name in names:
            with open(os.path.join(self.out, name), "rb") as fh:
                print(f"{hashlib.sha256(fh.read()).hexdigest()}  {name}", flush=True)


def fixtures(checkout: Checkout) -> None:
    checkout.cli("generate", "--nodes", 60, "--slots", 30, "--rank", 3, "--density", 0.1,
            "--seed", 1, "--out", "data.coo", "--truth-out", "truth.json")
    checkout.show("data.coo", "truth.json")
    checkout.cli("split", "--input", "data.coo", "--seed", 1, "--out-train", "tr.coo",
            "--out-val", "va.coo", "--out-test", "te.coo")
    checkout.show("tr.coo", "va.coo", "te.coo")
    for fit, flags in FITS.items():
        for t in THREADS:
            model, report = f"{fit}-t{t}.model.json", f"{fit}-t{t}.report.json"
            checkout.cli("train", "--train", "tr.coo", "--val", "va.coo", *FIXTURE_TRAIN, *flags,
                    "--threads", t, "--out", model, "--report", report)
            checkout.show(model, report)
    for model, report in (("fixed-t1.model.json", "eval-fixed.json"),
                          ("truth.json", "eval-truth.json")):
        checkout.cli("evaluate", "--model", model, "--test", "te.coo", "--report", report)
        checkout.show(report)
    with open(os.path.join(checkout.out, "predict.txt"), "w", encoding="utf-8") as fh:
        fh.write(checkout.cli("predict", "--model", "fixed-t1.model.json",
                         "--i", 3, "--j", 14, "--k", 6))
    checkout.show("predict.txt")


def refusals(checkout: Checkout) -> None:
    for label, args in REFUSALS.items():
        before = set(os.listdir(checkout.out))
        proc = checkout.run(*args)
        last = (proc.stderr.splitlines() or [""])[-1]
        wrote = sorted(set(os.listdir(checkout.out)) - before)  # a refusal writes no file
        print(f"exit {proc.returncode}  {last}  {label}" + (f"  wrote {wrote}" if wrote else ""),
              flush=True)


def bench_shapes(checkout: Checkout, perfbench: str) -> None:
    sys.path.insert(0, perfbench)
    import run as bench  # perfbench/run.py, read only

    for name, spec in bench.WORKLOADS.items():
        inp = f"{name}.coo"
        bench.gen.make_input(os.path.join(checkout.out, inp), spec["nodes"], spec["slots"],
                             spec["entries"], BENCH_SEED)
        checkout.show(inp)
        f = {p: f"{name}.{p}" for p in ("train.coo", "val.coo", "test.coo")}
        checkout.cli(*bench.split_args(inp, BENCH_SEED, f))
        checkout.show(*f.values())
        for t in THREADS:
            f.update({p: f"{name}.t{t}.{p}" for p in ("model.json", "report.json", "eval.json")})
            checkout.cli(*bench.train_args(spec, t, f))
            checkout.cli("evaluate", "--model", f["model.json"], "--test", f["test.coo"],
                    "--report", f["eval.json"])
            checkout.show(f["model.json"], f["report.json"], f["eval.json"])


def main(argv=None) -> int:
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="output directory (created if missing)")
    parser.add_argument("--root", default=here, help="checkout whose src/ runs")
    args = parser.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)
    checkout = Checkout(os.path.abspath(args.root), os.path.abspath(args.out))
    fixtures(checkout)
    refusals(checkout)
    bench_shapes(checkout, os.path.join(os.path.abspath(args.root), "perfbench"))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
