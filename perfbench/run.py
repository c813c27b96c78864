"""dyntf benchmark: the CLI pipeline split -> train -> evaluate, end to end.

    python3 perfbench/run.py --workload wide --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; dyntf is imported from `src/`.
Set-up writes the workload's COO input (and a small input for the
thread-count check) from the seed with perfbench/gen.py. Every CLI
command then runs in a fresh child process (perfbench/child.py) with
OPENBLAS_NUM_THREADS=OMP_NUM_THREADS=1, so `--threads` is the only
parallelism. Pipelines repeat until `--seconds` is used up.

With `--trace 0` the last stdout line carries the end-to-end metrics
(medians over the pipelines of the run). With `--trace 1` untraced and
traced pipelines alternate and the last line carries the per-layer
metrics computed from the traced pipelines' spans (see perfbench/spans.py
and MOVES below). Metric names and units come from BENCHMARK.json.
Lines before the last one give the environment, the
inputs, each metric's median, tail percentile and sample count, and the
correctness checks. Scratch files live under .bench_work/ and the run's
own directory there is removed at exit.

Correctness checks, each one operation next to the CLI commands:
every command exits 0; model.json has one sha256 across the run's
pipelines (traced or not) and equals a threads-1 run on a small input of
the same shape class; test_h is finite, identical across pipelines, and
scored on the expected number of test entries; on a traced run, every
traced name exists in this dyntf and every layer the workload runs shows
up in the spans (a layer that does not is left out of the metrics).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED_ENV)  # before numpy loads its BLAS in this process

import gen  # noqa: E402  (needs the pinned environment above)
from spans import TARGETS  # noqa: E402

RATIOS = "7,1,2"
# the training seed is a fixed flag like the lambdas: the run's --seed picks
# the sample (positions, noise, split), so test_h compares like with like
TRAIN_SEED = "1"
LAMBDAS = ["--lambda", "0.01", "--lambda-b", "0.01"]
# a run must end within 180 s even when a child hangs
RUN_LIMIT_S = 170

# Why each workload exists and which layer it stresses or bypasses is in
# BENCHMARK.json; `small` is the input of the threads-1 determinism check.
# The wide small case keeps more than one 32768-entry accumulator chunk in
# its training part so the chunk-parallel path runs. The dense K x K W and the
# DE swarm share one workload, longK_tune, so that two workloads cover every
# layer and each run is long enough to average out time-varying load on a
# shared host.
WORKLOADS = {
    "wide": {"nodes": 2000, "slots": 50, "entries": 150_000, "threads": 2,
             "train": ["--rank", "20", "--window", "49", *LAMBDAS, "--max-epochs", "10"],
             "small": {"nodes": 400, "slots": 50, "entries": 50_000},
             "trace_threads_1": True},
    "longK_tune": {"nodes": 200, "slots": 2000, "entries": 60_000, "threads": 2,
                   "train": ["--rank", "10", "--window", "3", "--adapt", "--pop", "4",
                             "--max-epochs", "5"],
                   "small": {"nodes": 60, "slots": 500, "entries": 10_000},
                   "trace_threads_1": False},
}

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as _fh:
    _BENCHMARK = json.load(_fh)
END_TO_END = {m["name"]: m["unit"] for m in _BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _BENCHMARK["per_layer"]}

# which end-to-end metric, on which workload, each layer's metrics should move
MOVES = {
    "tensor": "split_s and pipeline_s on wide; longK_tune roughly unchanged",
    "model": "train_s and peak_rss_mb on longK_tune; flat on wide",
    "trainer": "train_s on wide; per-epoch fixed costs move train_s on longK_tune",
    "tuner": "train_s on longK_tune only",
    "metrics": "train_s on longK_tune (every epoch is scored), slightly",
    "cli": "pipeline_s everywhere, only slightly",
    "trace": "nothing: the cost of the spans themselves",
}
# "_s" is the summed time of the layer's calls in one traced pipeline, except
# trainer.nmu_epoch_s and _self_s, which are per-call medians. Self times are
# exact only when every child span is recorded, so these two are left out as
# soon as any span is absent.
NEEDS_ALL_SPANS = ("trainer.nmu_epoch_self_s", "cli.self_s")


def sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class Run:
    """One benchmark invocation: its scratch directory, children and tallies."""

    def __init__(self, root: str, work: str):
        self.root = root
        self.work = work
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), **PINNED_ENV)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(f"FAILED check: {what}")
        return ok

    def command(self, args: list[str], trace: bool, run_id: str) -> dict | None:
        """Run one CLI command in a child; None when it fails."""
        self.attempted += 1
        result_path = os.path.join(self.work, "child.json")
        log_path = os.path.join(self.work, "child.log")
        argv = [sys.executable, CHILD, result_path, run_id, "1" if trace else "0",
                *[str(a) for a in args]]
        with open(log_path, "wb") as log:
            t0 = time.monotonic()
            proc = subprocess.Popen(argv, cwd=self.root, env=self.env,
                                    stdout=subprocess.DEVNULL, stderr=log)
            # a blocking wait returns the moment the child exits; wait(timeout)
            # would poll and round every wall time up to 50 ms steps
            watchdog = threading.Timer(max(1.0, self.deadline - t0), proc.kill)
            watchdog.start()
            try:
                rc = proc.wait()
            finally:
                watchdog.cancel()
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
            wall = time.monotonic() - t0
        result = None
        if rc == 0 and os.path.exists(result_path):
            with open(result_path, encoding="utf-8") as fh:
                result = json.load(fh)
            os.remove(result_path)
        if result is None or result["code"] != 0:
            self.failed += 1
            with open(log_path, encoding="utf-8", errors="replace") as fh:
                tail = fh.read()[-400:].strip()
            self.notes.append(f"FAILED command {args[:1]} rc={rc}: {tail}")
            return None
        result["wall_s"] = wall
        result["setup_s"] = result["t_import"] - t0
        return result


def paths(run: Run, tag: str) -> dict:
    return {p: os.path.join(run.work, f"{tag}.{p}") for p in
            ("train.coo", "val.coo", "test.coo", "model.json", "report.json", "eval.json")}


def split_args(inp: str, seed: int, f: dict) -> list:
    return ["split", "--input", inp, "--ratios", RATIOS, "--seed", seed,
            "--out-train", f["train.coo"], "--out-val", f["val.coo"],
            "--out-test", f["test.coo"]]


def train_args(spec: dict, threads: int, f: dict) -> list:
    # --tol 0: every run spends the same fixed epoch budget
    return ["train", "--train", f["train.coo"], "--val", f["val.coo"], *spec["train"],
            "--tol", "0", "--threads", threads, "--seed", TRAIN_SEED,
            "--out", f["model.json"], "--report", f["report.json"]]


def pipeline(run: Run, spec: dict, inp: str, seed: int, threads: int,
             trace: bool, tag: str) -> dict | None:
    """split -> train -> evaluate on `inp`; one end-to-end sample."""
    f = paths(run, tag)
    steps = [split_args(inp, seed, f), train_args(spec, threads, f),
             ["evaluate", "--model", f["model.json"], "--test", f["test.coo"],
              "--report", f["eval.json"]]]
    results = []
    for step in steps:
        res = run.command(step, trace, f"{tag}/{step[0]}")
        if res is None:
            return None
        results.append(res)
    with open(f["eval.json"], encoding="utf-8") as fh:
        scored = json.load(fh)
    split_r, train_r, _ = results
    return {
        "pipeline_s": sum(r["wall_s"] for r in results),
        "split_s": split_r["wall_s"],
        "train_s": train_r["wall_s"],
        "test_h": scored["h"],
        "n_test": scored["n_test"],
        "peak_rss_mb": max(r["maxrss_kb"] for r in results) / 1024.0,
        "rss_source": {r["rss_source"] for r in results},
        "setup_samples": [r["setup_s"] for r in results],
        "model_sha256": sha256(f["model.json"]),
        "dyntf": train_r["dyntf"],
        "results": results,
        "files": f,
    }


def thread_check(run: Run, spec: dict, seed: int, threads: int) -> None:
    """Same model bytes at the workload's thread count and at 1 thread."""
    if threads == 1:
        return
    small = spec["small"]
    inp = os.path.join(run.work, "small.coo")
    gen.make_input(inp, small["nodes"], small["slots"], small["entries"], seed)
    f = paths(run, "small")
    if run.command(split_args(inp, seed, f), False, "small/split") is None:
        return
    shas = []
    for t in (threads, 1):
        ok = run.command(train_args(spec, t, f), False, f"small/train-t{t}") is not None
        shas.append(ok and sha256(f["model.json"]))
    run.check(shas[0] and shas[0] == shas[1],
              f"small case model.json identical at threads {threads} and 1")


def output_checks(run: Run, samples: list[dict], expected_test: int) -> None:
    shas = {s["model_sha256"] for s in samples}
    run.check(len(shas) == 1, f"model.json sha256 identical across pipelines ({len(shas)} seen)")
    hs = {s["test_h"] for s in samples}
    run.check(len(hs) == 1 and all(math.isfinite(h) for h in hs),
              f"test_h finite and identical across pipelines ({sorted(hs)})")
    run.check(all(s["n_test"] == expected_test for s in samples),
              f"evaluate scored {expected_test} test entries")
    where = {s["dyntf"] for s in samples}
    run.check(where == {os.path.realpath(os.path.join(run.root, "src", "dyntf", "cli.py"))},
              f"dyntf imported from this checkout ({where})")


# ---------------------------------------------------------------- tracing

def self_times(spans: list[dict]) -> dict[int, float]:
    """Span duration minus the part of its interval its children cover."""
    children: dict[int, list[dict]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        covered, reach = 0.0, s["start"]
        for lo, hi in sorted((max(c["start"], s["start"]), min(c["end"], s["end"]))
                             for c in children.get(s["id"], ())):
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s["id"]] = s["end"] - s["start"] - covered
    return out


def layer_metrics(results: list[dict], threads: int, replicas: int) -> dict:
    """Per-layer metrics of one traced pipeline (a list of child results)."""
    spans, selfs = [], {}
    for res in results:
        own = self_times(res["spans"])
        for s in res["spans"]:
            spans.append(s)
            selfs[id(s)] = own[s["id"]]

    def named(name):
        return [s for s in spans if s["name"] == name]

    def total(name):
        return sum(s["end"] - s["start"] for s in named(name))

    def ratio(num, den):
        return num / den if den else 0.0

    def median(values):
        values = list(values)
        return statistics.median(values) if values else None

    epochs = named("trainer.nmu_epoch")
    evals = named("tuner.evaluate_individual")
    bests = named("tuner.update_best")
    loads = named("tensor.load_coo")
    w_bytes = [s["attrs"]["w_bytes"] for s in named("model.init_positive")]
    iter_wall = (bests[-1]["end"] - evals[0]["start"]) if evals and bests else 0.0
    return {
        "tensor.load_coo_s": total("tensor.load_coo"),
        "tensor.load_coo_lines_per_s": ratio(sum(s["attrs"]["lines"] for s in loads),
                                             total("tensor.load_coo")),
        "tensor.sparse_tensor_init_s": total("tensor.sparse_tensor_init"),
        "tensor.split_s": total("tensor.split"),
        "tensor.save_coo_s": total("tensor.save_coo"),
        "tensor.save_coo_bytes": sum(s["attrs"]["bytes"] for s in named("tensor.save_coo")),
        "model.compute_temporal_s": total("model.compute_temporal"),
        "model.validate_s": total("model.validate"),
        "model.load_model_s": total("model.load_model"),
        "model.save_model_s": total("model.save_model"),
        "model.w_bytes_computed": sum(w_bytes) * replicas,
        "trainer.nmu_epoch_s": median(s["end"] - s["start"] for s in epochs),
        "trainer.nmu_epoch_self_s": median(selfs[id(s)] for s in epochs),
        "trainer.nmu_epoch_calls": len(epochs),
        "trainer.entries_per_s": ratio(sum(s["attrs"]["entries"] for s in epochs),
                                       sum(s["end"] - s["start"] for s in epochs)),
        "trainer.validation_metrics_s": total("trainer.validation_metrics"),
        "tuner.evaluate_individual_s": sum(s["end"] - s["start"] for s in evals),
        "tuner.evaluate_individual_calls": len(evals),
        "tuner.iterations": len(bests),
        "tuner.tau_update_ratio": ratio(sum(s["attrs"]["tau_changed"] for s in bests),
                                        len(bests)),
        "tuner.busy_ratio": ratio(sum(s["end"] - s["start"] for s in evals),
                                  iter_wall * threads),
        "metrics.score_s": total("metrics.score"),
        "cli.self_s": sum(selfs[id(s)] for s in named("cli.main")),
    }


def trace_checks(run: Run, spec: dict, traced: list[dict]) -> set[str]:
    """Check that every layer the workload runs was traced; return the span
    names that are absent (their target is gone or it was never called)."""
    missing = {m["target"]: m["span"] for s in traced for r in s["results"]
               for m in r["missing"]}
    run.check(not missing, f"every traced name exists in this dyntf (missing: {sorted(missing)})")
    adapt = "--adapt" in spec["train"]
    expected = {name for _, _, name in TARGETS
                if name != ("trainer.train" if adapt else "tuner.adapt_train")
                and (adapt or not name.startswith("tuner."))}
    seen = set.intersection(*({sp["name"] for r in s["results"] for sp in r["spans"]}
                              for s in traced))
    unseen = expected - seen
    run.check(not unseen, f"every layer this workload runs was traced (not seen: "
                          f"{sorted(unseen)})")
    return set(missing.values()) | unseen


def traced_metrics(workload: str, spec: dict, threads: int, plain: list[dict],
                   traced: list[dict], one_thread: dict | None,
                   absent: set[str]) -> dict:
    """Per-layer metrics: medians over the traced pipelines. A layer with an
    absent span is left out rather than read as 0."""
    train = spec["train"]
    replicas = int(train[train.index("--pop") + 1]) if "--adapt" in train else 1
    per_pipeline = [layer_metrics(s["results"], threads, replicas) for s in traced]
    values = {name: statistics.median(p[name] for p in per_pipeline)
              for name in per_pipeline[0] if all(p[name] is not None for p in per_pipeline)}
    # the chunk pool only runs on wide; elsewhere every epoch is one-threaded
    values["trainer.thread_speedup"] = 1.0
    if one_thread is not None:
        epochs = [s["end"] - s["start"] for s in one_thread["spans"]
                  if s["name"] == "trainer.nmu_epoch"]
        if epochs and "trainer.nmu_epoch_s" in values:
            values["trainer.thread_speedup"] = (statistics.median(epochs)
                                                / values["trainer.nmu_epoch_s"])
        else:
            del values["trainer.thread_speedup"]
    values["trace.overhead_ratio"] = (
        statistics.median(s["pipeline_s"] for s in traced)
        / statistics.median(s["pipeline_s"] for s in plain) - 1.0)
    gone = {name.split(".")[0] for name in absent}
    metrics = {}
    for name, unit in PER_LAYER.items():
        layer = name.split(".")[0]
        if (layer in gone or name not in values
                or (absent and name in NEEDS_ALL_SPANS)):
            print(f"# {workload} {name} absent: its layer was not fully traced")
            continue
        print(f"# {workload} {name} = {values[name]:.6g} {unit}"
              f"  (should move {MOVES[layer]})")
        metrics[name] = {"value": values[name], "unit": unit}
    return metrics


# ---------------------------------------------------------------- reporting

def summarize(values: list[float]) -> str:
    """Median, the highest percentile with >= 10 samples beyond it, count."""
    v = sorted(values)
    n = len(v)
    text = f"median={statistics.median(v):.6g} n={n}"
    if n > 10:
        rank = n - 10
        text += f" p{100 * rank / n:.0f}={v[rank - 1]:.6g}"
    else:
        text += " (no percentile has 10 samples beyond it)"
    return text


def environment(nproc: int) -> dict:
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    caches = {}
    try:
        out = subprocess.run(["getconf", "-a"], capture_output=True, text=True,
                             timeout=10).stdout
        for line in out.splitlines():
            parts = line.split()
            if len(parts) == 2 and parts[0].endswith("CACHE_SIZE"):
                caches[parts[0]] = int(parts[1])
    except (OSError, subprocess.TimeoutExpired, ValueError):
        caches = {"unknown": 0}
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "nproc": nproc, "caches": caches, "pinned": PINNED_ENV}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="dyntf CLI pipeline benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "dyntf", "cli.py")):
        print("error: run from a dyntf checkout root (src/dyntf/cli.py not found)",
              file=sys.stderr)
        return 2
    spec = WORKLOADS[args.workload]
    nproc = len(os.sched_getaffinity(0))
    threads = min(spec["threads"], nproc)
    os.makedirs(os.path.join(root, ".bench_work"), exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(root, ".bench_work"))
    try:
        return measure(Run(root, work), args, spec, threads, nproc)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(run: Run, args, spec: dict, threads: int, nproc: int) -> int:
    print(f"# environment {json.dumps(environment(nproc))}")
    t0 = time.monotonic()
    inp = os.path.join(run.work, "input.coo")
    record = gen.make_input(inp, spec["nodes"], spec["slots"], spec["entries"], args.seed)
    print(f"# input {json.dumps(record)} generated in {time.monotonic() - t0:.2f} s")
    thread_check(run, spec, args.seed, threads)

    plain: list[dict] = []
    traced: list[dict] = []
    start = time.monotonic()
    while True:
        sample = pipeline(run, spec, inp, args.seed, threads, False, "plain")
        if sample is None:
            break
        plain.append(sample)
        if args.trace:
            sample = pipeline(run, spec, inp, args.seed, threads, True, "traced")
            if sample is None:
                break
            traced.append(sample)
        # stop when one more pipeline of average length would overrun
        elapsed = time.monotonic() - start
        if (elapsed * (len(plain) + 1) / len(plain) > args.seconds
                or time.monotonic() > run.deadline):
            break
    one_thread = None
    if args.trace and traced and spec["trace_threads_1"] and threads > 1:
        f = traced[-1]["files"]
        one_thread = run.command(train_args(spec, 1, f), True, "threads1/train")
        if one_thread is not None:
            run.check(sha256(f["model.json"]) == traced[-1]["model_sha256"],
                      "full-size model.json identical at threads 1")

    absent: set[str] = set()
    if traced:
        absent = trace_checks(run, spec, traced)
    samples = plain + traced
    if samples:
        expected_test = math.floor(spec["entries"] * 2 / 10)
        output_checks(run, samples, expected_test)
    else:
        run.check(False, "at least one pipeline completed")
    for note in run.notes:
        print(f"# {note}")
    correct = run.failed == 0
    metrics = {}
    if plain and not args.trace:
        series = {name: [s[name] for s in plain]
                  for name in ("pipeline_s", "split_s", "train_s", "test_h", "peak_rss_mb")}
        series["setup_s"] = [x for s in plain for x in s["setup_samples"]]
        series["ok_ratio"] = [(run.attempted - run.failed) / run.attempted]
        for name, unit in END_TO_END.items():
            print(f"# {args.workload} {name} [{unit}] {summarize(series[name])}")
            metrics[name] = {"value": statistics.median(series[name]), "unit": unit}
        print(f"# {args.workload} fail_ratio {run.failed}/{run.attempted}; peak RSS read "
              f"from {sorted(set().union(*(s['rss_source'] for s in plain)))}")
        for name in ("pipeline_s", "split_s", "train_s"):
            print(f"# {args.workload} samples {name} "
                  f"{[round(s[name], 4) for s in plain]}")
    elif traced:
        metrics = traced_metrics(args.workload, spec, threads, plain, traced, one_thread,
                                 absent)
        spans_path = os.path.join(run.root, ".bench_work", f"spans-{args.workload}.jsonl")
        with open(spans_path, "w", encoding="utf-8") as fh:
            for res in traced[-1]["results"] + ([one_thread] if one_thread else []):
                for s in res["spans"]:
                    fh.write(json.dumps(s) + "\n")
        print(f"# spans of the last traced pipeline written to {spans_path}")
    if not metrics:
        print("error: no pipeline completed, nothing to report", file=sys.stderr)
        return 1
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
