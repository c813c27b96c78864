"""In-memory spans around the calls into each dyntf module.

The traced child wraps the names each module looks up at call time (for
example `dyntf.cli.load_coo` or `dyntf.tuner.nmu_epoch`) and the two
methods whose callers are spread over several modules
(`SparseTensor.__init__`, `FactorModel.validate`). Nothing under `src/`
is edited. A span is (id, name, start, end, parent, run id, attrs);
spans stay in memory and are written out when the child ends.

A thread with no open span of its own (a pool worker) takes the main
thread's innermost open span as parent: in dyntf only the main thread
starts pools, so that span is the one that fanned the work out.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import os
import threading
import time

# (module[:class], attribute, span name); a module that no longer looks a name up
# is skipped and listed as missing, and the run counts that as a failed check
TARGETS = [
    ("dyntf.cli", "load_coo", "tensor.load_coo"),
    ("dyntf.cli", "split", "tensor.split"),
    ("dyntf.cli", "save_coo", "tensor.save_coo"),
    ("dyntf.tensor:SparseTensor", "__init__", "tensor.sparse_tensor_init"),
    ("dyntf.cli", "init_positive", "model.init_positive"),
    ("dyntf.cli", "compute_temporal", "model.compute_temporal"),
    ("dyntf.trainer", "compute_temporal", "model.compute_temporal"),
    ("dyntf.cli", "predict_entries", "model.predict_entries"),
    ("dyntf.trainer", "predict_entries", "model.predict_entries"),
    ("dyntf.model:FactorModel", "validate", "model.validate"),
    ("dyntf.cli", "load_model", "model.load_model"),
    ("dyntf.cli", "save_model", "model.save_model"),
    ("dyntf.cli", "train", "trainer.train"),
    ("dyntf.trainer", "nmu_epoch", "trainer.nmu_epoch"),
    ("dyntf.tuner", "nmu_epoch", "trainer.nmu_epoch"),
    ("dyntf.trainer", "validation_metrics", "trainer.validation_metrics"),
    ("dyntf.tuner", "validation_metrics", "trainer.validation_metrics"),
    ("dyntf.cli", "adapt_train", "tuner.adapt_train"),
    ("dyntf.tuner", "evaluate_individual", "tuner.evaluate_individual"),
    ("dyntf.tuner", "update_best", "tuner.update_best"),
    ("dyntf.cli", "rmse", "metrics.score"),
    ("dyntf.cli", "mae", "metrics.score"),
    ("dyntf.cli", "h_score", "metrics.score"),
    ("dyntf.trainer", "rmse", "metrics.score"),
    ("dyntf.trainer", "mae", "metrics.score"),
]


class Recorder:
    """Collects spans from every thread of one process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._main = threading.main_thread()

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, attrs: dict | None = None) -> dict:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            main = self._main_stack
            parent = main[-1] if main else None
        span = {"id": next(self._ids), "name": name, "start": time.monotonic(),
                "end": None, "parent": parent, "run": self.run_id,
                "attrs": attrs or {}}
        stack.append(span["id"])
        self.spans.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.monotonic()
        self._stack().pop()


def _attrs(name, args, kwargs) -> dict:
    # cheap facts known before the call; file sizes are added after the run
    if name == "tensor.load_coo":
        return {"path": os.fspath(args[0])}
    if name == "tensor.save_coo":
        return {"path": os.fspath(args[1])}
    if name == "trainer.nmu_epoch":
        return {"threads": kwargs.get("threads", args[5] if len(args) > 5 else 1),
                "entries": args[1].n_entries}
    return {}


def _wrap(recorder: Recorder, fn, name: str):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = recorder.open(name, _attrs(name, args, kwargs))
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(span)
        if name == "model.init_positive":
            # arrays the temporal weights store, whatever their layout
            stored = getattr(getattr(result, "weights", None), "__dict__", {})
            span["attrs"]["w_bytes"] = sum(
                v.nbytes for v in stored.values() if hasattr(v, "nbytes"))
        return result

    if name != "tuner.update_best":
        return traced

    @functools.wraps(fn)
    def traced_best(swarm, *args, **kwargs):
        before = swarm.tau.copy()
        span = recorder.open(name)
        try:
            return fn(swarm, *args, **kwargs)
        finally:
            recorder.close(span)
            span["attrs"]["tau_changed"] = bool((before != swarm.tau).any())

    return traced_best


def install(recorder: Recorder) -> list[dict]:
    """Wrap every target that exists; return the ones that do not."""
    missing = []
    for owner_path, attr, name in TARGETS:
        module, _, cls = owner_path.partition(":")
        try:
            owner = importlib.import_module(module)
            if cls:
                owner = getattr(owner, cls)
            fn = getattr(owner, attr)
        except (ImportError, AttributeError):
            missing.append({"target": f"{owner_path}.{attr}", "span": name})
            continue
        setattr(owner, attr, _wrap(recorder, fn, name))
    return missing
