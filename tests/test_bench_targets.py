"""The bench harness traces dyntf functions by name; every name it lists
must still exist, and still be called the way its wrappers expect, or a
traced bench run fails long after the refactor that broke it."""

import importlib
import importlib.util
from pathlib import Path

import pytest

import dyntf
from dyntf.cli import main

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # defines TARGETS; installs nothing
    return module


def _owner(owner_path):
    module, _, cls = owner_path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


@pytest.mark.parametrize("owner, attr, span", _spans().TARGETS)
def test_traced_name_resolves(owner, attr, span):
    assert callable(getattr(_owner(owner), attr, None)), f"{owner}.{attr} (span {span}) is gone"


def test_wrapped_train_records_spans(tmp_path, monkeypatch):
    spans = _spans()
    for owner_path, attr, _ in spans.TARGETS:
        owner = _owner(owner_path)
        monkeypatch.setattr(owner, attr, getattr(owner, attr))  # restored at teardown
    # small chunks, so the fixed run's epochs really go through the pool
    monkeypatch.setattr(dyntf.trainer, "_CHUNK", 64)
    recorder = spans.Recorder("test")
    assert spans.install(recorder) == []

    data, _ = dyntf.generate_synthetic(12, 5, 2, 0.3, 0.5, 0.01, seed=4)
    parts = dyntf.split(data, (7, 1, 2), seed=4)
    dyntf.save_coo(parts.train, tmp_path / "tr.coo")
    dyntf.save_coo(parts.validation, tmp_path / "va.coo")
    base = ["train", "--train", str(tmp_path / "tr.coo"), "--val", str(tmp_path / "va.coo"),
            "--rank", "2", "--max-epochs", "3", "--threads", "2",
            "--out", str(tmp_path / "m.json"), "--report", str(tmp_path / "r.json")]
    for extra in (["--lambda", "0.01", "--lambda-b", "0.01"], ["--adapt", "--pop", "4"]):
        recorder.spans.clear()
        assert main(base + extra) == 0
        names = {span["name"] for span in recorder.spans}
        # every layer a traced bench run must see, reached by its traced name
        assert {"trainer.nmu_epoch", "metrics.score", "model.compute_temporal",
                "model.predict_entries", "trainer.validation_metrics"} <= names
        epochs = [s for s in recorder.spans if s["name"] == "trainer.nmu_epoch"]
        assert all(s["attrs"]["entries"] == parts.train.n_entries for s in epochs)
        assert all(s["end"] is not None for s in recorder.spans)
    assert {"tuner.evaluate_individual", "tuner.update_best"} <= names
    assert all("tau_changed" in s["attrs"] for s in recorder.spans
               if s["name"] == "tuner.update_best")
