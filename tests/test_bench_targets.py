"""The bench harness traces dyntf functions by name; every name it lists
must still exist, and still be called the way its wrappers expect, or a
traced bench run fails long after the refactor that broke it."""

import importlib
import importlib.util
import inspect
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


def test_nmu_epoch_threads_is_keyword_only():
    # the nmu_epoch span reads the thread count from kwargs["threads"]
    param = inspect.signature(dyntf.nmu_epoch).parameters["threads"]
    assert param.kind is inspect.Parameter.KEYWORD_ONLY


def test_wrapped_train_records_spans(tmp_path, monkeypatch):
    spans = _spans()
    for owner_path, attr, _ in spans.TARGETS:
        owner = _owner(owner_path)
        monkeypatch.setattr(owner, attr, getattr(owner, attr))  # restored at teardown
    recorder = spans.Recorder("test")
    assert spans.install(recorder) == []

    data, _ = dyntf.generate_synthetic(12, 5, 2, 0.3, 0.5, 0.01, seed=4)
    dyntf.save_coo(data, tmp_path / "data.coo")
    recorder.spans.clear()
    assert main(["split", "--input", str(tmp_path / "data.coo"), "--seed", "4",
                 "--out-train", str(tmp_path / "tr.coo"), "--out-val", str(tmp_path / "va.coo"),
                 "--out-test", str(tmp_path / "te.coo")]) == 0
    # the reader, the tensor build, the split and the writer, each by its traced name
    assert {"tensor.load_coo", "tensor.sparse_tensor_init", "tensor.split",
            "tensor.save_coo"} <= {span["name"] for span in recorder.spans}
    n_train = dyntf.load_coo(tmp_path / "tr.coo").n_entries
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
        assert all(s["attrs"]["entries"] == n_train for s in epochs)
        assert all(s["end"] is not None for s in recorder.spans)
    assert {"tuner.evaluate_individual", "tuner.update_best"} <= names
    assert all("tau_changed" in s["attrs"] for s in recorder.spans
               if s["name"] == "tuner.update_best")
