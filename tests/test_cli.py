import json
import math
import os
import resource
import subprocess
import sys
import warnings
import weakref
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import dyntf
from dyntf.atomic import write_json
from dyntf.cli import main

from conftest import dense_w, entry_tuples


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture()
def workspace(tmp_path):
    """Generated dataset, split three ways, ready for train/evaluate."""
    data = tmp_path / "data.coo"
    assert run("generate", "--nodes", 30, "--slots", 10, "--rank", 2,
               "--density", 0.08, "--seed", 5, "--out", data,
               "--truth-out", tmp_path / "truth.json") == 0
    assert run("split", "--input", data, "--ratios", "7,1,2", "--seed", 5,
               "--out-train", tmp_path / "tr.coo", "--out-val", tmp_path / "va.coo",
               "--out-test", tmp_path / "te.coo") == 0
    return tmp_path


def _train(ws, *extra, out="m.json", report="r.json"):
    args = ["train", "--train", ws / "tr.coo", "--val", ws / "va.coo",
            "--rank", 2, "--seed", 3, "--out", ws / out, "--report", ws / report]
    return run(*args, *extra)


class TestGenerate:
    def test_entry_count_and_dims_header(self, tmp_path):
        out = tmp_path / "g.coo"
        assert run("generate", "--nodes", 50, "--slots", 20, "--rank", 2,
                   "--density", 0.05, "--seed", 7, "--out", out) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "%dims 50 50 20"
        assert len(lines) - 1 == round(0.05 * 50 * 50 * 20)

    def test_rerun_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.coo", tmp_path / "b.coo"
        for out in (a, b):
            assert run("generate", "--nodes", 20, "--slots", 5, "--density",
                       "0.1", "--seed", 3, "--out", out) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_truth_model_reproduces_noiseless_values(self, tmp_path):
        out, truth_path = tmp_path / "g.coo", tmp_path / "t.json"
        assert run("generate", "--nodes", 12, "--slots", 6, "--density", 0.3,
                   "--noise", 0, "--seed", 2, "--out", out,
                   "--truth-out", truth_path) == 0
        model, _ = dyntf.load_model(truth_path)
        data = dyntf.load_coo(out)
        preds = dyntf.predict_entries(model, data.i, data.j, data.k)
        assert np.max(np.abs(preds - data.values)) <= 1e-12
        doc = json.loads(truth_path.read_text())
        assert doc["generator"]["seed"] == 2

    def test_bad_density_is_usage_error(self, tmp_path, capsys):
        assert run("generate", "--nodes", 5, "--slots", 3, "--density", 2.0,
                   "--out", tmp_path / "x.coo") == 2
        assert "density must be in (0,1]" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, words", [
        ("--ar", 1.5, "temporal_correlation must lie in [0, 1)"),
        ("--noise", "nan", "noise_scale must be finite and nonnegative"),
        ("--nodes", 0, "n_nodes, n_slots and true_rank must be >= 1"),
        ("--density", 2, "density must be in (0,1]"),
    ])
    def test_bad_value_reported_in_library_words(self, tmp_path, capsys, flag, value, words):
        flags = {"--nodes": 5, "--slots": 3, "--density": 0.5, flag: value}
        assert run("generate", *[tok for pair in flags.items() for tok in pair],
                   "--out", tmp_path / "g.coo") == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {words}"]
        assert not (tmp_path / "g.coo").exists()


@pytest.mark.parametrize("command, flags", [
    ("generate", ["--nodes", 5, "--slots", 3, "--density", 0.5, "--out", "g.coo"]),
    ("split", ["--input", "data.coo", "--out-train", "a", "--out-val", "b",
               "--out-test", "c"]),
    ("train", ["--train", "tr.coo", "--val", "va.coo", "--adapt",
               "--out", "m.json", "--report", "r.json"]),
])
def test_negative_seed_is_usage_error(workspace, capsys, monkeypatch, command, flags):
    # argparse rejects the value before any file is read or written
    monkeypatch.chdir(workspace)
    before = sorted(os.listdir(workspace))
    capsys.readouterr()  # drop the workspace's own log lines
    assert run(command, *flags, "--seed", -1) == 2
    assert "argument --seed: must be a nonnegative integer" in capsys.readouterr().err
    assert sorted(os.listdir(workspace)) == before


@pytest.mark.parametrize("command, flags", [
    ("split", ["--input", "data.coo", "--out-train", "a", "--out-val", "b",
               "--out-test", "c"]),
    ("train", ["--train", "tr.coo", "--val", "va.coo", "--adapt",
               "--out", "m.json", "--report", "r.json"]),
])
@pytest.mark.parametrize("flag", ["--nodes", "--slots"])
def test_nonpositive_dimension_is_usage_error(workspace, capsys, monkeypatch, command,
                                              flags, flag):
    # a bad flag value, not bad data: exit 2 naming the flag, before any file
    # is read; 2**64 is past the int64 index range that bounds N and K
    monkeypatch.chdir(workspace)
    before = sorted(os.listdir(workspace))
    capsys.readouterr()
    for value in (0, 2**64):
        assert run(command, *flags, flag, value) == 2
        assert f"argument {flag}: must be a positive integer" in capsys.readouterr().err
    assert sorted(os.listdir(workspace)) == before


class TestSplit:
    def test_parts_partition_input(self, workspace):
        full = dyntf.load_coo(workspace / "data.coo")
        parts = [dyntf.load_coo(workspace / f) for f in ("tr.coo", "va.coo", "te.coo")]
        assert sum(p.n_entries for p in parts) == full.n_entries
        merged = set()
        for p in parts:
            merged |= set(entry_tuples(p))
        assert merged == set(entry_tuples(full))

    def test_source_is_freed_before_the_parts_are_written(self, workspace, monkeypatch):
        # the loaded tensor is held by no one while split writes its parts
        loaded, written = [], []
        load_coo, save_coo = dyntf.cli.load_coo, dyntf.cli.save_coo

        def watched_load(*args, **kwargs):
            tensor = load_coo(*args, **kwargs)
            loaded.append(weakref.ref(tensor))
            return tensor

        def save_without_source(tensor, dest):
            assert [ref() for ref in loaded] == [None]
            written.append(dest)
            save_coo(tensor, dest)

        monkeypatch.setattr(dyntf.cli, "load_coo", watched_load)
        monkeypatch.setattr(dyntf.cli, "save_coo", save_without_source)
        assert run("split", "--input", workspace / "data.coo", "--ratios", "7,1,2",
                   "--out-train", workspace / "a", "--out-val", workspace / "b",
                   "--out-test", workspace / "c") == 0
        assert len(written) == 3

    def test_bad_ratios_usage_error(self, workspace):
        assert run("split", "--input", workspace / "data.coo", "--ratios", "1,2",
                   "--out-train", workspace / "a", "--out-val", workspace / "b",
                   "--out-test", workspace / "c") == 2

    def test_zero_part_is_data_error(self, workspace):
        assert run("split", "--input", workspace / "data.coo", "--ratios", "1,0,0",
                   "--out-train", workspace / "a", "--out-val", workspace / "b",
                   "--out-test", workspace / "c") == 3

    @pytest.mark.parametrize("ratios", ["-1,1,1", "0,0,0", "nan,1,1", "1,2", "1,x,2"])
    def test_bad_ratios_refused_before_any_read(self, tmp_path, capsys, monkeypatch, ratios):
        def no_load(*args, **kwargs):
            raise AssertionError("load_coo called before the ratios were checked")

        monkeypatch.setattr(dyntf.cli, "load_coo", no_load)
        assert run("split", "--input", tmp_path / "missing.coo", f"--ratios={ratios}",
                   "--out-train", tmp_path / "a", "--out-val", tmp_path / "b",
                   "--out-test", tmp_path / "c") == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: --ratios: "), err
        assert list(tmp_path.iterdir()) == []

    def test_dims_past_int64_is_data_error(self, tmp_path, capsys):
        # the record is below the declared N but does not fit an int64 index
        src = tmp_path / "big.coo"
        src.write_text("%dims 20000000000000000000 20000000000000000000 1\n"
                       "10000000000000000000 0 0 1.0\n")
        assert run("split", "--input", src, "--out-train", tmp_path / "a",
                   "--out-val", tmp_path / "b", "--out-test", tmp_path / "c") == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: n_nodes and n_slots")
        assert sorted(os.listdir(tmp_path)) == ["big.coo"]

    def test_non_utf8_byte_names_its_line(self, tmp_path, capsys):
        src = tmp_path / "bad.coo"
        src.write_bytes(b"%dims 3 3 2\n0 1 0 1.5\n1 2 1 \xff2.0\n2 0 1 0.5\n")
        assert run("split", "--input", src, "--out-train", tmp_path / "a",
                   "--out-val", tmp_path / "b", "--out-test", tmp_path / "c") == 3
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: invalid UTF-8 at line 3: invalid start byte"]
        assert sorted(os.listdir(tmp_path)) == ["bad.coo"]


class TestTrain:
    def test_fixed_mode_report(self, workspace):
        assert _train(workspace, "--lambda", 0.01, "--lambda-b", 0.02,
                      "--max-epochs", 25) == 0
        doc = json.loads((workspace / "r.json").read_text())
        assert doc["final_hp"] == {"lambda": 0.01, "lambda_b": 0.02}
        assert doc["epochs_run"] == len(doc["per_epoch_h"]) <= 25
        assert doc["termination"] in ("tolerance", "max_epochs")
        assert doc["config"]["seed"] == 3
        assert doc["config"]["mode"] == "att"
        assert doc["config"]["window"] == 9  # defaults to K - 1
        assert "best_lambda" not in doc
        model, hp = dyntf.load_model(workspace / "m.json")
        assert (model.n_nodes, model.n_slots, model.rank) == (30, 10, 2)
        assert (hp.lam, hp.lam_b) == (0.01, 0.02)

    def test_baseline_forces_identity_window(self, workspace):
        assert _train(workspace, "--mode", "baseline", "--lambda", 0.01,
                      "--lambda-b", 0.01, "--max-epochs", 10,
                      "--window", 5) == 0
        model, _ = dyntf.load_model(workspace / "m.json")
        assert model.window == 0
        assert np.array_equal(dense_w(model.W), np.eye(10))

    def test_adapt_mode_report(self, workspace):
        assert _train(workspace, "--adapt", "--pop", 5, "--max-epochs", 8) == 0
        doc = json.loads((workspace / "r.json").read_text())
        assert doc["population"] == 5
        assert doc["best_rule"] == "argmin_h"
        assert 1e-4 <= doc["best_lambda"] <= 0.5
        assert 1e-4 <= doc["best_lambda_b"] <= 0.5
        assert doc["final_hp"]["lambda"] == doc["best_lambda"]
        assert doc["config"]["bounds"] == [1e-4, 0.5, 1e-4, 0.5]

    def test_report_floats_round_trip(self, workspace):
        assert _train(workspace, "--lambda", 0.01, "--lambda-b", 0.01,
                      "--max-epochs", 12, "--tol", 0) == 0
        doc = json.loads((workspace / "r.json").read_text())
        model, _ = dyntf.load_model(workspace / "m.json")
        val = dyntf.load_coo(workspace / "va.coo")
        r, m, h = dyntf.validation_metrics(model, val)
        assert doc["per_epoch_h"][-1] == h
        assert doc["per_epoch_rmse"][-1] == r

    def test_flag_conflicts(self, workspace):
        assert _train(workspace, "--adapt", "--lambda", 0.1, "--lambda-b", 0.1) == 2
        assert _train(workspace, "--lambda", 0.1) == 2  # missing --lambda-b
        # the flag is gone: --threads 1 is the sequential run
        assert _train(workspace, "--lambda", 0.1, "--lambda-b", 0.1,
                      "--strict-sequential") == 2
        assert _train(workspace, "--lambda", -0.1, "--lambda-b", 0.1) == 2
        assert _train(workspace, "--adapt", "--pop", 2) == 2
        assert _train(workspace, "--lambda", 0.1, "--lambda-b", 0.1,
                      "--max-epochs", 0) == 2
        assert _train(workspace, "--lambda", 0.1, "--lambda-b", 0.1,
                      "--window", 99) == 2

    def test_window_range_names_bound(self, workspace, capsys):
        assert _train(workspace, "--lambda", 0.1, "--lambda-b", 0.1,
                      "--window", 99) == 2
        assert "window must lie in [0, 9]" in capsys.readouterr().err  # K = 10

    @pytest.mark.parametrize("fit", [["--lambda", 0.1, "--lambda-b", 0.1], ["--adapt"]])
    def test_empty_validation_is_data_error(self, workspace, capsys, fit):
        (workspace / "empty.coo").write_text("%dims 30 30 10\n")
        assert run("train", "--train", workspace / "tr.coo", "--val", workspace / "empty.coo",
                   *fit, "--out", workspace / "m.json", "--report", workspace / "r.json") == 3
        assert "error: empty validation set" in capsys.readouterr().err
        assert not (workspace / "r.json").exists()

    def test_missing_file_is_data_error(self, workspace):
        assert run("train", "--train", workspace / "nope.coo", "--val",
                   workspace / "va.coo", "--lambda", 0.1, "--lambda-b", 0.1,
                   "--out", workspace / "m", "--report", workspace / "r") == 3

    @pytest.mark.parametrize("flags", [
        ["--lambda", 0.1, "--lambda-b", 0.1, "--max-epochs", 0],
        ["--lambda", 0.1, "--lambda-b", 0.1, "--tol", "nan"],
        ["--adapt", "--pop", 3],
        ["--adapt", "--scale-factor", "nan"],
        ["--adapt", "--cp", 2],
        ["--adapt", "--bounds", "1,0,0,1"],
        ["--lambda", -1, "--lambda-b", 0.1],
    ], ids=["max-epochs-0", "tol-nan", "pop-3", "scale-factor-nan", "cp-2", "bounds-unordered",
            "lambda-negative"])
    def test_bad_flag_is_usage_error_before_any_file_is_read(self, tmp_path, capsys, flags):
        # the missing --train would exit 3, so a 2 means the flag was checked first
        assert run("train", "--train", tmp_path / "missing.coo", "--val", tmp_path / "va.coo",
                   *flags, "--out", tmp_path / "m.json", "--report", tmp_path / "r.json") == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("fit, keys", [
        (["--lambda", 0.01, "--lambda-b", 0.02], ["lambda", "lambda_b"]),
        (["--adapt", "--pop", 4], ["pop", "scale_factor", "cp", "bounds", "best_rule"]),
    ], ids=["fixed", "adapt"])
    def test_report_config_keys_and_order(self, workspace, fit, keys):
        assert _train(workspace, *fit, "--max-epochs", 2) == 0
        doc = json.loads((workspace / "r.json").read_text())
        assert list(doc)[-1] == "config"
        assert list(doc["config"]) == [
            "command", "train", "val", "mode", "rank", "window", "max_epochs", "tol",
            "init_scale", "seed", "threads", "adapt", *keys]
        assert doc["config"]["adapt"] is (fit[0] == "--adapt")

    def test_report_written_before_model(self, workspace, monkeypatch):
        def full_disk(*args, **kwargs):
            raise OSError("No space left on device")

        monkeypatch.setattr(dyntf.cli, "save_model", full_disk)
        assert _train(workspace, "--lambda", 0.01, "--lambda-b", 0.01,
                      "--max-epochs", 3) == 3
        assert (workspace / "r.json").exists()
        assert not (workspace / "m.json").exists()

    def test_divergence_exit_code(self, workspace, capsys):
        # the workers run under the caller's error state: the thread count
        # changes neither the exit code nor a byte of stderr
        errs = []
        for threads in (1, 2):
            capsys.readouterr()
            assert _train(workspace, "--lambda", 0, "--lambda-b", 0, "--max-epochs", 5,
                          "--init-scale", "1e200", "--threads", threads) == 4
            errs.append(capsys.readouterr().err)
        assert "RuntimeWarning" not in errs[0]
        assert errs[0] == errs[1]


@pytest.mark.parametrize("command, flags", [
    pytest.param("generate", ["--noise", "nan"], id="noise-nan"),
    pytest.param("split", ["--ratios", "nan,1,1"], id="ratios-nan"),
    pytest.param("train", ["--lambda", 0.1, "--lambda-b", 0.1, "--tol", "nan"], id="tol-nan"),
    pytest.param("train", ["--lambda", 0.1, "--lambda-b", 0.1, "--init-scale", "inf"],
                 id="init-scale-inf"),
    pytest.param("train", ["--adapt", "--bounds", "nan,1,0,1"], id="bounds-nan"),
    pytest.param("train", ["--adapt", "--bounds", "a,b,c,d"], id="bounds-text"),
    pytest.param("train", ["--adapt", "--scale-factor", "nan"], id="scale-factor-nan"),
])
def test_non_finite_flag_is_usage_error(workspace, capsys, command, flags):
    ws = workspace
    required = {
        "generate": ["--nodes", 5, "--slots", 3, "--density", 0.5, "--out", ws / "g.coo"],
        "split": ["--input", ws / "data.coo", "--out-train", ws / "a",
                  "--out-val", ws / "b", "--out-test", ws / "c"],
        "train": ["--train", ws / "tr.coo", "--val", ws / "va.coo", "--rank", 2,
                  "--out", ws / "m.json", "--report", ws / "r.json"],
    }
    capsys.readouterr()  # drop the workspace's own log lines
    assert run(command, *required[command], *flags) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


class TestEvaluate:
    def test_report_schema(self, workspace):
        assert _train(workspace, "--lambda", 0.01, "--lambda-b", 0.01,
                      "--max-epochs", 25) == 0
        ev = workspace / "ev.json"
        assert run("evaluate", "--model", workspace / "m.json", "--test",
                   workspace / "te.coo", "--report", ev) == 0
        doc = json.loads(ev.read_text())
        test = dyntf.load_coo(workspace / "te.coo")
        assert doc["n_test"] == test.n_entries
        assert doc["h"] == (doc["rmse"] + doc["mae"]) / 2.0
        model, _ = dyntf.load_model(workspace / "m.json")
        r, m, h = dyntf.validation_metrics(model, test)
        assert (doc["rmse"], doc["mae"]) == (r, m)

    def test_ground_truth_on_noiseless_data_scores_zero(self, tmp_path):
        assert run("generate", "--nodes", 10, "--slots", 4, "--density", 0.4,
                   "--noise", 0, "--seed", 1, "--out", tmp_path / "d.coo",
                   "--truth-out", tmp_path / "t.json") == 0
        assert run("evaluate", "--model", tmp_path / "t.json", "--test",
                   tmp_path / "d.coo", "--report", tmp_path / "ev.json") == 0
        doc = json.loads((tmp_path / "ev.json").read_text())
        assert doc["rmse"] <= 1e-12 and doc["mae"] <= 1e-12

    def test_dimension_mismatch(self, workspace, capsys):
        assert _train(workspace, "--lambda", 0.01, "--lambda-b", 0.01,
                      "--max-epochs", 5) == 0
        big = workspace / "big.coo"
        # the model is N=30, K=10: a header that disagrees, then a node and a
        # slot past the model under a matching header, and with no header
        for text, fault in [("%dims 99 99 10\n50 0 0 1.0\n", "declared n_nodes 30 disagrees"),
                            ("%dims 30 30 10\n0 30 0 1.0\n", "node index out of bounds"),
                            ("%dims 30 30 10\n0 0 10 1.0\n", "slot index out of bounds"),
                            ("50 0 0 1.0\n", "node index out of bounds")]:
            big.write_text(text)
            capsys.readouterr()
            assert run("evaluate", "--model", workspace / "m.json", "--test", big,
                       "--report", workspace / "ev.json") == 3
            assert capsys.readouterr().err.startswith(
                f"error: dimension mismatch between model and test tensor: {fault}")

    @pytest.mark.parametrize("test, message", [
        ("%dims 30 30 10\n# nothing observed\n", "error: empty test set"),
        ("%dims 30 30 10\n0 0 0 xyz\n", "error: malformed line 2: value is not a number"),
    ], ids=["empty", "malformed"])
    def test_unusable_test_file_is_data_error(self, workspace, capsys, test, message):
        # a fault other than a dimension mismatch is reported as it is
        path = workspace / "bad.coo"
        path.write_text(test)
        capsys.readouterr()  # drop the workspace's own log lines
        assert run("evaluate", "--model", workspace / "truth.json", "--test", path,
                   "--report", workspace / "ev.json") == 3
        assert capsys.readouterr().err == message + "\n"
        assert not (workspace / "ev.json").exists()

    @pytest.mark.parametrize("flag", ["--nodes", "--slots"])
    def test_dimension_flags_rejected(self, workspace, capsys, flag):
        # the model fixes N and K; there is nothing to pass
        assert run("evaluate", "--model", workspace / "truth.json", "--test",
                   workspace / "te.coo", flag, 5, "--report", workspace / "ev.json") == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (workspace / "ev.json").exists()


class TestPredict:
    def test_bias_only_model(self, tmp_path, capsys):
        m = dyntf.FactorModel(
            S=np.zeros((3, 1)), U=np.zeros((3, 1)), Z=np.zeros((2, 1)),
            a=np.full(3, 1.0), c=np.full(3, 2.0), e=np.full(2, 3.0),
            W=np.zeros((2, 0)))
        path = tmp_path / "m.json"
        dyntf.save_model(m, dyntf.HyperParams(0.0, 0.0), path)
        assert run("predict", "--model", path, "--i", 0, "--j", 1, "--k", 0) == 0
        assert float(capsys.readouterr().out) == 6.0

    def test_matches_stored_noiseless_value(self, tmp_path, capsys):
        assert run("generate", "--nodes", 10, "--slots", 4, "--density", 0.4,
                   "--noise", 0, "--seed", 1, "--out", tmp_path / "d.coo",
                   "--truth-out", tmp_path / "t.json") == 0
        data = dyntf.load_coo(tmp_path / "d.coo")
        i, j, k, value = entry_tuples(data)[11]
        assert run("predict", "--model", tmp_path / "t.json", "--i", i, "--j", j, "--k", k) == 0
        got = float(capsys.readouterr().out)
        assert abs(got - value) <= 1e-12

    def test_out_of_range_index(self, tmp_path, capsys):
        m = dyntf.init_positive(3, 2, 1, 0, seed=0)
        dyntf.save_model(m, dyntf.HyperParams(0.0, 0.0), tmp_path / "m.json")
        assert run("predict", "--model", tmp_path / "m.json",
                   "--i", 0, "--j", 0, "--k", 7) == 3
        assert "out of range" in capsys.readouterr().err


@pytest.mark.parametrize("command, named", [("evaluate", "rmse=inf"),
                                            ("predict", "at cell (0, 1, 0)")])
def test_overflowing_model_output_is_data_error(tmp_path, capsys, command, named):
    # every prediction is 1e320 plus biases: finite factors, infinite output
    m = dyntf.FactorModel(
        S=np.full((3, 1), 1e160), U=np.full((3, 1), 1e160), Z=np.ones((2, 1)),
        a=np.ones(3), c=np.ones(3), e=np.ones(2),
        W=np.zeros((2, 0)))
    dyntf.save_model(m, dyntf.HyperParams(0.0, 0.0), tmp_path / "m.json")
    (tmp_path / "te.coo").write_text("%dims 3 3 2\n0 1 0 1.0\n2 0 1 2.0\n")
    args = {"evaluate": ["--test", tmp_path / "te.coo", "--report", tmp_path / "ev.json"],
            "predict": ["--i", 0, "--j", 1, "--k", 0]}[command]
    assert run(command, "--model", tmp_path / "m.json", *args) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: non-finite") and named in err
    assert sorted(os.listdir(tmp_path)) == ["m.json", "te.coo"]


class TestModelSchema:
    def _predict(self, path):
        return run("predict", "--model", path, "--i", 0, "--j", 0, "--k", 0)

    @pytest.mark.parametrize("name", ["n_nodes", "n_slots", "rank", "window"])
    def test_non_integer_or_negative_dimension_is_named(self, tmp_path, capsys, name):
        # reshape reads -1 as "infer this dimension", so the arrays alone
        # would still fit; int() would overflow on inf and truncate 2.5
        m = dyntf.init_positive(3, 2, 1, 0, seed=0)
        doc = dyntf.model_to_dict(m, dyntf.HyperParams(0.0, 0.0))
        path = tmp_path / "m.json"
        commands = (["predict", "--model", path, "--i", 0, "--j", 0, "--k", 0],
                    ["evaluate", "--model", path, "--test", tmp_path / "unread.coo",
                     "--report", tmp_path / "r.json"])
        for value in (-1, math.inf, -math.inf, 2.5):
            path.write_text(json.dumps({**doc, name: value}))  # inf as Infinity
            for argv in commands:
                assert run(*argv) == 3, (value, argv[0])
                err = capsys.readouterr().err
                assert err.count("error: ") == 1 and f"'{name}'" in err, (value, err)

    @pytest.mark.parametrize("name", ["n_nodes", "n_slots", "rank", "window", "lambda",
                                      "lambda_b"])
    def test_json_boolean_is_not_a_number(self, tmp_path, capsys, name):
        # bool is an int subclass: operator.index(True) is 1 and float(True) 1.0
        m = dyntf.init_positive(3, 2, 1, 1, seed=0)
        doc = dyntf.model_to_dict(m, dyntf.HyperParams(0.0, 0.0))
        path = tmp_path / "m.json"
        path.write_text(json.dumps({**doc, name: True}))
        assert self._predict(path) == 3
        assert capsys.readouterr().err == f"error: model field '{name}' is malformed: got True\n"

    def test_deeply_nested_json_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text("[" * 50_000)
        assert self._predict(path) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "nested too deeply" in err
        assert "Traceback" not in err

    def test_top_level_list_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text("[1, 2, 3]\n")
        assert self._predict(path) == 3
        assert "JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["S", "U", "Z", "a", "c", "e", "W_band"])
    def test_bad_value_in_any_array_is_named(self, tmp_path, capsys, name):
        m = dyntf.init_positive(3, 2, 1, 1, seed=0)
        doc = dyntf.model_to_dict(m, dyntf.HyperParams(0.0, 0.0))
        path = tmp_path / "m.json"
        commands = (["predict", "--model", path, "--i", 0, "--j", 0, "--k", 0],
                    ["evaluate", "--model", path, "--test", tmp_path / "unread.coo",
                     "--report", tmp_path / "r.json"])
        array = name.removesuffix("_band")  # the model's W is stored as "W_band"
        for value, what in ((-0.5, "negative"), (math.nan, "non-finite"),
                            (math.inf, "non-finite")):
            path.write_text(json.dumps({**doc, name: [value, *doc[name][1:]]}))  # NaN, Infinity
            for argv in commands:
                assert run(*argv) == 3, (value, argv[0])
                assert capsys.readouterr().err == f"error: {array} contains {what} values\n"
        assert os.listdir(tmp_path) == ["m.json"]

    def test_missing_field_is_named(self, tmp_path, capsys):
        m = dyntf.init_positive(3, 2, 1, 1, seed=0)
        doc = dyntf.model_to_dict(m, dyntf.HyperParams(0.0, 0.0))
        del doc["Z"]
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        assert self._predict(path) == 3
        assert "'Z'" in capsys.readouterr().err


def test_overflowing_values_diverge_in_first_epoch(tmp_path, capsys):
    # the first update stays finite (about 1e299) but its products overflow
    data = tmp_path / "big.coo"
    data.write_text("%dims 3 3 2\n0 1 0 1e300\n1 2 1 1e300\n2 0 0 1e300\n"
                    "0 2 1 1e300\n1 1 0 1e300\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run("train", "--train", data, "--val", data, "--rank", 2,
                   "--lambda", 0.01, "--lambda-b", 0.01, "--max-epochs", 5,
                   "--out", tmp_path / "m.json", "--report", tmp_path / "r.json") == 4
    err = capsys.readouterr().err
    assert "epoch 1: " in err and "diverged" in err and "RuntimeWarning" not in err


def test_overflowing_validation_score_diverges_in_first_epoch(tmp_path, capsys):
    # predictions near 1e180 pass the update checks, but squaring the
    # validation residuals overflows: the first epoch's H is inf
    data = tmp_path / "big.coo"
    data.write_text("%dims 3 3 2\n0 1 0 1e60\n1 2 1 1e60\n2 0 0 1e60\n"
                    "0 2 1 1e60\n1 1 0 1e60\n2 2 1 1e60\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run("train", "--train", data, "--val", data, "--rank", 2,
                   "--lambda", 0, "--lambda-b", 0, "--max-epochs", 5,
                   "--out", tmp_path / "m.json", "--report", tmp_path / "r.json") == 4
    err = capsys.readouterr().err
    assert "epoch 1: non-finite validation score" in err
    assert "RuntimeWarning" not in err


def test_strict_sequential_reruns_byte_identical(workspace):
    for suffix in ("1", "2"):
        assert _train(workspace, "--lambda", 0.01, "--lambda-b", 0.01,
                      "--max-epochs", 15, "--threads", 1,
                      out=f"m{suffix}.json", report=f"r{suffix}.json") == 0
    assert (workspace / "m1.json").read_bytes() == (workspace / "m2.json").read_bytes()
    assert (workspace / "r1.json").read_bytes() == (workspace / "r2.json").read_bytes()


class _FailingValues:
    """Stands in for a value array whose serialization fails midway."""

    def tolist(self):
        raise RuntimeError("write failed")

    __iter__ = tolist


def _fail_coo(path):
    one = np.zeros(1, dtype=np.int64)
    # the %dims line is written before the values fail
    dyntf.save_coo(SimpleNamespace(n_nodes=2, n_slots=1, i=one, j=one, k=one,
                                   values=_FailingValues()), path)


def _fail_model(path):
    m = dyntf.FactorModel(
        S=np.ones((2, 1)), U=np.ones((2, 1)), Z=np.ones((1, 1)),
        a=np.ones(2), c=np.ones(2), e=np.ones(1),
        W=np.zeros((1, 0)))
    # the document fails to encode after its temporary file is opened
    dyntf.save_model(m, dyntf.HyperParams(0.0, 0.0), path, extra={"bad": object()})


def _fail_json(path):
    write_json(path, {"rmse": 0.5, "bad": object()})


@pytest.mark.parametrize("existing", [False, True])
@pytest.mark.parametrize("write", [_fail_coo, _fail_model, _fail_json])
def test_failed_write_leaves_no_partial_file(tmp_path, write, existing):
    target = tmp_path / "out"
    if existing:
        target.write_text("old\n")
    with pytest.raises((RuntimeError, TypeError)):
        write(target)
    assert os.listdir(tmp_path) == (["out"] if existing else [])
    if existing:
        assert target.read_text() == "old\n"


_TB = 1_000_000_000_000


@pytest.mark.parametrize("dims, argv", [
    (f"{_TB} {_TB} 2", ["train"]),
    ("4 4 3", ["train", "--rank", _TB]),
    (None, ["generate", "--nodes", 3_000_000_000, "--slots", 1, "--density", 1e-18]),
])
def test_out_of_memory_is_data_error(tmp_path, dims, argv):
    # Each run needs terabytes. `train` refuses its model before any draw
    # (init_positive checks its size); `generate` asks numpy for the memory.
    # The child runs with its address space capped at 2 GiB, so a request
    # fails at once and a regression fails this test instead of exhausting
    # the machine.
    if dims:
        (tmp_path / "t.coo").write_text(f"%dims {dims}\n0 0 0 1.0\n1 1 1 2.0\n")
        argv += ["--train", "t.coo", "--val", "t.coo", "--lambda", 0.01, "--lambda-b", 0.01,
                 "--out", "m.json", "--report", "r.json"]
    else:
        argv += ["--out", "g.coo", "--truth-out", "g.json"]
    cap = 2 << 30
    src = str(Path(dyntf.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "dyntf.cli", *map(str, argv)], cwd=tmp_path,
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)))
    assert proc.returncode == 3, proc.stderr
    assert len(proc.stderr.splitlines()) == 1
    refused = "error: a model of " if dims else "error: Unable to allocate"
    assert proc.stderr.startswith(refused)
    assert sorted(os.listdir(tmp_path)) == (["t.coo"] if dims else [])


def test_model_larger_than_memory_exits_3_before_any_draw(tmp_path, capsys, monkeypatch):
    # 4 nodes, 3 slots, rank 2, window 2: 8 * (16 + 6 + 6 + 8 + 3) = 312 bytes
    (tmp_path / "t.coo").write_text("%dims 4 4 3\n0 0 0 1.0\n1 1 1 2.0\n")
    monkeypatch.setattr(os, "sysconf", {"SC_PHYS_PAGES": 311, "SC_PAGE_SIZE": 1}.__getitem__)

    def no_draw(seed):
        raise AssertionError("drew a model that does not fit")

    monkeypatch.setattr(np.random, "default_rng", no_draw)
    assert run("train", "--train", tmp_path / "t.coo", "--val", tmp_path / "t.coo",
               "--rank", 2, "--lambda", 0.01, "--lambda-b", 0.01,
               "--out", tmp_path / "m.json", "--report", tmp_path / "r.json") == 3
    assert capsys.readouterr().err == ("error: a model of N=4, K=3, rank 2, window 2 needs 312 "
                                       "bytes, more than this machine's physical memory\n")
    assert os.listdir(tmp_path) == ["t.coo"]


def test_memory_error_without_message_is_named(tmp_path, capsys, monkeypatch):
    # a failed Python allocation (list or dict growth) raises a bare MemoryError
    def no_memory(*args, **kwargs):
        raise MemoryError()

    monkeypatch.setattr(dyntf.cli, "load_coo", no_memory)
    assert run("split", "--input", tmp_path / "x.coo", "--out-train", tmp_path / "a",
               "--out-val", tmp_path / "b", "--out-test", tmp_path / "c") == 3
    assert capsys.readouterr().err == "error: out of memory\n"
    assert os.listdir(tmp_path) == []


def test_swarm_larger_than_memory_is_data_error(tmp_path):
    # Each replica is a small allocation, so without the size check the
    # swarm would grow until the kernel kills the process; the capped child
    # turns such a regression into a failed test.
    (tmp_path / "t.coo").write_text("%dims 4 4 3\n0 0 0 1.0\n1 1 1 2.0\n")
    argv = ["train", "--train", "t.coo", "--val", "t.coo", "--adapt", "--pop", _TB,
            "--out", "m.json", "--report", "r.json"]
    cap = 2 << 30
    src = str(Path(dyntf.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "dyntf.cli", *map(str, argv)], cwd=tmp_path,
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)))
    assert proc.returncode == 3, proc.stderr
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith(f"error: a swarm of {_TB} model replicas needs ")
    assert os.listdir(tmp_path) == ["t.coo"]


def test_unknown_command_exits_nonzero():
    assert run("frobnicate") == 2
