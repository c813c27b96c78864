import json
import os
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

import dyntf
from dyntf.atomic import write_json
from dyntf.cli import main


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
    # a bad flag value, not bad data: exit 2 naming the flag, before any file is read
    monkeypatch.chdir(workspace)
    before = sorted(os.listdir(workspace))
    capsys.readouterr()
    assert run(command, *flags, flag, 0) == 2
    assert f"argument {flag}: must be a positive integer" in capsys.readouterr().err
    assert sorted(os.listdir(workspace)) == before


class TestSplit:
    def test_parts_partition_input(self, workspace):
        full = dyntf.load_coo(workspace / "data.coo")
        parts = [dyntf.load_coo(workspace / f) for f in ("tr.coo", "va.coo", "te.coo")]
        assert sum(p.n_entries for p in parts) == full.n_entries
        merged = set()
        for p in parts:
            merged |= set(p.entries)
        assert merged == set(full.entries)

    def test_bad_ratios_usage_error(self, workspace):
        assert run("split", "--input", workspace / "data.coo", "--ratios", "1,2",
                   "--out-train", workspace / "a", "--out-val", workspace / "b",
                   "--out-test", workspace / "c") == 2

    def test_zero_part_is_data_error(self, workspace):
        assert run("split", "--input", workspace / "data.coo", "--ratios", "1,0,0",
                   "--out-train", workspace / "a", "--out-val", workspace / "b",
                   "--out-test", workspace / "c") == 3

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
        assert np.array_equal(model.weights.w, np.eye(10))

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

    def test_report_written_before_model(self, workspace, monkeypatch):
        def full_disk(*args, **kwargs):
            raise OSError("No space left on device")

        monkeypatch.setattr(dyntf.cli, "save_model", full_disk)
        assert _train(workspace, "--lambda", 0.01, "--lambda-b", 0.01,
                      "--max-epochs", 3) == 3
        assert (workspace / "r.json").exists()
        assert not (workspace / "m.json").exists()

    def test_divergence_exit_code(self, workspace):
        assert _train(workspace, "--lambda", 0, "--lambda-b", 0,
                      "--max-epochs", 5, "--init-scale", "1e200") == 4


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
        big.write_text("%dims 99 99 10\n50 0 0 1.0\n")
        assert run("evaluate", "--model", workspace / "m.json", "--test", big,
                   "--report", workspace / "ev.json") == 3
        assert "dimension mismatch" in capsys.readouterr().err

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
            weights=dyntf.TemporalWeights(band=np.zeros((2, 0))))
        path = tmp_path / "m.json"
        dyntf.save_model(m, dyntf.HyperParams(0.0, 0.0), path)
        assert run("predict", "--model", path, "--i", 0, "--j", 1, "--k", 0) == 0
        assert float(capsys.readouterr().out) == 6.0

    def test_matches_stored_noiseless_value(self, tmp_path, capsys):
        assert run("generate", "--nodes", 10, "--slots", 4, "--density", 0.4,
                   "--noise", 0, "--seed", 1, "--out", tmp_path / "d.coo",
                   "--truth-out", tmp_path / "t.json") == 0
        data = dyntf.load_coo(tmp_path / "d.coo")
        e = data.entries[11]
        assert run("predict", "--model", tmp_path / "t.json",
                   "--i", e.i, "--j", e.j, "--k", e.k) == 0
        got = float(capsys.readouterr().out)
        assert abs(got - e.value) <= 1e-12

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
        weights=dyntf.TemporalWeights(band=np.zeros((2, 0))))
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

    @pytest.mark.parametrize("name", ["n_nodes", "n_slots", "rank"])
    def test_negative_dimension_is_named(self, tmp_path, capsys, name):
        # reshape reads -1 as "infer this dimension", so the arrays alone
        # would still fit
        m = dyntf.init_positive(3, 2, 1, 0, seed=0)
        doc = dyntf.model_to_dict(m, dyntf.HyperParams(0.0, 0.0))
        doc[name] = -1
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        assert self._predict(path) == 3
        assert f"'{name}'" in capsys.readouterr().err

    def test_top_level_list_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text("[1, 2, 3]\n")
        assert self._predict(path) == 3
        assert "JSON object" in capsys.readouterr().err

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
        weights=dyntf.TemporalWeights(band=np.zeros((1, 0))))
    # json.dump writes the factors before it meets the object it cannot encode
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


def test_unknown_command_exits_nonzero():
    assert run("frobnicate") == 2
