"""Hypothesis fuzz of the command line.

Every subcommand gets a few of its flags replaced by hostile values, and
evaluate/predict also get mutated model JSON. Whatever the input, a run
must exit 0, 2, 3 or 4 without an exception escaping `main`, print an
`error:` line when it fails, leave no temporary file behind and write
only JSON that a strict parser accepts. Sizes stay tiny (8 nodes, rank 2,
3 epochs, a swarm of at most 6) and `--threads` is never drawn above 2.
"""

import contextlib
import io
import json
import math
import os
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import dyntf
from dyntf.cli import main

FUZZ = ["nan", "inf", "-inf", "-1", "0", "1e-300", "1e308", "x"]
THREADS = ["-1", "0", "1", "2", "nan", "x"]
FUZZ_SETTINGS = settings(max_examples=150, deadline=None,
                         suppress_health_check=[HealthCheck.too_slow])


def _in_list(valid: str):
    """One comma-separated component of `valid` replaced by a fuzz value."""
    parts = valid.split(",")
    return st.tuples(st.integers(0, len(parts) - 1), st.sampled_from(FUZZ)).map(
        lambda t: ",".join(t[1] if q == t[0] else p for q, p in enumerate(parts)))


def _argv(data, valid: dict, special=None):
    """Flags with their valid values, at most three of them fuzzed."""
    special = special or {}
    values = dict(valid)
    for flag in data.draw(st.sets(st.sampled_from(sorted(valid)), max_size=3)):
        values[flag] = data.draw(special.get(flag, st.sampled_from(FUZZ + [valid[flag]])))
    return [tok for flag, value in values.items() for tok in (flag, value)]


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def _run_checked(argv, workdir):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    assert code in (0, 2, 3, 4), (argv, code, err.getvalue())
    lines = err.getvalue().splitlines()
    assert not any("Traceback" in line for line in lines)
    if code:
        assert sum("error: " in line for line in lines) == 1, (argv, lines)
        assert out.getvalue() == ""
    names = os.listdir(workdir)
    assert not [n for n in names if n.endswith(".tmp")], names
    for name in names:
        if name.endswith(".json"):
            with open(os.path.join(workdir, name), encoding="utf-8") as fh:
                json.loads(fh.read(), parse_constant=_reject_constant)
    return code, out.getvalue()


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A tiny split dataset and a model trained on it."""
    base = tmp_path_factory.mktemp("fuzz_inputs")
    data, _ = dyntf.generate_synthetic(8, 4, 2, 0.3, 0.5, 0.01, seed=3)
    dyntf.save_coo(data, base / "data.coo")
    parts = dyntf.split(data, (7, 1, 2), seed=3)
    for name, part in (("tr", parts.train), ("va", parts.validation), ("te", parts.test)):
        dyntf.save_coo(part, base / f"{name}.coo")
    model, _ = dyntf.train(dyntf.init_positive(8, 4, 2, 3, seed=3), parts.train,
                           parts.validation, dyntf.HyperParams(0.01, 0.01),
                           dyntf.TrainConfig(max_epochs=3))
    dyntf.save_model(model, dyntf.HyperParams(0.01, 0.01), base / "m.json")
    return base


@FUZZ_SETTINGS
@given(st.data())
def test_generate(inputs, data):
    with tempfile.TemporaryDirectory(dir=inputs) as work:
        argv = _argv(data, {"--nodes": "6", "--slots": "4", "--rank": "2",
                            "--density": "0.3", "--ar": "0.5", "--noise": "0.01",
                            "--seed": "1"})
        _run_checked(["generate", *argv, "--out", f"{work}/g.coo",
                      "--truth-out", f"{work}/t.json"], work)


@FUZZ_SETTINGS
@given(st.data())
def test_split(inputs, data):
    with tempfile.TemporaryDirectory(dir=inputs) as work:
        argv = _argv(data, {"--ratios": "7,1,2", "--seed": "1", "--nodes": "8",
                            "--slots": "4"},
                     {"--ratios": _in_list("7,1,2")})
        _run_checked(["split", "--input", inputs / "data.coo", *argv,
                      "--out-train", f"{work}/a.coo", "--out-val", f"{work}/b.coo",
                      "--out-test", f"{work}/c.coo"], work)


_TRAIN = {"--rank": "2", "--window": "2", "--max-epochs": "3", "--tol": "1e-5",
          "--init-scale": "0.1", "--seed": "1", "--threads": "1"}


@FUZZ_SETTINGS
@given(st.data())
def test_train_fixed(inputs, data):
    with tempfile.TemporaryDirectory(dir=inputs) as work:
        argv = _argv(data, {**_TRAIN, "--lambda": "0.01", "--lambda-b": "0.01"},
                     {"--threads": st.sampled_from(THREADS)})
        _run_checked(["train", "--train", inputs / "tr.coo", "--val", inputs / "va.coo",
                      *argv, "--out", f"{work}/m.json", "--report", f"{work}/r.json"], work)


@FUZZ_SETTINGS
@given(st.data())
def test_train_adapt(inputs, data):
    with tempfile.TemporaryDirectory(dir=inputs) as work:
        argv = _argv(data, {**_TRAIN, "--pop": "4", "--scale-factor": "0.4", "--cp": "0.9",
                            "--bounds": "1e-4,0.5,1e-4,0.5", "--best-rule": "paper_f"},
                     {"--threads": st.sampled_from(THREADS),
                      "--pop": st.sampled_from(["-1", "0", "4", "6", "nan", "x"]),
                      "--bounds": _in_list("1e-4,0.5,1e-4,0.5")})
        _run_checked(["train", "--train", inputs / "tr.coo", "--val", inputs / "va.coo",
                      "--adapt", *argv, "--out", f"{work}/m.json",
                      "--report", f"{work}/r.json"], work)


def _mutations(doc):
    """Strategies of broken copies of a model document."""
    lists = sorted(k for k, v in doc.items() if isinstance(v, list))
    dims = ["n_nodes", "n_slots", "rank", "window"]

    def drop(key):
        return {k: v for k, v in doc.items() if k != key}

    def with_value(key, value):
        return {**doc, key: value}

    def resized(key, delta):
        return with_value(key, doc[key][:-1] if delta < 0 else doc[key] + [0.5])

    def poisoned(key, value):
        return with_value(key, [value] + doc[key][1:])

    return st.one_of(
        st.just(doc),
        st.sampled_from(sorted(doc)).map(drop),
        st.tuples(st.sampled_from(dims), st.sampled_from([-1, -5, 0, 10**6, math.inf, -math.inf, 2.5,
                                                      "x", None]))
        .map(lambda t: with_value(*t)),
        st.tuples(st.sampled_from(lists), st.sampled_from([-1, 1])).map(lambda t: resized(*t)),
        st.tuples(st.sampled_from(lists),
                  st.sampled_from([math.nan, math.inf, -1.0, 1e300, "x", None]))
        .map(lambda t: poisoned(*t)),
        st.sampled_from([[], [doc], 1, "model", None]),
    )


def _write_model(inputs, work, data):
    """A mutated model, named so that the strict JSON check skips it."""
    doc = json.loads((inputs / "m.json").read_text())
    path = os.path.join(work, "model.in")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data.draw(_mutations(doc)), fh)  # allow_nan: NaN literals on purpose
    return path


@FUZZ_SETTINGS
@given(st.data())
def test_evaluate(inputs, data):
    with tempfile.TemporaryDirectory(dir=inputs) as work:
        model = _write_model(inputs, work, data)
        _run_checked(["evaluate", "--model", model, "--test", inputs / "te.coo",
                      "--report", f"{work}/ev.json"], work)


@FUZZ_SETTINGS
@given(st.data())
def test_predict(inputs, data):
    with tempfile.TemporaryDirectory(dir=inputs) as work:
        model = _write_model(inputs, work, data)
        argv = _argv(data, {"--i": "1", "--j": "2", "--k": "3"})
        code, out = _run_checked(["predict", "--model", model, *argv], work)
        if code == 0:
            assert math.isfinite(float(out))
