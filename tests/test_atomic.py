import json
import math
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import dyntf.atomic
from dyntf.atomic import write_json

_TEXT = st.lists(st.sampled_from(["a", ",", " ", ", ", '"', "\\", "\n", "\xe9", "[", "{", ": "]),
                max_size=4).map("".join)
_NUMBERS = st.one_of(st.integers(), st.floats(allow_nan=False, allow_infinity=False))
_SCALARS = st.one_of(st.none(), st.booleans(), _NUMBERS, _TEXT)
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(st.lists(_NUMBERS, min_size=1, max_size=6),
                            st.lists(inner, max_size=4),
                            st.dictionaries(_TEXT, inner, max_size=4)),
    max_leaves=20)
# a field may also be a 1-D float array, which json's C encoder writes block by block
_ARRAYS = st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=7).map(np.array)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.dictionaries(_TEXT, st.one_of(_VALUES, _ARRAYS), max_size=6))
@example({"S": [0.5, 1e-300, 3], "n": 2, "e": [], "m": {}, "x": [[1.0], {"a": ", "}]})
@example({})
@example({"A": np.array([0.1, 2.0, 1e-300, 5e300, -0.0]), "E": np.array([]),
          "n": {"a": {"b": [[3.5], {}, []]}, "c": {}}})
def test_write_json_matches_json_dumps_indent_2(tmp_path, monkeypatch, doc):
    # blocks of 2 values, so that small arrays span several blocks
    monkeypatch.setattr(dyntf.atomic, "_BLOCK", 2)
    path = tmp_path / "doc.json"
    write_json(path, doc)
    lists = {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in doc.items()}
    assert path.read_bytes() == (json.dumps(lists, indent=2) + "\n").encode()


@pytest.mark.parametrize("doc", [{"S": [1.0, math.nan]}, {"lambda": math.inf},
                                 {"x": [{"y": [-math.inf]}]}, {"x": ["a", math.nan]},
                                 {"S": np.array([1.0, 2.0, math.inf])}])
def test_write_json_refuses_non_finite_and_keeps_the_file(tmp_path, doc):
    target = tmp_path / "out.json"
    target.write_text("old\n")
    with pytest.raises(ValueError, match="Out of range float"):
        write_json(target, doc)
    assert os.listdir(tmp_path) == ["out.json"]
    assert target.read_text() == "old\n"
