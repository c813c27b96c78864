"""The bench harness traces dyntf functions by name; every name it lists
must still exist, or a traced bench run fails long after the refactor
that dropped it."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # defines TARGETS; installs nothing
    return module.TARGETS


@pytest.mark.parametrize("owner, attr, span", _targets())
def test_traced_name_resolves(owner, attr, span):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    if cls:
        obj = getattr(obj, cls)
    assert callable(getattr(obj, attr, None)), f"{owner}.{attr} (span {span}) is gone"
