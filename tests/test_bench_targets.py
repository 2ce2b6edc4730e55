"""Every function the benchmark's traced run wraps, and every exported name, exists.

`perfbench/spans.py` rebinds the functions it lists by module and attribute
name; a rename or deletion there would otherwise surface only as a failed
traced benchmark run. The file is read, not imported or changed.
"""

import ast
import importlib
from pathlib import Path

import pytest

import ofdmlab
import ofdmlab.cae
from ofdmlab import harness

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _listed(name: str) -> list[tuple]:
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} is not assigned in {SPANS}")


@pytest.mark.parametrize("span, module, attr", _listed("SPAN_TARGETS"))
def test_span_target_resolves(span, module, attr):
    owner = importlib.import_module(module)
    if "." in attr:
        cls_name, method = attr.split(".")
        owner = getattr(owner, cls_name)
        assert method in vars(owner), f"{span}: {module}.{attr} is not defined on the class"
        return
    assert callable(getattr(owner, attr, None)), f"{span}: {module}.{attr} is missing"


@pytest.mark.parametrize("family, module, attr", _listed("OP_TARGETS"))
def test_op_target_resolves(family, module, attr):
    owner = importlib.import_module(module)
    if attr.startswith("ACTIVATIONS."):
        assert callable(owner.ACTIVATIONS.get(attr.split(".", 1)[1]))
    else:
        assert callable(getattr(owner, attr, None)), f"{family}: {module}.{attr} is missing"


def test_checkpoint_loader_bound_in_harness():
    # the benchmark times checkpoint loads by rebinding this module-level name
    assert callable(harness.load_system)


@pytest.mark.parametrize("package", [ofdmlab, ofdmlab.cae], ids=lambda p: p.__name__)
def test_exported_names_exist(package):
    assert [name for name in package.__all__ if not hasattr(package, name)] == []
