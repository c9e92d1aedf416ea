"""The traced benchmark wraps sympdiv functions by name (`LAYERS` in
perfbench/spans.py).  A rename or a moved method would silently drop its
span, so every name must still resolve: a function in its module, a method in
its class's own __dict__ (where the tracer looks it up)."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _layers():
    tree = ast.parse(SPANS.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("no LAYERS in perfbench/spans.py")


LAYERS = _layers()


def test_layers_found():
    assert len(LAYERS) > 20


@pytest.mark.parametrize("module,attr,span", LAYERS)
def test_layer_resolves(module, attr, span):
    mod = importlib.import_module(f"sympdiv.{module}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        assert callable(vars(getattr(mod, cls_name)).get(meth)), f"{attr} in {module}"
    else:
        assert callable(getattr(mod, attr, None)), f"{attr} in {module}"
