"""The benchmark's tracer wraps synrec functions by module attribute
(`SPANNED` in perfbench/layertrace.py): each of them must still exist, or
`perfbench/run.py --trace 1` breaks."""

import ast
import importlib

from conftest import ROOT


def _spanned() -> dict:
    tree = ast.parse((ROOT / "perfbench" / "layertrace.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["SPANNED"]:
            return ast.literal_eval(node.value)
    raise AssertionError("layertrace.py defines no SPANNED")


def test_every_spanned_attribute_exists():
    spanned = _spanned()
    assert "synrec.pipeline" in spanned and "synrec.cegis" in spanned
    for module, attrs in spanned.items():
        mod = importlib.import_module(module)
        for attr in attrs:
            assert callable(getattr(mod, attr, None)), f"{module}.{attr}"


def test_hot_calls_exist():
    # counted apart from the spans: the reference re-check and input enumeration
    cegis = importlib.import_module("synrec.cegis")
    assert callable(cegis.evaluate_harness) and callable(cegis.iter_inputs)
