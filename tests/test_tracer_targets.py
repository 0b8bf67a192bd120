"""Every function the benchmark's tracer wraps exists in the program, so
that a rename fails here rather than in a traced benchmark run.  The
tracer's file is parsed, not imported or changed."""

import ast
import importlib
import os

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
TRACER = os.path.join(ROOT, "perfbench", "tracer.py")


def _targets():
    """The (module, attribute path) pairs of the tracer's TARGETS list."""
    with open(TRACER, encoding="utf-8") as f:
        tree = ast.parse(f.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return [(e.elts[0].value, e.elts[1].value) for e in node.value.elts]
    raise AssertionError("perfbench/tracer.py defines no TARGETS list")


TARGETS = _targets()


def test_tracer_targets_listed():
    assert TARGETS


@pytest.mark.parametrize("modname,path", TARGETS, ids=[f"{m}:{p}" for m, p in TARGETS])
def test_tracer_target_resolves_in_src(modname, path):
    mod = importlib.import_module(modname)
    src = os.path.realpath(os.path.join(ROOT, "src"))
    assert os.path.realpath(mod.__file__).startswith(src + os.sep)
    owner = mod
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    # the tracer takes a method from its class's own namespace
    found = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    assert callable(found), f"{modname}.{path} is not a function of the program"
