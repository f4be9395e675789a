"""perfbench's tracer still fits the library.

``perfbench/layers.py`` wraps library functions by name, so deleting or
renaming one of them breaks ``perfbench/run.py --trace 1`` and nothing
else. This test opens and closes one traced block, with no trial run, and
checks that every wrapped attribute was swapped out and then put back.
"""
import importlib.util
from pathlib import Path

LAYERS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def raw(owner, attr):
    """The object stored under ``attr``: a staticmethod stays one, and a
    name missing from a class raises KeyError, as in ``layers.patched``."""
    return owner[attr] if isinstance(owner, dict) else owner.__dict__[attr]


def test_tracer_wraps_and_restores_every_name():
    layers = load_layers()
    targets = [
        (ns, name)
        for _, owner, attr in layers.SPANS + layers.COUNTS
        for ns, name in layers._aliases(owner, attr)
    ]
    targets += [(table, kind) for _, table in layers.TABLE_SPANS for kind in table]
    assert len(targets) >= len(layers.SPANS) + len(layers.COUNTS)
    before = [raw(ns, name) for ns, name in targets]
    with layers.Tracer().traced():
        inside = [raw(ns, name) for ns, name in targets]
    after = [raw(ns, name) for ns, name in targets]
    assert all(new is not old for new, old in zip(inside, before))
    assert all(new is old for new, old in zip(after, before))
