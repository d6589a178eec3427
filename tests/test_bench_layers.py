"""The bench's tracer wraps molspace functions by name; a rename must fail
here, not in the middle of a ``--trace 1`` run."""

import importlib
import types
from pathlib import Path

LAYERS = Path(__file__).resolve().parent.parent / "bench" / "layers.py"


def load_layers():
    """bench/layers.py as a module, read without writing bytecode."""
    module = types.ModuleType("bench_layers")
    exec(compile(LAYERS.read_text(encoding="utf-8"), str(LAYERS), "exec"),
         module.__dict__)
    return module


def test_every_traced_function_exists():
    layers = load_layers()
    for mod_name, fn_name in layers.TARGETS:
        module = importlib.import_module(f"molspace.{mod_name}")
        assert callable(getattr(module, fn_name, None)), f"{mod_name}.{fn_name}"


def test_install_then_uninstall_leaves_every_module_as_it_was():
    layers = load_layers()
    modules = [importlib.import_module(f"molspace.{m}") for m in layers.MODULES]
    before = [dict(vars(module)) for module in modules]
    tracer = layers.Tracer()
    tracer.install()
    try:
        for mod_name, fn_name in layers.TARGETS:
            home = importlib.import_module(f"molspace.{mod_name}")
            assert getattr(home, fn_name).__name__ == "wrapper", f"{mod_name}.{fn_name}"
    finally:
        tracer.uninstall()
    after = [dict(vars(module)) for module in modules]
    for module, old, new in zip(modules, before, after):
        assert old.keys() == new.keys(), module.__name__
        changed = [name for name in old if old[name] is not new[name]]
        assert changed == [], module.__name__
