"""The names the benchmark reads from the package, checked here so that a
dropped or moved export fails the test suite, not only a traced bench run,
and the package's typed errors, each of which ``evcm`` exports.

``bench/adapter.py`` is every call the benchmark makes into ``evcm``. It is
read as source, not imported, and not changed."""

import ast
import importlib
import pkgutil
from pathlib import Path

import evcm

ADAPTER = Path(__file__).resolve().parents[1] / "bench" / "adapter.py"


def adapter_tree() -> ast.Module:
    tree = ast.parse(ADAPTER.read_text(encoding="utf-8"), str(ADAPTER))
    # the package's submodules the adapter imports, as it imports them
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("evcm."):
                    importlib.import_module(alias.name)
    return tree


def resolve(path: str):
    """The module or attribute a dotted path names, the longest importable
    module first, as the benchmark's trace looks its targets up; None if
    it is gone."""
    parts = path.split(".")
    for i in range(len(parts), 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:i]))
        except ImportError:
            continue
        for attr in parts[i:]:
            owner = getattr(owner, attr, None)
        return owner
    return None


def test_every_evcm_name_the_adapter_uses_is_on_evcm():
    names = {node.attr for node in ast.walk(adapter_tree())
             if isinstance(node, ast.Attribute)
             and isinstance(node.value, ast.Name) and node.value.id == "evcm"}
    assert {"BankedAccumulator", "NaiveAccumulator", "CycleParams"} <= names
    assert sorted(name for name in names if not hasattr(evcm, name)) == []


def test_every_trace_target_resolves_to_a_callable():
    (targets,) = [node.value for node in adapter_tree().body
                  if isinstance(node, ast.Assign)
                  and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["TRACE_TARGETS"]]
    pairs = [(ast.literal_eval(t.elts[0]), ast.literal_eval(t.elts[1])) for t in targets.elts]
    assert ("evcm.BankedAccumulator", "read_and_clear") in pairs
    absent = [f"{owner}.{attr}" for owner, attr in pairs
              if not callable(getattr(resolve(owner), attr, None))]
    assert absent == []


def test_every_error_a_module_defines_is_on_evcm():
    modules = [importlib.import_module(f"evcm.{info.name}")
               for info in pkgutil.iter_modules(evcm.__path__)]
    errors = {name: obj for m in modules for name, obj in vars(m).items()
              if isinstance(obj, type) and issubclass(obj, Exception)
              and obj.__module__ == m.__name__}
    assert "OptimizationError" in errors
    assert sorted(name for name, obj in errors.items()
                  if getattr(evcm, name, None) is not obj) == []
