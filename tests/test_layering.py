"""The package's import layering, read from the source with ast.

Each module imports only modules of strictly lower layers:
errors -> geom -> grid -> formats -> {sketch, metrics, losses} -> {lift, synth} -> cli.
So the codec sits below the domain modules, and a JSON document's reader
sits beside the types it builds (scenes in synth, class weights in losses).
Every import of the package counts, relative or absolute, at module level
or inside a function; the source is parsed, not imported, so a cycle fails
here with the offending module named.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

LAYERS = (("errors",), ("geom",), ("grid",), ("formats",), ("sketch", "metrics", "losses"), ("lift", "synth"), ("cli",))
LAYER = {name: i for i, names in enumerate(LAYERS) for name in names}
SOURCE = Path(importlib.util.find_spec("cylocc").submodule_search_locations[0])


def package_imports(path: Path) -> set[str]:
    """The package modules a source file imports."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and not (node.module or "").startswith("cylocc"):
                continue
            module = (node.module or "").removeprefix("cylocc").lstrip(".")
            found.update([module.split(".")[0]] if module else (a.name for a in node.names))
        elif isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names if a.name.startswith("cylocc."))
    return found


def test_every_module_has_one_layer():
    assert {p.stem for p in SOURCE.glob("*.py")} - {"__init__"} == set(LAYER)


@pytest.mark.parametrize("module", list(LAYER))
def test_imports_only_lower_layers(module):
    imported = package_imports(SOURCE / f"{module}.py")
    assert imported <= set(LAYER), f"{module} imports {sorted(imported - set(LAYER))}, which have no layer"
    upward = sorted(m for m in imported if LAYER[m] >= LAYER[module])
    assert not upward, f"{module} (layer {LAYER[module]}) imports {upward} from its own layer or above"


def test_import_reader_sees_every_form(tmp_path):
    src = tmp_path / "probe.py"
    src.write_text(
        "from . import lift as lift_mod\nfrom .synth import Scene\nimport cylocc.metrics\n"
        "from cylocc.losses import class_weights\nimport numpy\nfrom math import pi\n"
        "def f():\n    from .grid import GridSpec\n"
    )
    assert package_imports(src) == {"lift", "synth", "metrics", "losses", "grid"}
