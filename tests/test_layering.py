"""The modules of ``sineq`` depend one way:
measures -> bodies -> integrate -> entropy/moments -> verify -> cli.
Each module may import only modules of a lower layer; entropy and moments
share a layer, so neither imports the other."""

import ast
import math
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "sineq"
LAYERS = {"measures": 0, "bodies": 1, "integrate": 2, "entropy": 3, "moments": 3,
          "verify": 4, "cli": 5}


def package_imports(source: str) -> set[str]:
    """The ``sineq`` modules that ``source`` imports, at any depth (a
    function-local import counts too), relative or absolute."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out |= {a.name.split(".")[1] for a in node.names if a.name.startswith("sineq.")}
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and module.split(".")[0] != "sineq":
                continue
            module = module.removeprefix("sineq").lstrip(".")
            out |= {module.split(".")[0]} if module else {a.name for a in node.names}
    return out


def test_every_module_has_a_layer():
    assert {p.stem for p in SRC.glob("*.py")} - {"__init__"} == set(LAYERS)


@pytest.mark.parametrize("module", sorted(LAYERS))
def test_imports_follow_the_layers(module):
    imported = package_imports((SRC / f"{module}.py").read_text())
    upward = sorted(m for m in imported if LAYERS.get(m, math.inf) >= LAYERS[module])
    assert upward == [], f"{module} imports {upward} from its own layer or above"


def test_every_import_form_is_seen():
    source = """
import numpy as np
import sineq.verify
from . import integrate as _integ
from .bodies import Law
from sineq import cli
from sineq.moments import gauge_norm
from numpy import sqrt

def f():
    from .entropy import entropy
"""
    assert package_imports(source) == {"verify", "integrate", "bodies", "cli", "moments",
                                       "entropy"}
