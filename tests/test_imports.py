"""``src/coretorus`` imports nothing outside the standard library and itself."""
import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "coretorus"


def stray_imports(source):
    """Top-level names of the absolute imports in ``source`` that are
    neither standard library modules nor the package; relative imports are
    the package's own."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return [n for n in names
            if n.split(".")[0] not in sys.stdlib_module_names and n.split(".")[0] != "coretorus"]


def test_stray_imports_finds_third_party_modules():
    source = ("import numpy as np\nfrom scipy.optimize import linprog\nimport os.path\n"
              "from . import normal\nfrom coretorus.slopes import fib\n"
              "def f():\n    import sympy\n")
    assert stray_imports(source) == ["numpy", "scipy.optimize", "sympy"]


def test_package_imports_only_the_standard_library():
    files = sorted(PACKAGE.glob("*.py"))
    assert len(files) > 10
    assert {p.name: stray_imports(p.read_text()) for p in files} == {p.name: [] for p in files}
