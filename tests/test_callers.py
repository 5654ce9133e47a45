"""Every public function, class and method of the package has a caller
outside the tests.

A name counts as called when it appears as a word in the code of ``src/``,
``demos/`` or ``benchmarks/*.py`` (an identifier, an attribute, or a word of
a string that is not a docstring; an import is not a use) outside its own
definition and outside the definitions of names that are themselves
uncalled.  ``benchmarks/test_checks.py`` is a test and does not count.  A
name that collides with another identifier (``copy``, ``centers``) always
looks called: this is a guard, not a proof.
"""

import ast
import os
import re
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cardioshape"

# Public names kept without a caller outside the tests, each for a reason.
ALLOWED = {
    "extract_surface_points": "the voxeliser's oracle in tests/test_synth.py",
    "load_volume": "defines the format that save_volume writes",
    "load_grids": "defines the format that save_grids writes",
}


def _definitions():
    """(name, path, first line, last line) of every public top-level function
    and class, and of every public method of a top-level class."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            nodes = [node]
            if isinstance(node, ast.ClassDef):
                nodes += node.body
            for n in nodes:
                if isinstance(n, (ast.FunctionDef, ast.ClassDef)) and not n.name.startswith("_"):
                    yield n.name, path, n.lineno, n.end_lineno


def _docstrings(tree):
    return {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
        and node.body
        and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
    }


def _word_uses():
    """{word: [(path, line), ...]} over the code that may call the package."""
    paths = sorted(ROOT.glob("src/**/*.py")) + sorted(ROOT.glob("demos/*.py"))
    paths += [p for p in sorted(ROOT.glob("benchmarks/*.py")) if p.name != "test_checks.py"]
    uses = defaultdict(list)
    for path in paths:
        tree = ast.parse(path.read_text())
        docstrings = _docstrings(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                words = [node.id]
            elif isinstance(node, ast.Attribute):
                words = [node.attr]
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                words = [] if id(node) in docstrings else re.findall(r"\w+", node.value)
            else:
                continue
            for word in words:
                uses[word].append((path, node.lineno))
    return uses


def _inside(use, spans):
    path, line = use
    return any(path == p and a <= line <= b for p, a, b in spans)


def uncalled_names():
    """Public names with no use outside their own definition, where uses
    inside other uncalled definitions do not count either."""
    definitions = list(_definitions())
    uses = _word_uses()
    uncalled = set()
    while True:
        dead = [(path, a, b) for name, path, a, b in definitions if name in uncalled]
        found = {
            name
            for name, path, a, b in definitions
            if name not in uncalled
            and all(_inside(use, dead + [(path, a, b)]) for use in uses[name])
        }
        if not found:
            return uncalled
        uncalled |= found


def test_every_public_name_has_a_caller():
    missing = sorted(uncalled_names() - set(ALLOWED))
    assert not missing, f"no caller outside the tests: {', '.join(missing)}"


def test_allowed_names_exist_and_lack_a_caller():
    # an allowed name that gains a caller, or goes, leaves the list
    assert set(ALLOWED) <= uncalled_names()


def test_benchmark_tracer_installs():
    # benchmarks/tracing.py looks up by name each function it wraps, such as
    # motion._bilinear, mc_objective, eval_intersections, mc_optimize and
    # optim.Adam.step; a rename or removal makes install fail
    code = "import cardioshape, tracing; tracing.install(tracing.Tracer(), cardioshape)"
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    result = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT / "benchmarks", capture_output=True,
        text=True, timeout=300, env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 0, result.stderr
