"""Every public function, class and method of the package has a caller
outside the tests, and every default of the package is both used and
overridden by such a caller.

A name counts as called when it appears as a word in the code of ``src/``,
``demos/`` or ``benchmarks/*.py`` (an identifier, an attribute, or a word of
a string that is not a docstring; an import is not a use) outside its own
definition and outside the definitions of names that are themselves
uncalled.  ``benchmarks/test_checks.py`` is a test and does not count.  A
name that collides with another identifier (``copy``, ``centers``) always
looks called: this is a guard, not a proof.

A default (a defaulted parameter, or a defaulted field of a dataclass) is
checked against the calls of ``src/``, ``demos/`` and ``benchmarks/*.py``
that reach its function, method or class by name.  A default that no such
call omits should be required; one that no such call sets should be a
constant.  A function passed as a value (``timed(fn, ...)``, a dict of
checks) and a call with ``*args`` or ``**kwargs`` count as both omitting and
setting every default they may reach.

Every flag that a command (or an ``ssm`` action) of the CLI takes is read by
it, as ``args.<dest>`` in its function, in ``main`` or in a ``cli`` function
that either of them passes ``args`` to.
"""

import argparse
import ast
import os
import re
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

from cardioshape.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cardioshape"

# Public names kept without a caller outside the tests, each for a reason.
ALLOWED = {
    "extract_surface_points": "the voxeliser's oracle in tests/test_synth.py",
    "load_volume": "defines the format that save_volume writes",
    "load_grids": "defines the format that save_grids writes",
}

# Flags that a command takes without reading them, each for a reason.
UNREAD_FLAGS = {
    "seed": "only synth and retrieve read it, but criterion 10 and the cohort_cli "
    "benchmark workload pass it to every command",
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


def _is_dataclass(node):
    return any(
        (d.id if isinstance(d, ast.Name) else getattr(d, "attr", None)) == "dataclass"
        for d in node.decorator_list
    )


def _signature(fn, method):
    """(positional parameters, defaulted parameters) of a def; a method's
    first positional parameter is bound by its call."""
    a = fn.args
    positional = [p.arg for p in a.posonlyargs + a.args]
    defaulted = positional[len(positional) - len(a.defaults):] if a.defaults else []
    defaulted += [p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
    static = any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
    if method and not static:
        positional = positional[1:]
    return positional, defaulted


def _callables():
    """{(kind, name): [(label, positional, defaulted)]} for the
    package: kind "function" or "class", reached by a bare or
    module-qualified name, or "method", reached through an object.  A class
    stands for its ``__init__`` or its dataclass fields."""
    found = defaultdict(list)
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem

        def visit(body, owner=None):
            for node in body:
                if isinstance(node, ast.ClassDef):
                    if _is_dataclass(node):
                        fields = [n for n in node.body if isinstance(n, ast.AnnAssign)]
                        names = [n.target.id for n in fields]
                        # the fields after a ``_: KW_ONLY`` are keyword-only
                        kw_only = [getattr(n.annotation, "id", None) for n in fields]
                        positional = names[: kw_only.index("KW_ONLY")] if "KW_ONLY" in kw_only else names
                        defaulted = [n.target.id for n in fields if n.value is not None]
                        found["class", node.name].append((f"{module}.{node.name}", positional, defaulted))
                    for n in node.body:
                        if isinstance(n, ast.FunctionDef) and n.name == "__init__":
                            found["class", node.name].append(
                                (f"{module}.{node.name}", *_signature(n, True))
                            )
                    visit(node.body, node.name)
                elif isinstance(node, ast.FunctionDef):
                    if owner is None:
                        found["function", node.name].append(
                            (f"{module}.{node.name}", *_signature(node, False))
                        )
                    elif node.name != "__init__":
                        found["method", node.name].append(
                            (f"{module}.{owner}.{node.name}", *_signature(node, True))
                        )
                    visit(node.body)  # nested defs are functions

        visit(ast.parse(path.read_text()).body)
    return found


def package_defaults():
    """Every default of the package as ``module.owner(name)``."""
    return sorted(
        {f"{label}({name})" for entries in _callables().values() for label, _, d in entries for name in d}
    )


def _bindings(tree):
    """{local name: what it is}: a package module, a package definition (its
    own name), or something from outside the package (``None``)."""
    modules = {p.stem for p in PACKAGE.glob("*.py")}
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                name = a.asname or a.name.split(".")[0]
                inside = a.name.startswith("cardioshape.") and a.asname
                bound[name] = ("module", a.name.split(".")[-1]) if inside else None
        elif isinstance(node, ast.ImportFrom):
            inside = node.level > 0 or (node.module or "").split(".")[0] == "cardioshape"
            for a in node.names:
                local = a.asname or a.name
                if not inside:
                    bound[local] = None
                elif a.name in modules and (node.module in (None, "cardioshape")):
                    bound[local] = ("module", a.name)
                else:
                    bound[local] = ("def", a.name)
    return bound


def _root(node):
    while isinstance(node, (ast.Attribute, ast.Call, ast.Subscript)):
        node = node.func if isinstance(node, ast.Call) else node.value
    return node.id if isinstance(node, ast.Name) else None


def default_uses():
    """{"module.owner(name)": {"omitted", "set"}} over the calls that may
    reach each default from ``src/``, ``demos/`` and ``benchmarks/*.py``."""
    callables = _callables()
    uses = defaultdict(set)
    paths = sorted(ROOT.glob("src/**/*.py")) + sorted(ROOT.glob("demos/*.py"))
    paths += [p for p in sorted(ROOT.glob("benchmarks/*.py")) if p.name != "test_checks.py"]

    def record(entries, call=None):
        for label, positional, defaulted in entries:
            for name in defaulted:
                key = f"{label}({name})"
                if call is None or any(isinstance(a, ast.Starred) for a in call.args) or any(
                    k.arg is None for k in call.keywords
                ):
                    uses[key] |= {"omitted", "set"}
                elif name in {k.arg for k in call.keywords} or (
                    name in positional and positional.index(name) < len(call.args)
                ):
                    uses[key].add("set")
                else:
                    uses[key].add("omitted")

    for path in paths:
        tree = ast.parse(path.read_text())
        bound = _bindings(tree)
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}

        def target(func, owner_class, kinds=("function", "class")):
            """The entries that a call's ``func``, or a value, may name."""
            if isinstance(func, ast.Name):
                if func.id == "cls" and owner_class:
                    return callables.get(("class", owner_class), [])
                what = bound.get(func.id, ("def", func.id))
                name = None if what is None or what[0] != "def" else what[1]
            elif isinstance(func, ast.Attribute):
                root = _root(func)
                if root in bound and bound[root] is None:
                    return []  # numpy, scipy, the standard library
                receiver = func.value
                name = func.attr
                if not (isinstance(receiver, ast.Name) and bound.get(receiver.id, ("",))[0] == "module"):
                    kinds = ("method",)
            else:
                return []
            return [e for kind in kinds for e in callables.get((kind, name), [])]

        def walk(node, owner_class=None):
            for child in ast.iter_child_nodes(node):
                owner = child.name if isinstance(child, ast.ClassDef) else owner_class
                if isinstance(child, ast.Call):
                    record(target(child.func, owner), child)
                elif isinstance(child, (ast.Name, ast.Attribute)) and isinstance(child.ctx, ast.Load):
                    parent = parents.get(child)
                    called = isinstance(parent, ast.Call) and parent.func is child
                    receiver = isinstance(parent, ast.Attribute)
                    type_check = isinstance(parent, ast.Call) and getattr(parent.func, "id", "") in (
                        "isinstance", "issubclass"
                    )
                    annotation = isinstance(parent, (ast.AnnAssign, ast.arg)) and parent.annotation is child
                    if not (called or receiver or type_check or annotation):
                        # a function passed as a value; a class so passed is
                        # a type to check or wrap, not a call
                        record(target(child, owner, ("function", "method")))
                walk(child, owner)

        walk(tree)
    return uses


def unused_defaults():
    """{"module.owner(name)": reason} for each default that no caller
    omits, or that no caller sets; owners on ``ALLOWED`` are skipped."""
    uses = default_uses()
    out = {}
    for key in package_defaults():
        if key.split("(")[0].split(".")[-1] in ALLOWED:
            continue
        seen = uses.get(key, set())
        if "omitted" not in seen:
            out[key] = "never omitted: make it required"
        elif "set" not in seen:
            out[key] = "never set: make it a constant"
    return out


def test_every_public_name_has_a_caller():
    missing = sorted(uncalled_names() - set(ALLOWED))
    assert not missing, f"no caller outside the tests: {', '.join(missing)}"


def test_allowed_names_exist_and_lack_a_caller():
    # an allowed name that gains a caller, or goes, leaves the list
    assert set(ALLOWED) <= uncalled_names()


def test_every_default_is_omitted_and_set_by_a_caller():
    flagged = unused_defaults()
    assert not flagged, "\n".join(f"{k}: {v}" for k, v in flagged.items())


def _commands(parser, words=()):
    """(words, parser) of every CLI command and ``ssm`` action."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for word, sub in action.choices.items():
                yield from _commands(sub, words + (word,))
    if parser.get_default("func") is not None:
        yield " ".join(words), parser


def _args_reads(names, functions):
    """The ``args.<name>`` reads of the named ``cli`` functions and of every
    ``cli`` function they pass ``args`` to, transitively."""
    reads, todo, seen = set(), list(names), set(names)
    while todo:
        for node in ast.walk(functions[todo.pop()]):
            if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "args":
                reads.add(node.attr)
            elif (
                isinstance(node, ast.Call)
                and getattr(node.func, "id", None) in functions.keys() - seen
                and any(getattr(a, "id", None) == "args" for a in node.args)
            ):
                seen.add(node.func.id)
                todo.append(node.func.id)
    return reads


def test_every_flag_is_read_by_its_command():
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    functions = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    unread = []
    for command, parser in _commands(build_parser()):
        reads = _args_reads(["main", parser.get_default("func").__name__], functions)
        unread += [
            f"{command} --{a.dest.replace('_', '-')}"
            for a in parser._actions
            if a.dest != "help" and a.dest not in reads | UNREAD_FLAGS.keys()
        ]
    assert not unread, f"flags no code reads: {', '.join(unread)}"


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
