"""Checks on the package's source text, the README's examples and the
node-table tool."""

import ast
import io
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import bbforest
from bbforest import (cli, complete_balanced, core, emit_bbg, errors,
                      generators, solver, theorems)

from .helpers import SerialPool

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "bbforest"
MODULES = sorted(SRC.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    # python -O strips assert statements, so no check the package relies
    # on may live in one
    lines = [node.lineno for node in ast.walk(_tree(path))
             if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name}: assert at lines {lines}"


def _imports(tree):
    # (bound name, line) of each module-level import
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _exported(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__"
                        for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    # an import the module never reads is dead weight, unless the module
    # re-exports it through __all__
    tree = _tree(path)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    unused = [(name, line) for name, line in _imports(tree)
              if name not in read | _exported(tree)]
    assert unused == [], f"{path.name}: unused imports {unused}"


def test_package_exports_every_module_export():
    error_classes = {name for name, obj in vars(errors).items()
                     if isinstance(obj, type) and issubclass(obj, Exception)}
    expected = (set(core.__all__) | set(generators.__all__)
                | set(solver.__all__) | set(theorems.__all__)
                | error_classes | {"__version__"})
    assert sorted(bbforest.__all__) == sorted(expected)


def _private_definitions(tree):
    # (name, line) of each private function, class and constant at module
    # level, and of each private method and class attribute of a
    # module-level class
    classes = [node for node in tree.body if isinstance(node, ast.ClassDef)]
    for scope in [tree, *classes]:
        for node in scope.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                found = [node.name]
            elif isinstance(node, ast.Assign):
                found = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign):
                found = [getattr(node.target, "id", "")]
            else:
                continue
            for name in found:
                if name.startswith("_") and not name.startswith("__"):
                    yield name, node.lineno


def test_every_private_definition_is_read():
    # a private function, class, constant, method or class attribute no
    # module reads is dead code, such as a bound left behind after its test
    # was inlined, or a method left behind after its caller went
    trees = {path.name: _tree(path) for path in MODULES}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unread = [(name, path, line) for path, tree in trees.items()
              for name, line in _private_definitions(tree)
              if name not in read]
    assert unread == [], f"unread private definitions {unread}"


def _slots(tree):
    # (class, slot, line) of each name in a class's __slots__
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for stmt in node.body:
                if (isinstance(stmt, ast.Assign)
                        and any(getattr(t, "id", None) == "__slots__"
                                for t in stmt.targets)):
                    for name in ast.literal_eval(stmt.value):
                        yield node.name, name, stmt.lineno


def test_every_slot_is_read():
    # a slot the package writes but never loads is dead state, such as a
    # field a search sets for a caller that no longer reads it; a store
    # does not count as a read here
    trees = {path.name: _tree(path) for path in MODULES}
    loaded = {node.attr for tree in trees.values() for node in ast.walk(tree)
              if isinstance(node, ast.Attribute)
              and isinstance(node.ctx, ast.Load)}
    slots = [(cls, name, path, line) for path, tree in trees.items()
             for cls, name, line in _slots(tree)]
    assert slots, "no __slots__ found"
    unread = [slot for slot in slots if slot[1] not in loaded]
    assert unread == [], f"slots never loaded {unread}"


def _calls(node, scope=()):
    # (called name, enclosing function as Class.method or function) of
    # each call below ``node``; a call through an attribute is named by it
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            yield from _calls(child, (*scope, child.name))
            continue
        if isinstance(child, ast.Call):
            func = child.func
            name = getattr(func, "id", getattr(func, "attr", None))
            yield name, ".".join(scope)
        yield from _calls(child, scope)


# the search runs from largest alone, and the local search serves only the
# optimum, which _walk builds; the kick improves its forests by swaps. The
# greedy and the search share one degree-bucket state: one step files it
# and one takes vertices out of it. Every forest grows by one join step,
# which keeps the pieces as they are for a join with at most one active
# neighbour; its callers are pinned, and the test below holds the two that
# keep exact components to degree 2
CALLERS = {
    "solve": {"_Search.largest"},
    "_swap_forest": {"_walk", "_kick"},
    "_kick": {"_walk"},
    "_reaches": {"_walk"},
    "_descend": {"_walk"},
    "_take_out": {"_greedy_forest", "_Search._branch"},
    "_filed": {"_greedy_forest", "_Search.solve", "_Search._reaches"},
    "_join": {"_greedy_forest", "_components", "_first_swap",
              "_Search._branch"},
}


def test_search_and_local_search_have_their_callers_only():
    calls = [(name, path.name, caller) for path in MODULES
             for name, caller in _calls(_tree(path)) if name in CALLERS]
    stray = [call for call in calls if call[1] != "solver.py"
             or call[2] not in CALLERS[call[0]]]
    assert stray == [], f"calls outside their callers {stray}"
    assert {call[0] for call in calls} == set(CALLERS)


def test_exact_components_join_at_degree_two():
    # a join below degree 2 leaves the pieces as they are, which is sound
    # only where the active set only shrinks from the join on; _components
    # and _first_swap hand out exact components, so each passes the literal
    # 2 as the degree, and no other argument after it
    degrees = {}
    for func in ast.walk(_tree(SRC / "solver.py")):
        if (isinstance(func, ast.FunctionDef)
                and func.name in ("_components", "_first_swap")):
            degrees[func.name] = [
                [ast.unparse(arg) for arg in node.args[4:]] + node.keywords
                for node in ast.walk(func) if isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "_join"]
    assert degrees == {"_components": [["2"]], "_first_swap": [["2"]]}


def _readme_block(heading, lang):
    # the first ``lang`` code block of the README section ``heading``
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return section.split(f"```{lang}\n", 1)[1].split("```", 1)[0]


def test_readme_examples_run(tmp_path, monkeypatch, capsys):
    # every bbforest line of the CLI section exits 0, each | stage's stdout
    # fed to the next stage's stdin, and the library example runs
    monkeypatch.chdir(tmp_path)
    (tmp_path / "graph.bbg").write_text(emit_bbg(complete_balanced(2)),
                                        encoding="ascii")
    monkeypatch.setattr(theorems, "ProcessPoolExecutor", SerialPool)
    lines = [line.split("#", 1)[0].strip()
             for line in _readme_block("CLI", "sh").splitlines()]
    commands = [line for line in lines if line]
    assert len(commands) > 10
    for line in commands:
        out = ""
        for stage in line.split("|"):
            program, *argv = shlex.split(stage)
            assert program == "bbforest", line
            monkeypatch.setattr(sys, "stdin", io.StringIO(out))
            code = cli.run(argv)
            out, err = capsys.readouterr()
            assert code == 0, (stage, err)
    # the library example runs, and every value its comments state holds
    library = _readme_block("Library", "python")
    namespace = {}
    exec(library, namespace)
    computed, values = [], []
    for line in library.splitlines():
        code, _, comment = line.partition("#")
        try:
            values.append(ast.literal_eval(comment.strip()))
        except (ValueError, SyntaxError):
            continue
        computed.append(eval(code, namespace))
    assert computed == values == [(5, 1), ((0, 1, 2), (0, 1))]
    count = int(re.search(r"all (\d+) optimal witnesses", library)[1])
    listed = list(namespace["enumerate_max_forests"](namespace["g"]))
    assert len(listed) == count == 6
    assert listed[0] == namespace["res"].witness


def test_rows_tool_prints_the_fast_rows():
    # the n = 32 rows and the corpus of ROADMAP.md's node table, node for
    # node; the n = 36-40 rows and the grid take seconds and are run by hand
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "rows.py"), "n32p15", "n32p20",
         "n32p25", "corpus"], capture_output=True, encoding="utf-8",
        env={**os.environ, "PYTHONIOENCODING": "utf-8"}, check=True)
    assert out.stdout.splitlines()[2:] == [
        "| p = 0.15, n = 32 | 43 | 42 / 43 | 49 | 7 981 | 7 981 | 497 "
        "| 8 478 |",
        "| p = 0.2, n = 32 | 40 | 38 / 40 | 46 | 1 681 | 1 681 | 337 "
        "| 2 018 |",
        "| p = 0.25, n = 32 | 37 | 31 / 35 | 43 | 7 894 | 2 807 | 74 "
        "| 7 968 |",
        "| corpus, 42 graphs | – | – | – | 7 075 | 4 942 | 5 637 | 12 712 |"]
