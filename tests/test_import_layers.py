"""The covkit module graph, read from src/covkit/*.py with ast.

`core` imports no covkit module, `seeding` only `core` (for its seed
check), and `models` only `core`, so `metrics`, where the exact laws and
sigma*^2 live, can use the models' softmax.  Imports inside functions
count, and the graph has no cycle.  No module imports threading,
multiprocessing or the concurrent package: a sweep's stacks run in one
loop."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "covkit"


def imported_modules(path) -> set:
    """Every module that the module at `path` imports anywhere in it, by
    its dotted name; the covkit package itself is "covkit"."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            out.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level <= 1:
            base = "covkit" if node.level else node.module or ""
            if node.level and node.module:
                base += "." + node.module
            # `from . import tasks` and `from covkit import metrics` name
            # modules; so does the module of any other from-import.
            out.update([base + "." + a.name for a in node.names]
                       if base == "covkit" else [base])
    return out


def covkit_imports(path) -> set:
    """The covkit modules that the module at `path` imports anywhere in
    it; the package itself is "__init__"."""
    out = set()
    for name in imported_modules(path):
        parts = name.split(".")
        if parts[0] == "covkit":
            out.add(parts[1] if len(parts) > 1 else "__init__")
    return out


def scheduling_imports(path) -> set:
    """The thread, process and executor modules that the module at `path`
    imports: covkit runs a sweep's stacks one after another."""
    return {name for name in imported_modules(path)
            if name.split(".")[0] in ("threading", "concurrent",
                                      "multiprocessing")}


GRAPH = {p.stem: covkit_imports(p) for p in SRC.glob("*.py")}


def test_every_import_names_a_module_of_the_package():
    assert {"core", "seeding", "models", "metrics", "harness"} <= set(GRAPH)
    for module, imports in GRAPH.items():
        assert imports <= set(GRAPH), (module, imports - set(GRAPH))


@pytest.mark.parametrize("module, allowed", [
    ("core", set()), ("seeding", {"core"}), ("models", {"core"})])
def test_lower_layers_import_only_what_they_may(module, allowed):
    assert GRAPH[module] <= allowed, GRAPH[module] - allowed


def test_module_graph_has_no_cycle():
    done, path = set(), []

    def visit(module):
        assert module not in path, " -> ".join(path + [module])
        if module not in done:
            path.append(module)
            for dep in sorted(GRAPH[module]):
                visit(dep)
            path.pop()
            done.add(module)

    for module in sorted(GRAPH):
        visit(module)


def test_the_reader_sees_lazy_and_package_imports(tmp_path):
    src = tmp_path / "m.py"
    src.write_text("from .core import a\nimport numpy\n"
                   "def f():\n    from . import tasks\n"
                   "    from covkit.graphs import b\n    import covkit\n")
    assert covkit_imports(src) == {"core", "tasks", "graphs", "__init__"}


def test_no_module_schedules_work_on_threads_or_processes(tmp_path):
    for path in sorted(SRC.glob("*.py")):
        assert not scheduling_imports(path), (path.stem,
                                              scheduling_imports(path))
    src = tmp_path / "m.py"
    src.write_text("import threading\n"
                   "def f():\n"
                   "    from concurrent import futures\n"
                   "    import multiprocessing.pool\n")
    assert scheduling_imports(src) == {"threading", "concurrent",
                                       "multiprocessing.pool"}
