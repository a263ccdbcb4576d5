"""The covkit module graph, read from src/covkit/*.py with ast.

`core` imports no covkit module, `seeding` only `core` (for its seed
check), and `models` only `core`, so `metrics`, where the exact laws and
sigma*^2 live, can use the models' softmax.  Imports inside functions
count, and the graph has no cycle."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "covkit"


def covkit_imports(path) -> set:
    """The covkit modules that the module at `path` imports anywhere in
    it; the package itself is "__init__"."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level <= 1:
            base = "covkit" if node.level else node.module or ""
            if node.level and node.module:
                base += "." + node.module
            # `from . import tasks` and `from covkit import metrics` name
            # modules; so does the module of any other from-import.
            names = [base + "." + a.name for a in node.names] \
                if base == "covkit" else [base]
        else:
            continue
        for name in names:
            parts = name.split(".")
            if parts[0] == "covkit":
                out.add(parts[1] if len(parts) > 1 else "__init__")
    return out


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
