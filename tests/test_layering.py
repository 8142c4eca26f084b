"""The package's imports run one way: the modules of ``src/hfmap`` import
each other in an acyclic graph, and only at module level.  Imports inside an
``if TYPE_CHECKING:`` block serve annotations alone and are not counted,
except that ``kernels``, the leaf, imports nothing from the package at all."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hfmap"


def _is_type_checking(node: ast.AST) -> bool:
    return isinstance(node, ast.If) and getattr(node.test, "id", None) == "TYPE_CHECKING"


def _package_imports(node: ast.AST, in_function: bool = False, typing: bool = False):
    """(module imported, inside a function body) for every relative import
    under node, skipping ``if TYPE_CHECKING:`` blocks unless typing is set."""
    for child in ast.iter_child_nodes(node):
        if _is_type_checking(child) and not typing:
            continue
        if isinstance(child, ast.ImportFrom) and child.level > 0:
            if child.module:
                yield child.module.split(".")[0], in_function
            else:  # from . import a, b
                for alias in child.names:
                    yield alias.name, in_function
        inner = in_function or isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
        yield from _package_imports(child, inner, typing)


def _import_graph() -> dict[str, list[tuple[str, bool]]]:
    return {
        path.stem: list(_package_imports(ast.parse(path.read_text(), str(path))))
        for path in sorted(PACKAGE.glob("*.py"))
    }


def test_the_graph_reads_every_module():
    graph = _import_graph()
    assert {"kernels", "group", "coords", "maps", "verify", "cli"} <= set(graph)
    assert ("coords", False) in graph["group"]
    assert all(target in graph for edges in graph.values() for target, _ in edges)


def test_no_function_imports_from_the_package():
    graph = _import_graph()
    inside = sorted((module, target) for module, edges in graph.items()
                    for target, in_function in edges if in_function)
    assert inside == []


def test_the_import_graph_is_acyclic():
    graph = {module: {target for target, _ in edges} for module, edges in _import_graph().items()}
    done: set[str] = set()

    def visit(module: str, path: list[str]) -> None:
        assert module not in path, f"import cycle {' -> '.join(path + [module])}"
        if module not in done:
            for target in sorted(graph[module]):
                visit(target, path + [module])
            done.add(module)

    for module in sorted(graph):
        visit(module, [])


def test_kernels_is_a_leaf():
    """``kernels`` imports nothing from the package, not even for annotations."""
    path = PACKAGE / "kernels.py"
    assert list(_package_imports(ast.parse(path.read_text(), str(path)), typing=True)) == []
