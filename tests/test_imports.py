import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "orthosign"


def unused_imports(tree: ast.Module) -> list:
    """(line, name) of every name an import binds that no expression reads."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                bound.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_no_unused_imports():
    # the package's __init__ imports only to re-export
    files = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"] + sorted((ROOT / "tests").glob("*.py"))
    assert len(files) > 10
    unused = [f"{p.relative_to(ROOT)}:{line}: {name}" for p in files for line, name in unused_imports(ast.parse(p.read_text()))]
    assert unused == []


def isfinite_calls(tree: ast.Module) -> list:
    """(line, enclosing function) of every np.isfinite call, by innermost function."""
    calls = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute) and child.func.attr == "isfinite" \
                    and isinstance(child.func.value, ast.Name) and child.func.value.id == "np":
                calls.append((child.lineno, function))
            visit(child, child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function)

    visit(tree, None)
    return calls


def test_only_to_float_checks_finiteness():
    # signpat.to_float is the one float boundary; a finiteness check anywhere
    # else in the package is a second copy of it
    calls = [(p.name, function, line) for p in sorted(PACKAGE.glob("*.py"))
             for line, function in isfinite_calls(ast.parse(p.read_text()))]
    assert [c for c in calls if c[:2] != ("signpat.py", "to_float")] == []
    assert [c[:2] for c in calls] == [("signpat.py", "to_float")]
