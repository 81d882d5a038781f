import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "ribbonkit"

# Imports kept on purpose although the module never reads them.
ALLOWED = {
    # perfbench/spans.py traces ribbon_nerve through this binding.
    "cli.ribbon_nerve",
}


def test_no_unused_imports():
    unused = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":  # re-exports the public names
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused.update(f"{path.stem}.{name}" for name in imported - used)
    assert unused == ALLOWED
