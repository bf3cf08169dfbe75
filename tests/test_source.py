"""Source-level checks of the library modules."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "mixedvem"


def test_no_print_outside_cli():
    """Library code reports through return values, typed errors and
    ``logging``; only the command-line front end prints."""
    modules = sorted(SRC.rglob("*.py"))
    assert modules
    stray = []
    for path in modules:
        if path.name == "cli.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        stray += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "print"]
    assert stray == []
