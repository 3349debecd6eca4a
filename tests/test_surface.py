"""The public surface: every exported name is used somewhere, and the
README's Python quick start runs and prints what its comments say."""
import ast
import contextlib
import io
import re
from pathlib import Path

import cumalg as cm

ROOT = Path(__file__).resolve().parents[1]
# where a use of a public name counts: the library, its tests, the benchmark
# and the tools
USERS = ("src", "tests", "perfbench", "tools")


def used_names(tree):
    """The names a module reads, as bare names or as attributes, outside the
    body of the function or class that defines them."""
    used = set()

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id not in inside:
                used.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            if node.attr not in inside:
                used.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, frozenset())
    return used


def test_every_public_name_has_a_use():
    used = set()
    for top in USERS:
        for path in sorted((ROOT / top).rglob("*.py")):
            used |= used_names(ast.parse(path.read_text(encoding="utf-8")))
    assert sorted(set(cm.__all__) - used) == []


def quick_start():
    """The first Python block under the README's "Quick start" heading."""
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("## Quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_quick_start_prints_what_its_comments_say():
    code = quick_start()
    prints = [line for line in code.splitlines() if line.startswith("print(")]
    expected = [line.split("  # ", 1)[1].strip() for line in prints]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert prints and out.getvalue().splitlines() == expected
