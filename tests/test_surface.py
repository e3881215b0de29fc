"""Every public top-level name of the library, and every public method of
its public classes, has a caller that is a program.

A program is library code outside the name's own definition, the benchmark
(``bench/``), the demos (``demos/``) or the acceptance suite. References
count only as code: a loaded name, an attribute, or an import alias, never
docstring or comment text. The package ``__init__`` only re-exports, so its
imports are not callers. A method counts as called when its name is
referenced, on any object; dunder methods are not checked. A name that
only the other tests reach is surface to delete, or to move into the tests.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = [path for path in sorted((ROOT / "src" / "progvc").glob("*.py")) if path.name != "__init__.py"]
PROGRAMS = sorted((ROOT / "bench").glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))
PROGRAMS.append(ROOT / "tests" / "test_acceptance.py")

ALLOWED = {
    # The reference the ``free search`` sampler is differential-tested
    # against: the test pins that its fast path draws the same words.
    "sample_word",
}


def _public_definitions(tree: ast.Module):
    """(name, node) for each public top-level function, class and constant,
    and ("Class.method", node) for each public method of a public class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if not name.startswith("_"):
                yield name, node
                for item in node.body if isinstance(node, ast.ClassDef) else ():
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{name}.{item.name}", item


def _references(tree: ast.AST, skip: ast.AST = None) -> set:
    """Names a tree refers to in code, leaving out the subtree ``skip``."""
    found = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.rsplit(".", 1)[-1])
        stack.extend(ast.iter_child_nodes(node))
    return found


def test_every_public_name_has_a_program_caller():
    parsed = {path: ast.parse(path.read_text(encoding="utf-8")) for path in LIBRARY + PROGRAMS}
    programs = set().union(*(_references(parsed[path]) for path in PROGRAMS))
    defined, unused = set(), []
    for path in LIBRARY:
        for name, node in _public_definitions(parsed[path]):
            defined.add(name)
            ref = name.rsplit(".", 1)[-1]
            if name in ALLOWED or ref in programs:
                continue
            if any(ref in _references(parsed[other], skip=node) for other in LIBRARY):
                continue
            unused.append(f"{path.name}: {name}")
    assert not unused, "public names that only tests reach: " + ", ".join(unused)
    assert ALLOWED <= defined, "the allowlist names a deleted definition"
