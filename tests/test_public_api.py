"""Every export has a reader: each name in a module's ``__all__`` is read by
package code outside its own definition, or the README's "Public API"
table says why it is public without one."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "adlv"


def _source_module(node: ast.ImportFrom) -> str | None:
    """The package module a relative ``from . import`` reads, or None (the
    package imports itself only relatively)."""
    return (node.module or "__init__") if node.level == 1 else None


def _reads(mod: str, tree: ast.Module) -> set[tuple[str, str]]:
    """(module, name) pairs that ``mod`` reads: imported names and module
    attributes it loads, and its own top-level names loaded outside their
    own definitions."""
    names, modules = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (src := _source_module(node)):
            for a in node.names:
                if src == "__init__":
                    modules[a.asname or a.name] = a.name
                else:
                    names[a.asname or a.name] = (src, a.name)
    reads = set()

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node in tree.body:
            inside = node.name
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id in names:
                reads.add(names[node.id])
            elif node.id != inside:
                reads.add((mod, node.id))
        elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in modules:
            reads.add((modules[node.value.id], node.attr))
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, None)
    return reads


def _unread_exports() -> set[str]:
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    reads = set().union(*(_reads(m, t) for m, t in trees.items()))
    unread = set()
    for mod, tree in trees.items():
        imported = {
            a.asname or a.name: (_source_module(n), a.name)
            for n in tree.body if isinstance(n, ast.ImportFrom) for a in n.names
        }
        for node in tree.body:
            if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", "") == "__all__":
                for name in ast.literal_eval(node.value):
                    # a re-export is read when the object it names is;
                    # dunders (``__version__``) are metadata, not API
                    if not name.startswith("__") and imported.get(name, (mod, name)) not in reads:
                        unread.add(f"{mod}.{name}")
    return unread


def _public_api_table() -> set[str]:
    readme = (ROOT / "README.md").read_text()
    section = readme.partition("\n## Public API\n")[2].partition("\n## ")[0]
    return set(re.findall(r"^\| `([\w.]+)` \|", section, re.M))


def test_every_export_has_a_reader_or_a_public_api_row():
    """The table lists exactly the exports without a reader, so a name that
    gains one, or leaves, takes its row with it."""
    assert _unread_exports() == _public_api_table()
