"""Every export has a reader: each name in a module's ``__all__`` is read by
package code outside its own definition, each public method or property of a
class in an ``__all__`` is read as an attribute by package code outside its
own body, and so is each public instance attribute its ``__init__`` sets, or
the README's "Public API" table says why it is public without one.  Members
match by attribute name alone: ``obj.name`` anywhere in the package reads
every member called ``name``, whatever ``obj`` is."""

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


def _trees() -> dict[str, ast.Module]:
    return {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}


def _exports(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", "") == "__all__":
            return ast.literal_eval(node.value)
    return []


def _unread_exports(trees: dict[str, ast.Module]) -> set[str]:
    reads = set().union(*(_reads(m, t) for m, t in trees.items()))
    unread = set()
    for mod, tree in trees.items():
        imported = {
            a.asname or a.name: (_source_module(n), a.name)
            for n in tree.body if isinstance(n, ast.ImportFrom) for a in n.names
        }
        for name in _exports(tree):
            # a re-export is read when the object it names is; dunders
            # (``__version__``) are metadata, not API
            if not name.startswith("__") and imported.get(name, (mod, name)) not in reads:
                unread.add(f"{mod}.{name}")
    return unread


def _init_attributes(cls: ast.ClassDef) -> set[str]:
    """The names ``__init__`` assigns as ``self.name``, in any target."""
    return {node.attr for fn in cls.body
            if isinstance(fn, ast.FunctionDef) and fn.name == "__init__"
            for node in ast.walk(fn)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
            and getattr(node.value, "id", None) == "self"}


def _unread_members(trees: dict[str, ast.Module]) -> set[str]:
    """``module.Class.member`` for each public method or property of an
    exported class that no attribute load outside its own body names, and
    each public attribute set in its ``__init__`` that no attribute load
    outside the class body names."""
    loads: dict[str, set[int]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loads.setdefault(node.attr, set()).add(id(node))
    unread = set()
    for mod, tree in trees.items():
        exports = _exports(tree)
        for cls in tree.body:
            if not (isinstance(cls, ast.ClassDef) and cls.name in exports):
                continue
            for fn in cls.body:
                if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_"):
                    own = set(map(id, ast.walk(fn)))
                    if not loads.get(fn.name, set()) - own:
                        unread.add(f"{mod}.{cls.name}.{fn.name}")
            body = set(map(id, ast.walk(cls)))
            for name in _init_attributes(cls):
                if not name.startswith("_") and not loads.get(name, set()) - body:
                    unread.add(f"{mod}.{cls.name}.{name}")
    return unread


def _public_api_table() -> set[str]:
    readme = (ROOT / "README.md").read_text()
    section = readme.partition("\n## Public API\n")[2].partition("\n## ")[0]
    return set(re.findall(r"^\| `([\w.]+)` \|", section, re.M))


def test_every_export_has_a_reader_or_a_public_api_row():
    """The table lists exactly the exports and class members without a
    reader, so a name that gains one, or leaves, takes its row with it."""
    trees = _trees()
    assert _unread_exports(trees) | _unread_members(trees) == _public_api_table()


def _table_cache_loads(trees: dict[str, ast.Module]) -> set[str]:
    """``module.function`` (or ``module.Class.method``) for each place that
    loads ``_TABLES``, the cache of group tables, by name or as an
    attribute."""
    places = set()

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            where = f"{where}.{node.name}"
        named = getattr(node, "id", None) or getattr(node, "attr", None)
        if named == "_TABLES" and isinstance(node.ctx, ast.Load):
            places.add(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    for mod, tree in trees.items():
        visit(tree, mod)
    return places


def test_only_enumerate_group_reads_the_table_cache():
    """Whether a group table is cached picks no path: ``weyl._TABLES`` is
    loaded only inside ``weyl.enumerate_group``, so a product or an
    inverse is computed the same way in a process with a table and in one
    without."""
    assert _table_cache_loads(_trees()) == {"weyl.enumerate_group"}


def _named_tuple_fields(trees: dict[str, ast.Module]) -> dict[str, tuple[str, ...]]:
    """``module.Class`` -> its field names, for each class of the package
    that subclasses ``NamedTuple``."""
    return {f"{mod}.{cls.name}": tuple(f.target.id for f in cls.body
                                       if isinstance(f, ast.AnnAssign))
            for mod, tree in trees.items() for cls in tree.body
            if isinstance(cls, ast.ClassDef)
            and any(getattr(b, "id", None) == "NamedTuple" for b in cls.bases)}


def test_no_two_named_tuples_share_a_field_list():
    """A record shape is declared once: two NamedTuple classes with the same
    fields would be one type under two names (the gated closed forms all
    answer with ``rootsys.Verdict``)."""
    fields = _named_tuple_fields(_trees())
    assert "rootsys.Verdict" in fields
    by_fields: dict[tuple[str, ...], list[str]] = {}
    for name, names in fields.items():
        by_fields.setdefault(names, []).append(name)
    assert [names for names in by_fields.values() if len(names) > 1] == []
