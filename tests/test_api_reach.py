"""Every public name in `ecsynth` is reached by the program, not only by tests.

A public module-level function or class, or a public method of a module-level
class, must be referenced in some `src/ecsynth` or `perfbench` source file,
outside its own definition. A reference is what the parser sees: an import of
the name, an attribute `.name` (a `module.name` or a method call), or, in its
own module, a use of the bare name. Words in strings, docstrings and comments
do not count. Tests may not be its only caller.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ecsynth"

# API that tests use as an oracle and no stage calls, with the reason for each
ORACLES = {
    "sequence_accuracy",  # Top-1 exact match; the acceptance suite checks good_ratio by it
    "weighted_metric",  # one model's weighted metric; the acceptance suite checks it by hand
    "verify_nearest_assignment",  # brute-force check of k-means' blocked assignment
    "write_embeddings",  # writes the files the `read_embeddings` tests parse
    "objective",  # the fit's objective and gradient; criterion 2 checks it by finite differences
    "holdout_cv",  # leave-one-model-out CV alone; criterion 4 runs its recovery protocol on it
    "log_prob",  # one smoothed n-gram probability; `score` is checked bit for bit as their mean
}


def _public_defs(tree: ast.Module) -> list[ast.FunctionDef | ast.ClassDef]:
    """Each public module-level def/class and public method."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            out.append(node)
        if isinstance(node, ast.ClassDef):
            out.extend(
                item
                for item in node.body
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
            )
    return out


def _program_trees() -> dict[Path, ast.Module]:
    files = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    return {p: ast.parse(p.read_text(encoding="utf-8")) for p in files}


def _references(path: Path, tree: ast.Module) -> set[tuple[str | None, str, int]]:
    """(module, name, line) of each reference in one file.

    An import `from M import name` or an attribute `M.name` on a name bound
    to module M gives (M, name); any other attribute `.name`, a method call
    say, gives (None, name); and a bare name gives (this file's module, name).
    M is the module's file stem.
    """
    modules: dict[str, str] = {}  # local name -> the module it is bound to
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                modules[alias.asname or alias.name.split(".")[0]] = alias.name.split(".")[-1]
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                modules[alias.asname or alias.name] = alias.name
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            stem = node.module.split(".")[-1]
            out.update((stem, alias.name, node.lineno) for alias in node.names)
        elif isinstance(node, ast.Attribute):
            value = node.value
            module = modules.get(value.id) if isinstance(value, ast.Name) else None
            out.add((module, node.attr, node.lineno))
        elif isinstance(node, ast.Name):
            out.add((path.stem, node.id, node.lineno))
    return out


def _reached(
    name: str, own: tuple[Path, int, int], method: bool, refs: dict[Path, set]
) -> bool:
    """Whether a def named `name` at lines first..last of path is referenced outside them.

    A method counts any attribute of its name; a module-level def counts
    references to its own module only.
    """
    path, first, last = own
    return any(
        ref == name
        and (module is None if method else module == path.stem)
        and not (p == path and first <= lineno <= last)
        for p, file_refs in refs.items()
        for module, ref, lineno in file_refs
    )


def _unreached(trees: dict[Path, ast.Module]) -> list[str]:
    refs = {p: _references(p, tree) for p, tree in trees.items()}
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        top = set(trees[path].body)
        for node in _public_defs(trees[path]):
            own = (path, node.lineno, node.end_lineno)
            if node.name not in ORACLES and not _reached(node.name, own, node not in top, refs):
                out.append(f"{path.name}:{node.lineno} {node.name}")
    return out


def test_every_public_name_is_reached_by_the_program():
    unreached = _unreached(_program_trees())
    assert not unreached, f"public API that only tests reach: {unreached}"


def test_a_name_in_a_string_or_comment_is_no_reference(tmp_path):
    package = tmp_path / "mod.py"
    package.write_text(
        "def used():\n    return used  # itself\n\n"
        "def helper():\n    return 1\n\n"
        "def caller():\n    return helper()\n\n"
        "class Box:\n    def size(self):\n        return 1\n",
        encoding="utf-8",
    )
    other = tmp_path / "other.py"

    def unreached(source: str) -> set[str]:
        other.write_text(source, encoding="utf-8")
        trees = {p: ast.parse(p.read_text(encoding="utf-8")) for p in (package, other)}
        refs = {p: _references(p, tree) for p, tree in trees.items()}
        tree = trees[package]
        return {
            node.name
            for node in _public_defs(tree)
            if not _reached(
                node.name, (package, node.lineno, node.end_lineno), node not in tree.body, refs
            )
        }

    words = '"""used, in prose; Box.size."""\nNAMES = ("used", "size")  # used\n'
    assert unreached(words) == {"used", "caller", "Box", "size"}
    # an attribute of the same name on another module is no reference either
    assert unreached("import json\njson.used, json.Box\n") == {"used", "caller", "Box", "size"}
    assert unreached("import mod\nmod.used(mod.Box().size())\n") == {"caller"}
    assert unreached("from mod import used as u, caller\n") == {"Box", "size"}


def test_oracle_list_names_existing_api():
    trees = _program_trees()
    defined = {node.name for p in PACKAGE.glob("*.py") for node in _public_defs(trees[p])}
    assert ORACLES <= defined
