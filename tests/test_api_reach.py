"""Every public name in `ecsynth` is reached by the program, not only by tests.

A public module-level function or class, or a public method of a module-level
class, must appear as a whole word in some `src/ecsynth` or `perfbench` source
file outside its own `def`/`class` line. Tests may not be its only caller.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ecsynth"

# API that tests use as an oracle and no stage calls, with the reason for each
ORACLES = {
    "sequence_accuracy",  # Top-1 exact match; the acceptance suite checks good_ratio by it
    "weighted_metric",  # one model's weighted metric; the acceptance suite checks it by hand
    "verify_nearest_assignment",  # brute-force check of k-means' blocked assignment
    "write_embeddings",  # writes the files the `read_embeddings` tests parse
}


def _public_defs(path: Path) -> list[tuple[str, int]]:
    """(name, line) of each public module-level def/class and public method."""
    out = []
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            out.append((node.name, node.lineno))
        if isinstance(node, ast.ClassDef):
            out.extend(
                (item.name, item.lineno)
                for item in node.body
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
            )
    return out


def _program_lines() -> dict[Path, list[str]]:
    files = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    return {p: p.read_text(encoding="utf-8").splitlines() for p in files}


def _reached(name: str, own: tuple[Path, int], lines: dict[Path, list[str]]) -> bool:
    word = re.compile(rf"\b{re.escape(name)}\b")
    return any(
        word.search(line)
        for path, text in lines.items()
        for lineno, line in enumerate(text, start=1)
        if (path, lineno) != own
    )


def test_every_public_name_is_reached_by_the_program():
    lines = _program_lines()
    unreached = [
        f"{path.name}:{lineno} {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name, lineno in _public_defs(path)
        if name not in ORACLES and not _reached(name, (path, lineno), lines)
    ]
    assert not unreached, f"public API that only tests reach: {unreached}"


def test_oracle_list_names_existing_api():
    defined = {name for path in PACKAGE.glob("*.py") for name, _ in _public_defs(path)}
    assert ORACLES <= defined
