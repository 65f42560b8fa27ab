"""Every function, class and method of the package has a caller or a test.

A name counts as used when it appears as a NAME token (so not inside a
string or a comment) in a Python file under src/, tests/, demos/ or
benchmarks/ anywhere other than its own `def` or `class` line.  Dunder
methods are called by the language and are left out.
"""

import ast
import tokenize
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "clusterflow"
SEARCHED = ("src", "tests", "demos", "benchmarks")


def _defined_names() -> set[str]:
    names = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    names.add(node.name)
    return names


def test_every_definition_is_named_elsewhere():
    mentions: Counter = Counter()
    definitions: Counter = Counter()
    for top in SEARCHED:
        for path in (ROOT / top).rglob("*.py"):
            with path.open("rb") as f:
                previous = None
                for tok in tokenize.tokenize(f.readline):
                    if tok.type == tokenize.NAME:
                        mentions[tok.string] += 1
                        if previous in ("def", "class"):
                            definitions[tok.string] += 1
                    previous = tok.string
    unused = sorted(n for n in _defined_names() if mentions[n] <= definitions[n])
    assert not unused, f"defined but never named elsewhere: {unused}"
