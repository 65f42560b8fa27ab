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


# Parameters that no call names, because their value arrives by keyword
# from a dict that the caller builds at run time.
PASSED_BY_DICT = {
    # `clusterflow verify liouville --N n` reaches it through run_suite(**params)
    ("liouville_suite", "Ns"),
}


def _defaulted_parameters() -> list[tuple[str, str, int | None]]:
    """(callee name, parameter, position in a call or None) for every
    parameter with a default value of a package function.  A method's
    position does not count its self argument, and __init__ is called by
    its class's name."""
    out = []
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text())
        methods = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        static = any(
                            isinstance(d, ast.Name) and d.id == "staticmethod"
                            for d in item.decorator_list
                        )
                        methods[item] = (node.name, 0 if static else 1)
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name, skip = node.name, 0
            if node in methods:
                owner, skip = methods[node]
                if name == "__init__":
                    name = owner
            positional = node.args.posonlyargs + node.args.args
            first_default = len(positional) - len(node.args.defaults)
            for pos, arg in enumerate(positional):
                if pos >= first_default:
                    out.append((name, arg.arg, pos - skip))
            for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
                if default is not None:
                    out.append((name, arg.arg, None))
    return out


def test_every_default_is_overridden_somewhere():
    """A defaulted parameter that every call leaves at its default is a
    constant in disguise: some call under src/, tests/, demos/ or
    benchmarks/ passes it, by keyword or by position."""
    most_positional: Counter = Counter()
    keywords: dict[str, set] = {}
    for top in SEARCHED:
        for path in (ROOT / top).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name is None:
                    continue
                starred = any(isinstance(a, ast.Starred) for a in node.args)
                n = float("inf") if starred else len(node.args)
                most_positional[name] = max(most_positional[name], n)
                keywords.setdefault(name, set()).update(k.arg for k in node.keywords)
    never = sorted(
        f"{name}({param})"
        for name, param, pos in _defaulted_parameters()
        if (name, param) not in PASSED_BY_DICT
        and param not in keywords.get(name, ())
        and None not in keywords.get(name, ())
        and not (pos is not None and most_positional[name] > pos)
    )
    assert not never, f"defaulted parameters that no call passes: {never}"
