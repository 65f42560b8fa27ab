"""Span tracing of clusterflow from outside the library.

`Tracer.install()` replaces the public functions of the traced modules (and
the few methods the per-layer metrics name) with wrappers that record one
span per call: name, start, end, parent span, and an optional work count.
Spans live in flat arrays in memory until `write()` puts them in a file.
Nothing under `src/` is changed; the patches are undone by `uninstall()`.

A wrapper replaces every binding of the original object in the clusterflow
modules, including names imported with `from .x import f` and values of
module-level dicts such as `verify.SUITES`, so intra-package calls are traced
too.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array

TRACED_MODULES = (
    "algebra",
    "factored",
    "seeds",
    "matrices",
    "dynamics",
    "poisson",
    "linalg",
    "tropical",
    "verify",
    "cli",
)

# Leaf helpers below every layer boundary.  Each does sub-microsecond work
# and the monomial ones run tens of millions of times in a lattice run, so a
# span around them would cost more than the work it times.
UNTRACED = {
    "algebra": {
        "mono", "mono_mul", "mono_div", "mono_inv", "mono_pow",
        "xvar", "yvar", "var_kind", "var_name",
        "format_fraction", "parse_fraction", "format_poly", "format_ratfunc",
    },
    "linalg": {
        "mat", "zeros", "identity", "transpose", "mat_add", "mat_sub",
        "mat_scale", "mat_neg", "mat_eq", "is_zero_matrix", "is_skew",
    },
    "dynamics": {"tn_from_ui", "ui_from_tn"},
}

RATFUNC_OPS = ("__add__", "__sub__", "__mul__", "__truediv__", "__pow__", "inverse")
RAISED = -1


def _terms_product(args, result):
    return len(args[0].terms) * len(args[1].terms)


def _terms_of_result(args, result):
    return len(result.terms)


def _division_succeeded(args, result):
    return 0 if result is None else 1


def _methods(mods):
    """(owner, attribute, span name, work) for the methods the per-layer
    metrics name, besides the public module functions."""
    algebra, factored, dynamics, matrices = (
        mods["algebra"], mods["factored"], mods["dynamics"], mods["matrices"])
    out = [
        (algebra.LaurentPoly, "__mul__", "algebra.mul", _terms_product),
        (factored.Factored, "__add__", "factored.add", None),
        (factored, "_expand", "factored.cofactor", _terms_of_result),
        (dynamics.LVState, "one_plus_y", "dynamics.one_plus_y", None),
        (matrices.ExchangeMatrix, "mutate", "matrices.mutate", None),
    ]
    out += [(algebra.RatFunc, op, "algebra.ratfunc", None) for op in RATFUNC_OPS]
    return out


WORK = {
    "algebra.try_exact_div": _division_succeeded,
}
SITE_FUNCTIONS = ("x_rel_residual", "y_rel_residual", "yhat_rel_residual")


class Tracer:
    """Spans of one traced run, kept in flat arrays until written out."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("q")
        self.nested = array("b")
        self.sites: dict[int, tuple[int, int]] = {}
        self._stack: list[int] = []
        self._active: dict[int, int] = {}
        self._patches: list[tuple[object, str, object, bool]] = []

    def clear(self) -> None:
        for arr in (self.name, self.parent, self.start, self.end, self.work, self.nested):
            del arr[:]
        self.sites.clear()

    def _nid(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn, work=None, site: bool = False):
        nid = self._nid(name)
        clock = time.perf_counter
        stack, active = self._stack, self._active
        name_a, parent_a, start_a, end_a, work_a, nested_a = (
            self.name, self.parent, self.start, self.end, self.work, self.nested)
        sites = self.sites

        def traced(*args, **kwargs):
            idx = len(start_a)
            name_a.append(nid)
            parent_a.append(stack[-1] if stack else -1)
            depth = active.get(nid, 0)
            nested_a.append(1 if depth else 0)
            work_a.append(0)
            end_a.append(0.0)
            stack.append(idx)
            active[nid] = depth + 1
            start_a.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end_a[idx] = clock()
                work_a[idx] = RAISED
                raise
            else:
                end_a[idx] = clock()
            finally:
                stack.pop()
                active[nid] = depth
            if work is not None:
                work_a[idx] = work(args, result)
            if site:
                sites[idx] = (args[1], args[2])
            return result

        return functools.update_wrapper(traced, fn)

    # -- patching ---------------------------------------------------------

    def _targets(self, mods):
        for short, mod in mods.items():
            skip = UNTRACED.get(short, set())
            for attr, value in vars(mod).items():
                if attr.startswith("_") or attr in skip:
                    continue
                if inspect.isfunction(value) and value.__module__ == mod.__name__:
                    name = f"{short}.{attr}"
                    yield value, name, WORK.get(name), attr in SITE_FUNCTIONS
        for owner, attr, name, work in _methods(mods):
            yield vars(owner)[attr], name, work, False

    def install(self) -> None:
        mods = {s: importlib.import_module(f"clusterflow.{s}") for s in TRACED_MODULES}
        wrapped = {}
        for fn, name, work, site in self._targets(mods):
            wrapped[id(fn)] = (fn, self.wrap(name, fn, work, site))
        for owner, attr, _, _ in _methods(mods):
            fn, w = wrapped[id(vars(owner)[attr])]
            self._patch(owner, attr, w)
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(mod, attr, hit[1])
                elif isinstance(value, dict):
                    for key, v in list(value.items()):
                        hit = wrapped.get(id(v))
                        if hit is not None and hit[0] is v:
                            self._patch(value, key, hit[1], item=True)

    def _patch(self, owner, key, new, item: bool = False) -> None:
        if item:
            self._patches.append((owner, key, owner[key], True))
            owner[key] = new
        else:
            self._patches.append((owner, key, vars(owner)[key], False))
            setattr(owner, key, new)

    def uninstall(self) -> None:
        for owner, key, old, item in reversed(self._patches):
            if item:
                owner[key] = old
            else:
                setattr(owner, key, old)
        self._patches.clear()

    # -- analysis ---------------------------------------------------------

    def durations(self) -> tuple[list[float], list[float]]:
        """Per-span (inclusive, self) seconds; self excludes the intervals
        of direct child spans."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        self_s = dur[:]
        parent = self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                self_s[p] -= dur[i]
        return dur, self_s

    def write(self, path: str) -> None:
        """Write every span as one tab-separated line:
        index, name, parent index, start, end (seconds), work."""
        names, t0 = self.names, (self.start[0] if len(self.start) else 0.0)
        with open(path, "w") as fh:
            fh.write("span\tname\tparent\tstart_s\tend_s\twork\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{names[self.name[i]]}\t{self.parent[i]}\t"
                    f"{self.start[i] - t0:.9f}\t{self.end[i] - t0:.9f}\t{self.work[i]}\n"
                )
