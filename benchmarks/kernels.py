"""Kernel micro-benchmarks on operands captured from a lattice run.

`capture()` runs the universal `lv_run(5, -18, 20)` and keeps the operands
of its trial divisions and exchange sums.  The window does not move with the
benchmark seed, because the cost of `poly_gcd` depends on variable labels.
Every choice is made by term counts and term order, so the same operands
come back on every run.  Each kernel is timed untraced as the median of
repeated calls, checked, and reported with its term products: the monomial
products it computes, counted in a separate pass.
"""

from __future__ import annotations

import time
from fractions import Fraction

from clusterflow import algebra, factored
from clusterflow.algebra import LaurentPoly, exact_div_laurent, poly_gcd, try_exact_div
from clusterflow.dynamics import lv_run
from clusterflow.factored import Factored
from workloads import VERDICT

MUL_TERMS = 132446
MIN_REPS = 3
MIN_SECONDS = 0.3


def capture() -> dict:
    """Operands for the kernels from the universal lv_run(5, -18, 20)."""
    divisions: list[tuple[LaurentPoly, LaurentPoly, bool]] = []
    sums: list[tuple[Factored, Factored]] = []
    orig_div, orig_add = factored.try_exact_div, Factored.__add__

    def div(n, d):
        q = orig_div(n, d)
        divisions.append((n, d, q is not None))
        return q

    def add(a, b):
        if isinstance(b, Factored) and a.powers and b.powers:
            sums.append((a, b))
        return orig_add(a, b)

    factored.try_exact_div, Factored.__add__ = div, add
    try:
        state = lv_run(5, -18, 20)
    finally:
        factored.try_exact_div, Factored.__add__ = orig_div, orig_add

    def bases(layer, terms):
        seed_ = state.seeds[layer]
        found = {p for v in (*seed_.x.values(), *seed_.y.values()) for p in v.powers}
        return sorted((p for p in found if len(p.terms) == terms),
                      key=lambda p: sorted(p.terms.items()))

    # the 1,409-term base times the 94-term base that shares the fewest
    # variables with it (ties: the one in more variables)
    a = bases(5, 1409)[0]
    b = min(bases(4, 94), key=lambda p: (len(a.variables() & p.variables()), -len(p.variables())))
    b15, b4, b2 = bases(3, 15)[0], bases(2, 4)[0], bases(1, 2)[0]

    def size(pair):
        n, d, _ = pair
        return (len(n.terms) * len(d.terms), len(n.terms))

    def weight(f):
        return sum(len(p.terms) * abs(e) for p, e in f.powers.items())

    return {
        "mul": (a, b),
        "exact_div": max((p for p in divisions if p[2]), key=size)[:2],
        "exact_div_fail": max((p for p in divisions if not p[2]), key=size)[:2],
        "poly_gcd": (b15 * b4, b15 * b2, b15),
        "factored_add": max(sums, key=lambda s: (weight(s[0]) + weight(s[1]))),
    }


# Checks evaluate both sides at one point modulo a prime, where every
# variable's value is a small integer that no base vanishes at.
PRIME = 2**61 - 1


def _point(v: int) -> int:
    return 3 + (v * 7919) % 1000


def _eval_coeff(c) -> int:
    c = Fraction(c)
    return c.numerator * pow(c.denominator, -1, PRIME) % PRIME


def _eval_mono(m) -> int:
    out = 1
    for v, e in m:
        out = out * pow(_point(v), e, PRIME) % PRIME
    return out


def _eval_poly(p: LaurentPoly) -> int:
    return sum(_eval_coeff(c) * _eval_mono(m) for m, c in p.terms.items()) % PRIME


def _eval_factored(f: Factored) -> int:
    out = _eval_coeff(f.coeff) * _eval_mono(f.mono)
    for p, e in f.powers.items():
        out = out * pow(_eval_poly(p), e, PRIME) % PRIME
    return out


def _kernels(ops: dict):
    """(name, call, check) per kernel; check(result) returns (ok, detail)."""
    a, b = ops["mul"]
    n, d = ops["exact_div"]
    nf, df = ops["exact_div_fail"]
    ga, gb, g = ops["poly_gcd"]
    fa, fb = ops["factored_add"]
    return [
        ("mul", lambda: a * b,
         lambda r: (len(r.terms) == MUL_TERMS and _eval_poly(r) == _eval_poly(a) * _eval_poly(b) % PRIME,
                    (len(a.terms), len(b.terms), len(r.terms)))),
        ("exact_div", lambda: exact_div_laurent(n, d),
         lambda r: (r * d == n, (len(n.terms), len(d.terms), len(r.terms)))),
        ("exact_div_fail", lambda: try_exact_div(nf, df),
         lambda r: (r is None, (len(nf.terms), len(df.terms)))),
        ("poly_gcd", lambda: poly_gcd(ga, gb),
         lambda r: (r == g, (len(ga.terms), len(gb.terms), len(r.terms)))),
        ("factored_add", lambda: fa + fb,
         lambda r: (_eval_factored(r) == (_eval_factored(fa) + _eval_factored(fb)) % PRIME, None)),
    ]


def _count_products(call) -> int:
    """Monomial products one call computes, counted by wrapping mono_mul."""
    count = 0
    orig = algebra.mono_mul

    def counting(x, y):
        nonlocal count
        count += 1
        return orig(x, y)

    algebra.mono_mul = factored.mono_mul = counting
    try:
        call()
    finally:
        algebra.mono_mul = factored.mono_mul = orig
    return count


def run(ops: dict) -> tuple[dict[str, float], list]:
    """Kernel metrics and one verdict per kernel."""
    metrics: dict[str, float] = {}
    verdicts = []
    for name, call, check in _kernels(ops):
        times = []
        t_end = time.perf_counter() + MIN_SECONDS
        while len(times) < MIN_REPS or time.perf_counter() < t_end:
            t0 = time.perf_counter()
            result = call()
            times.append(time.perf_counter() - t0)
        ok, detail = check(result)
        verdicts.append((VERDICT, f"kernel {name}", 1, 0 if ok else 1, None if ok else detail))
        times.sort()
        metrics[f"kernel.{name}.s"] = times[len(times) // 2]
        metrics[f"kernel.{name}.term_products"] = _count_products(call)
        metrics[f"kernel.{name}.reps"] = len(times)
    return metrics, verdicts
