"""Golden digests of every seed value of two depth-5 Lotka-Volterra runs.

The digests pin the exact factored forms: for every layer, every x and y
value's coefficient, monomial, and each base's sorted terms with its
exponent.  Any change to the exact kernel must leave them untouched.  The
universal run includes failing trial divisions; the constant-coefficient run
(delta = 1) is the one the tau identification reads.
"""

import hashlib
from fractions import Fraction

from clusterflow.dynamics import lv_run


def _coeff(c) -> str:
    return str(Fraction(c))


def seed_digest(state) -> str:
    bases: dict[int, str] = {}

    def base(p) -> str:
        key = id(p)
        if key not in bases:
            bases[key] = repr(sorted((m, _coeff(c)) for m, c in p.terms.items()))
        return bases[key]

    lines = []
    for u, seed in enumerate(state.seeds):
        for kind, values in (("x", seed.x), ("y", seed.y)):
            for i in sorted(values):
                v = values[i]
                powers = sorted((base(p), e) for p, e in v.powers.items())
                lines.append(repr((u, kind, i, _coeff(v.coeff), tuple(v.mono), powers)))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_universal_depth5_digest():
    state = lv_run(5, -18, 20)
    assert seed_digest(state) == (
        "9dce6ca4bcb9f1c909b6001f41b92f04e2d50828a8be6fcc4a22bd168f1f58ab"
    )


def test_constant_depth5_digest():
    state = lv_run(5, -45, 47, delta=Fraction(1))
    assert seed_digest(state) == (
        "afad358e7fee7f29329d8ef33abb7e4cc8c89582dbc6f2ddd56fb0565a268a95"
    )
