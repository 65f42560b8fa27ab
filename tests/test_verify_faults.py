"""Fault injection into the randomized verify suites.

Each test replaces one function the suite calls by a wrapper that corrupts
its result on chosen calls, then pins the suite's whole record list.  So
the tests fix which case a check reports as its first failure, the
witness it carries, and that the random draws of a check stop at that
failure (the records after it depend on where the draws stopped).
"""

import dataclasses
import itertools
import json
import types
from fractions import Fraction

from clusterflow import cli, verify
from clusterflow.algebra import RatFunc
from clusterflow.factored import Factored
from clusterflow.poisson import PoissonMatrix


def corrupt(monkeypatch, owner, name, calls, fault):
    """Replace owner.name so that its n-th call, for n in calls, returns
    fault(result) in place of the result."""
    real = getattr(owner, name)
    count = itertools.count(1)

    def wrapper(*args, **kwargs):
        n = next(count)
        out = real(*args, **kwargs)
        return fault(out) if n in calls else out

    monkeypatch.setattr(owner, name, wrapper)


def doubled_first_x(seed):
    i = min(seed.x)
    return dataclasses.replace(seed, x={**seed.x, i: seed.x[i] * Factored.constant(2)})


def bumped(P):
    return PoissonMatrix(P.indices, {**P.data, (0, 1): P.entry(0, 1) + 1}, c=P.c)


def failed_report(_):
    return types.SimpleNamespace(ok=False)


def raise_disagreement(_):
    raise RuntimeError("injected branch disagreement")


def test_wrong_x_after_a_mutation(monkeypatch):
    corrupt(monkeypatch, verify, "mutate_seed", {4}, doubled_first_x)
    assert verify.seed_suite() == [
        {
            "suite": "seeds",
            "check": "involutivity",
            "ok": False,
            "witness": {
                "trial": 0,
                "matrix": {
                    "kind": "finite",
                    "n": 5,
                    "entries": [
                        [0, 1, 1], [0, 2, -2], [0, 4, 2], [1, 0, -1], [1, 2, 1],
                        [1, 3, 1], [2, 0, 2], [2, 1, -1], [2, 3, 1], [3, 1, -1],
                        [3, 2, -1], [3, 4, 2], [4, 0, -2], [4, 3, -2],
                    ],
                },
                "k": 4,
            },
        },
        {"suite": "seeds", "check": "laurent", "ok": True},
    ]


def test_wrong_expanded_denominator(monkeypatch):
    corrupt(
        monkeypatch, Factored, "expand", {3}, lambda v: v * RatFunc.constant(Fraction(1, 2))
    )
    assert verify.seed_suite() == [
        {"suite": "seeds", "check": "involutivity", "ok": True},
        {
            "suite": "seeds",
            "check": "laurent",
            "ok": False,
            "witness": {
                "trial": 0,
                "matrix": {
                    "kind": "finite",
                    "n": 4,
                    "entries": [
                        [0, 2, -2], [0, 3, 2], [1, 2, -1], [1, 3, -1], [2, 0, 2],
                        [2, 1, 1], [2, 3, -2], [3, 0, -2], [3, 1, 1], [3, 2, 2],
                    ],
                },
                "word": [0, 2, 1, 2, 0, 1],
                "index": 2,
            },
        },
    ]


ADVERSARIAL = {
    "suite": "poisson",
    "check": "adversarial-rejection",
    "ok": True,
    "witness": {"witness_entry": [0, 2], "value": "-3"},
}


def test_bracket_oracle_finds_no_log_canonical_ratio(monkeypatch):
    corrupt(monkeypatch, verify, "is_log_canonical", {4}, lambda _: None)
    assert verify.poisson_suite() == [
        {
            "suite": "poisson",
            "check": "mutation-rule-oracle",
            "ok": False,
            "witness": {
                "matrix": {
                    "kind": "finite",
                    "n": 4,
                    "entries": [
                        [0, 1, -2], [0, 2, 2], [1, 0, 2], [1, 2, 2], [1, 3, 2],
                        [2, 0, -2], [2, 1, -2], [2, 3, -1], [3, 1, -2], [3, 2, 1],
                    ],
                },
                "k": 0,
                "pair": (1, 2, None),
            },
        },
        ADVERSARIAL,
    ]


def test_mutated_structure_with_the_wrong_constant(monkeypatch):
    def doubled(P):
        return PoissonMatrix(P.indices, {k: 2 * v for k, v in P.data.items()}, c=P.c)

    corrupt(monkeypatch, verify, "mutate_poisson", {3}, doubled)
    assert verify.poisson_suite() == [
        {
            "suite": "poisson",
            "check": "mutation-rule-oracle",
            "ok": False,
            "witness": {
                "matrix": {
                    "kind": "finite",
                    "n": 4,
                    "entries": [
                        [0, 1, -2], [0, 2, 2], [0, 3, -2], [1, 0, 2], [1, 2, -2],
                        [1, 3, 1], [2, 0, -2], [2, 1, 2], [2, 3, -2], [3, 0, 2],
                        [3, 1, -1], [3, 2, 2],
                    ],
                },
                "c": "5/2",
                "k": 2,
                "reason": "P'B' != cD",
            },
        },
        ADVERSARIAL,
    ]


def test_incompatible_mutated_structure_is_a_failure_not_bad_input(monkeypatch, capsys):
    # P'B' is not diagonal, so compatibility_constant raises CompatibilityError
    # (a ValueError); the check records it instead of exiting 2 on bad input
    corrupt(monkeypatch, verify, "mutate_poisson", {7}, bumped)
    assert cli.main(["verify", "poisson", "--rng-seed", "3"]) == 1
    assert json.loads(capsys.readouterr().out) == [
        {
            "suite": "poisson",
            "check": "mutation-rule-oracle",
            "ok": False,
            "witness": {
                "matrix": {
                    "kind": "finite",
                    "n": 4,
                    "entries": [
                        [0, 1, -2], [0, 3, 1], [1, 0, 2], [1, 2, 1], [1, 3, -2],
                        [2, 1, -1], [2, 3, -2], [3, 0, -1], [3, 1, 2], [3, 2, 2],
                    ],
                },
                "c": "5/3",
                "k": 0,
                "reason": "P'B' != cD",
            },
        },
        ADVERSARIAL,
    ]


PERIODIC = [
    {"suite": "families", "check": "periodic-PB-zero-m3", "ok": True},
    {
        "suite": "families",
        "check": "periodic-kernel-dim-m3",
        "ok": True,
        "witness": {"dimension": 10, "family_rank": 10, "parameters": 10, "pb_zero": True},
    },
    {"suite": "families", "check": "periodic-PB-zero-m4", "ok": True},
    {
        "suite": "families",
        "check": "periodic-kernel-dim-m4",
        "ok": True,
        "witness": {"dimension": 15, "family_rank": 15, "parameters": 15, "pb_zero": True},
    },
]


def test_failing_pb_zero_window(monkeypatch):
    corrupt(monkeypatch, verify, "check_pb_zero_window", {2, 5}, lambda _: (False, (7, 8)))
    assert verify.families_suite() == [
        {
            "suite": "families",
            "check": "general-PB-zero",
            "ok": False,
            "witness": {"trial": 1, "entry": [7, 8]},
        },
        {
            "suite": "families",
            "check": "symmetric-PB-zero",
            "ok": False,
            "witness": {"trial": 2, "entry": [7, 8]},
        },
        {"suite": "families", "check": "shift-covariance", "ok": True},
        {"suite": "families", "check": "period-3", "ok": True},
        *PERIODIC,
    ]


def test_perturbed_mutation_layer(monkeypatch):
    corrupt(monkeypatch, verify, "mutate_poisson_many", {2}, lambda pb: (bumped(pb[0]), pb[1]))
    assert verify.families_suite() == [
        {"suite": "families", "check": "general-PB-zero", "ok": True},
        {"suite": "families", "check": "symmetric-PB-zero", "ok": True},
        {
            "suite": "families",
            "check": "shift-covariance",
            "ok": False,
            "witness": {"u": 1, "entry": [0, 1]},
        },
        {"suite": "families", "check": "period-3", "ok": False, "witness": {"entry": [0, 1]}},
        *PERIODIC,
    ]


def test_failing_g_inverse_then_separation(monkeypatch):
    corrupt(monkeypatch, verify, "check_g_inverse", {3}, lambda _: False)
    corrupt(monkeypatch, verify, "separation_check", {4}, failed_report)
    assert verify.tropical_suite() == [
        {
            "suite": "tropical",
            "check": "c-walk-and-g-inverse",
            "ok": False,
            "witness": {
                "trial": 0,
                "matrix": {
                    "kind": "finite",
                    "n": 3,
                    "entries": [[0, 1, 1], [0, 2, -2], [1, 0, -1], [2, 0, 2]],
                },
                "word": [0, 1, 0, 1, 0, 2, 1, 0],
            },
        },
        {
            "suite": "tropical",
            "check": "separation",
            "ok": False,
            "witness": {
                "matrix": {
                    "kind": "finite",
                    "n": 3,
                    "entries": [[0, 1, -2], [0, 2, -2], [1, 0, 2], [2, 0, 2]],
                },
                "word": [1, 2, 0, 1],
            },
        },
    ]


def test_raising_c_walk_then_separation(monkeypatch):
    corrupt(monkeypatch, verify, "c_walk", {2}, raise_disagreement)
    corrupt(monkeypatch, verify, "separation_check", {3}, failed_report)
    assert verify.tropical_suite() == [
        {
            "suite": "tropical",
            "check": "c-walk-and-g-inverse",
            "ok": False,
            "witness": {
                "trial": 1,
                "matrix": {"kind": "finite", "n": 2, "entries": [[0, 1, -2], [1, 0, 2]]},
                "word": [0, 1, 0, 1, 0, 1, 0, 1],
                "error": "injected branch disagreement",
            },
        },
        {
            "suite": "tropical",
            "check": "separation",
            "ok": False,
            "witness": {"matrix": {"kind": "finite", "n": 2, "entries": []}, "word": [1]},
        },
    ]
