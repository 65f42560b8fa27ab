"""Golden digests of every seed value of three depth-5 Lotka-Volterra runs,
of the C-matrices of one mutation walk, of the `clusterflow mutate` JSON
of five seeds, and of the `clusterflow verify` JSON of the four randomized
suites at rng seed 0.

The digests pin the exact factored forms: for every layer, every x and y
value's coefficient, monomial, and each base's sorted terms with its
exponent.  A second digest of the universal, constant-coefficient and
tropical runs also pins the order in which each value holds its bases.  Any
change to the exact kernel must leave them untouched.  The
universal run includes failing trial divisions; the constant-coefficient run
(delta = 1) is the one the tau identification reads.  The tropical run's
digest pins the canonical num/den pairs its x values expand to and the
tropical y exponents.
"""

import hashlib
import json
from fractions import Fraction

import pytest

from clusterflow import cli
from clusterflow.algebra import SemifieldTag
from clusterflow.dynamics import lv_run
from clusterflow.matrices import ExchangeMatrix
from clusterflow.tropical import c_walk


def _coeff(c) -> str:
    return str(Fraction(c))


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _sorted_terms(p) -> list:
    return sorted((m, _coeff(c)) for m, c in p.terms.items())


def seed_digest(state) -> str:
    bases: dict[int, str] = {}

    def base(p) -> str:
        key = id(p)
        if key not in bases:
            bases[key] = repr(_sorted_terms(p))
        return bases[key]

    lines = []
    for u, seed in enumerate(state.seeds):
        for kind, values in (("x", seed.x), ("y", seed.y)):
            for i in sorted(values):
                v = values[i]
                powers = sorted((base(p), e) for p, e in v.powers.items())
                lines.append(repr((u, kind, i, _coeff(v.coeff), tuple(v.mono), powers)))
    return _digest(lines)


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


def factored_form_digest(state) -> str:
    """Every x and y value of every layer as its coefficient, its monomial
    and the ordered list of (base, exponent) pairs, so the insertion order
    of the bases is pinned as well as their values."""
    lines = []
    for u, seed in enumerate(state.seeds):
        for kind, values in (("x", seed.x), ("y", seed.y)):
            for i in sorted(values):
                v = values[i]
                powers = [(json.dumps(p.to_json(), sort_keys=True), e) for p, e in v.powers.items()]
                lines.append(repr((u, kind, i, _coeff(v.coeff), tuple(v.mono), powers)))
    return _digest(lines)


@pytest.mark.parametrize(
    "args, digest",
    [
        (
            (5, -18, 20),
            "9cac5a268dcb9c670ef50310866fe692d1a637b681613da0edbafa3f93519fab",
        ),
        (
            (5, -45, 47, SemifieldTag.UNIVERSAL, Fraction(1)),
            "5211f36e690d0e00c8b7d35de0dafc44217608444a6de5436cb73365f108aaf6",
        ),
        (
            (5, -15, 17, SemifieldTag.TROPICAL),
            "af268170246eb59653abe0a5509a693d5ee5b1836952e8bc18731bc32e3d618f",
        ),
    ],
    ids=["universal", "constant", "tropical"],
)
def test_factored_form_digest(args, digest):
    assert factored_form_digest(lv_run(*args)) == digest


def tropical_digest(state) -> str:
    lines = []
    for u, seed in enumerate(state.seeds):
        for i in sorted(seed.x):
            v = seed.x[i].expand()
            lines.append(repr((u, "x", i, _sorted_terms(v.num), _sorted_terms(v.den))))
        for i in sorted(seed.y):
            lines.append(repr((u, "y", i, seed.y[i].mono)))
    return _digest(lines)


def test_tropical_depth5_digest():
    state = lv_run(5, -15, 17, tag=SemifieldTag.TROPICAL)
    assert tropical_digest(state) == (
        "c1e6b9395fa06ba4e1cfa12c542e67a689d6ba616f6041cead013bc7d8a03ee3"
    )


def test_witness_c_walk_digest():
    # the rank-3 witness whose tropical walk reduces large exchange quotients
    witness = ExchangeMatrix.from_dense([[0, -2, 1], [2, 0, 1], [-1, -1, 0]])
    walk = c_walk(witness, (0, 2, 1, 0, 2, 0))
    lines = [repr((b.to_dense(), c)) for b, c in walk]
    assert _digest(lines) == (
        "0ea6f44c4a694ada6977a94d02170721d251a69d79f692b15d1d1542681c64f3"
    )


@pytest.mark.parametrize(
    "args, digest",
    [
        (
            ["--matrix", "somos4", "--word", "1,2,3,4", "--semifield", "universal"],
            "1df780f0fd0358191fe55548be4b0116b469b8927f098c0fc670aba1de10d2e7",
        ),
        (
            ["--matrix", "somos4", "--word", "1,2,3,4,1", "--semifield", "tropical"],
            "71e009e8f23aa8895c1793db51854c0e9856f40da519ebd72cf80858297c7d86",
        ),
        (
            ["--matrix", "somos4", "--word", "1,2,3,4,1", "--semifield", "trivial"],
            "d27941fd72a5e47e9cfe1ca7029b27799d5e26af00442238fc15965d0e0f0b50",
        ),
        (
            ["--matrix", "somos4", "--word", "1,2,3,4,1,2,3,4", "--semifield", "tropical"],
            "5bab98b4ff6a4fbb7ef96cac3c15d981dfaf27f7499f0d9bcce458517596fb90",
        ),
        (
            ["--matrix", "lv", "--window=-9..9", "--word", "bar0,bar1", "--semifield", "universal"],
            "d77ede381b8b69bfe290167d9f87c45b32d670b268dad9007d046720e1f7ee0d",
        ),
    ],
    ids=["somos4-universal", "somos4-tropical", "somos4-trivial", "somos4-tropical-8", "lv-universal"],
)
def test_cli_mutate_digest(tmp_path, args, digest):
    # the JSON boundary: canonical x forms, the tropical y repr, the trivial "1"
    out = tmp_path / "seed.json"
    assert cli.main(["mutate", *args, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize(
    "suite, digest",
    [
        ("seeds", "bd5d1a5fbd35724f076d84da23483053e1acb40dfe0dded947a4be7a4e311442"),
        ("poisson", "e83c9af338164fac622b20d1b4b450407c8b4a09675cb84c1d34f6fb2472a70b"),
        ("families", "3d1a306be8c98140d207054c7a00a7a2848bed16b7328b1741113a98c9f22521"),
        ("tropical", "fde43a87881284ea4d607ee6194f34eb2c32a86e510bcfe7262e1636307fad39"),
    ],
)
def test_cli_verify_digest(tmp_path, suite, digest):
    # the suites' random draws, their order and every record they emit
    out = tmp_path / "records.json"
    assert cli.main(["verify", suite, "--rng-seed", "0", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
