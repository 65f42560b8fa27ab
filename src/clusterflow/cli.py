"""Command-line front end.

Subcommands: mutate (apply a mutation word to a seed), somos (emit the
Somos-4 sequence), verify (run a named invariant suite), and poisson (solve
or display compatible Poisson structures).  All numbers are exact rationals;
output is deterministic JSON or CSV.  Exit codes: 0 success, 1 verification
failure, 2 bad input, 3 a resource limit hit (CLUSTERFLOW_MAX_TERMS or the
exponent range), 4 an internal error.  Codes 2-4 print one line on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .algebra import (
    ExponentOverflow,
    SemifieldTag,
    TermLimitExceeded,
    format_fraction,
    parse_fraction,
)
from .dynamics import report_to_csv, somos_sequence
from .matrices import (
    ExchangeMatrix,
    NAMED_MATRICES,
    PeriodicBandedMatrix,
    load_matrix,
    lv_periodic_matrix,
    named_matrix,
)
from .poisson import skew_kernel, solve_poisson
from .seeds import Seed, mutate_many, mutate_seed
from .verify import SUITES, bind_suite, run_suite


class BadInput(ValueError):
    pass


def _parse_window(text: str) -> tuple[int, int]:
    try:
        lo_s, hi_s = text.split("..")
        lo, hi = int(lo_s), int(hi_s)
    except ValueError as e:
        raise BadInput(f"window must be LO..HI, got {text!r}") from e
    if lo > hi:
        raise BadInput(f"empty window {text!r}")
    return lo, hi


def _build_matrix(args) -> "ExchangeMatrix":
    name = args.matrix
    if name is None:
        raise BadInput("--matrix is required")
    try:
        m = (
            named_matrix(name, getattr(args, "m", None))
            if name in NAMED_MATRICES
            else load_matrix(name)
        )
    except (OSError, ValueError, KeyError) as e:
        raise BadInput(str(e)) from e
    if isinstance(m, PeriodicBandedMatrix):
        window = getattr(args, "window", None)
        if window is None:
            raise BadInput(f"matrix {name!r} is infinite; pass --window LO..HI")
        lo, hi = _parse_window(window)
        return m.window(lo, hi)
    if getattr(args, "window", None) is not None:
        raise BadInput("--window only applies to periodic banded matrices")
    return m


def _parse_word(text: str, matrix: ExchangeMatrix, windowed: bool) -> list:
    """A word is a comma-separated list of tokens.

    Numeric tokens name matrix positions 1-based for finite named matrices
    (so `--word 1` mutates the first index) and raw indices for windowed
    matrices.  Tokens bar0/bar1/bar2 are the composite mutations of a full
    residue class mod 3 (windowed matrices only); any other barC is bad
    input.
    """
    steps = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        if tok.startswith("bar"):
            if not windowed:
                raise BadInput("barC words only apply to windowed matrices")
            try:
                c = int(tok[3:])
            except ValueError as e:
                raise BadInput(f"bad composite token {tok!r}") from e
            if c not in (0, 1, 2):
                raise BadInput(f"composite token {tok!r} names no residue class 0..2")
            steps.append(("bar", c))
            continue
        try:
            v = int(tok)
        except ValueError as e:
            raise BadInput(f"bad word token {tok!r}") from e
        if windowed:
            if v not in matrix.indices:
                raise BadInput(f"index {v} outside the window")
            steps.append(("one", v))
        else:
            if not 1 <= v <= matrix.n:
                raise BadInput(f"position {v} out of range 1..{matrix.n}")
            steps.append(("one", matrix.indices[v - 1]))
    return steps


def _seed_json(seed: Seed) -> dict:
    def y_json(v) -> dict:
        if seed.tag is SemifieldTag.UNIVERSAL:
            return v.expand().to_json()
        # the trivial semifield's one element prints as 1, a tropical
        # monomial as its exponent vector
        if seed.tag is SemifieldTag.TRIVIAL:
            return {"value": "1"}
        return {"value": f"TropPoint(exps={v.mono!r})"}

    return {
        "matrix": seed.matrix.to_json(),
        "semifield": seed.tag.value,
        "x": {str(i): seed.x[i].expand().to_json() for i in seed.matrix.indices},
        "y": {str(i): y_json(seed.y[i]) for i in seed.matrix.indices},
    }


def _emit(args, text: str) -> None:
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def cmd_mutate(args) -> int:
    matrix = _build_matrix(args)
    windowed = args.window is not None
    steps = _parse_word(args.word or "", matrix, windowed)
    seed = Seed.initial(matrix, SemifieldTag(args.semifield))
    for kind, v in steps:
        if kind == "one":
            seed = mutate_seed(seed, v)
        else:
            ks = [i for i in seed.matrix.indices if i % 3 == v]
            seed = mutate_many(seed, ks)
    _emit(args, json.dumps(_seed_json(seed), indent=2, sort_keys=True))
    return 0


def cmd_somos(args) -> int:
    terms = somos_sequence(args.terms)
    if args.format == "json":
        _emit(args, json.dumps([format_fraction(t) for t in terms]))
    else:
        lines = ["n,value"] + [
            f"{n + 1},{format_fraction(t)}" for n, t in enumerate(terms)
        ]
        _emit(args, "\n".join(lines) + "\n")
    return 0


def cmd_verify(args) -> int:
    params = {}
    if args.depth is not None:
        params["depth"] = args.depth
    if args.window is not None:
        lo, hi = _parse_window(args.window)
        params["lo"], params["hi"] = lo, hi
    if args.N is not None:
        params["Ns"] = (args.N,)
    if args.delta is not None:
        params["delta"] = parse_fraction(args.delta)
    if args.rng_seed is not None:
        params["rng_seed"] = args.rng_seed
    try:
        bind_suite(args.suite, **params)
    except TypeError as e:
        raise BadInput(f"parameters do not apply to suite {args.suite!r}: {e}") from e
    records = run_suite(args.suite, **params)
    ok = all(r["ok"] for r in records)
    if args.format == "csv":
        rows = [
            {
                "relation": f'{r["suite"]}/{r["check"]}',
                "site": [],
                "residual_zero": r["ok"],
            }
            for r in records
        ]
        _emit(args, report_to_csv(rows))
    else:
        _emit(args, json.dumps(records, indent=2, sort_keys=True, default=str))
    return 0 if ok else 1


def cmd_poisson(args) -> int:
    if args.lv_periodic is not None:
        matrix = lv_periodic_matrix(args.lv_periodic)
    else:
        matrix = _build_matrix(args)
    if args.solve:
        basis = skew_kernel(matrix)
        out = {
            "dimension": len(basis),
            "basis": [
                {"P": P.to_json(), "c": format_fraction(c)} for P, c in basis
            ],
        }
        _emit(args, json.dumps(out, indent=2, sort_keys=True))
        return 0
    cx = parse_fraction(args.cx) if args.cx is not None else Fraction(1)
    try:
        P = solve_poisson(matrix, cx)
    except ValueError as e:
        raise BadInput(str(e)) from e
    _emit(args, json.dumps(P.to_json(), indent=2, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="clusterflow",
        description="Exact cluster-algebra engine: mutation, Poisson structures, "
        "lattice dynamics, verification suites.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--out", help="write output to this path instead of stdout")
        sp.add_argument(
            "--format", choices=("json", "csv"), default="json", help="report format"
        )

    mp = sub.add_parser("mutate", help="apply a mutation word to an initial seed")
    mp.add_argument(
        "--matrix",
        required=True,
        help=f"named matrix ({', '.join(NAMED_MATRICES)}) or JSON file path",
    )
    mp.add_argument("--m", type=int, help="size parameter for liouville matrices")
    mp.add_argument(
        "--window",
        help="LO..HI window for infinite matrices (use --window=-9..9 for "
        "negative bounds)",
    )
    mp.add_argument(
        "--word",
        default="",
        help="comma-separated word; numbers are 1-based positions (raw indices "
        "for windowed matrices); bar0/bar1/bar2 mutate a whole residue class",
    )
    mp.add_argument(
        "--semifield",
        choices=("universal", "tropical", "trivial"),
        default="trivial",
        help="coefficient semifield of the seed",
    )
    add_common(mp)
    mp.set_defaults(fn=cmd_mutate)

    sp = sub.add_parser("somos", help="emit the Somos-4 sequence via cluster mutation")
    sp.add_argument("--terms", type=int, default=10, help="number of terms")
    add_common(sp)
    sp.set_defaults(fn=cmd_somos)

    vp = sub.add_parser("verify", help="run a named verification suite")
    vp.add_argument(
        "suite", choices=tuple(SUITES) + ("all",), help="which suite to run"
    )
    vp.add_argument("--depth", type=int, help="mutation depth (lv/tau suites)")
    vp.add_argument("--window", help="LO..HI index window (lv/tau suites)")
    vp.add_argument("--N", type=int, help="ring size (liouville suite)")
    vp.add_argument("--delta", help="rational p/q coefficient value (tau suite)")
    vp.add_argument("--rng-seed", type=int, help="seed for the randomized suites")
    add_common(vp)
    vp.set_defaults(fn=cmd_verify)

    pp = sub.add_parser("poisson", help="solve or display compatible structures")
    pp.add_argument("--matrix", help="named matrix or JSON file path")
    pp.add_argument("--m", type=int, help="size parameter for liouville matrices")
    pp.add_argument("--window", help="LO..HI window for infinite matrices")
    pp.add_argument(
        "--lv-periodic",
        type=int,
        help="use the period-3m Lotka-Volterra matrix on 3m indices",
    )
    pp.add_argument("--solve", action="store_true", help="basis of skew P with PB = cD")
    pp.add_argument("--cx", help="rational c with PB = cD for the particular solve")
    add_common(pp)
    pp.set_defaults(fn=cmd_poisson)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on bad input already; normalize other codes
        return 2 if e.code not in (0,) else 0
    try:
        return args.fn(args)
    except BadInput as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (TermLimitExceeded, ExponentOverflow) as e:
        print(f"limit exceeded: {type(e).__name__}: {e}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
