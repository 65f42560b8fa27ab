"""Command-line interface: exit codes, determinism, documented examples."""

import inspect
import json
from fractions import Fraction

import pytest

from clusterflow import cli, verify
from clusterflow.algebra import SemifieldTag
from clusterflow.cli import main
from clusterflow.matrices import lv_matrix, named_matrix
from clusterflow.seeds import Seed, mutate_seed


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestSomosCommand:
    def test_csv_terms(self, capsys):
        code, out = run_cli(capsys, "somos", "--terms", "10", "--format", "csv")
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert [r[1] for r in rows] == "1 1 1 1 2 3 7 23 59 314".split()

    def test_deterministic(self, capsys):
        _, a = run_cli(capsys, "somos", "--terms", "8")
        _, b = run_cli(capsys, "somos", "--terms", "8")
        assert a == b


class TestMutateCommand:
    def test_somos_first_exchange(self, capsys):
        code, out = run_cli(capsys, "mutate", "--matrix", "somos4", "--word", "1")
        assert code == 0
        doc = json.loads(out)
        # x0' = (x1 x3 + x2^2)/x0: two Laurent terms, both with x0^-1
        num = doc["x"]["0"]["num"]
        assert len(num) == 2
        assert doc["x"]["0"]["den"] == [{"coeff": "1", "exps": {}}]

    def test_involution_echoes_seed(self, capsys):
        _, once = run_cli(capsys, "mutate", "--matrix", "a2", "--word", "")
        _, twice = run_cli(capsys, "mutate", "--matrix", "a2", "--word", "1,1")
        assert once == twice

    def test_windowed_composite_word(self, capsys):
        code, out = run_cli(
            capsys, "mutate", "--matrix", "lv", "--window=-9..9", "--word", "bar0"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["matrix"]["kind"] == "finite"

    def test_unknown_matrix_is_bad_input(self, capsys):
        code, _ = run_cli(capsys, "mutate", "--matrix", "nope", "--word", "1")
        assert code == 2

    def test_word_out_of_range_is_bad_input(self, capsys):
        code, _ = run_cli(capsys, "mutate", "--matrix", "a2", "--word", "3")
        assert code == 2

    @pytest.mark.parametrize("token", ["bar5", "bar-1", "bar3"])
    def test_composite_outside_the_residue_classes_is_bad_input(self, capsys, token):
        code = main(["mutate", "--matrix", "lv", "--window=-3..3", "--word", token])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert f"{token!r} names no residue class 0..2" in captured.err

    def test_infinite_matrix_needs_window(self, capsys):
        code, _ = run_cli(capsys, "mutate", "--matrix", "lv", "--word", "1")
        assert code == 2

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["poisson", "--solve"], "--matrix is required"),
            (["mutate", "--matrix", "somos4", "--window=-3..3", "--word", "1"],
             "--window only applies to periodic banded matrices"),
            (["mutate", "--matrix", "a2", "--word", "bar0"],
             "barC words only apply to windowed matrices"),
            (["mutate", "--matrix", "lv", "--window=-3..3", "--word", "barx"],
             "bad composite token 'barx'"),
            (["mutate", "--matrix", "lv", "--window=-3..3", "--word", "1,x"],
             "bad word token 'x'"),
            (["mutate", "--matrix", "lv", "--window=-3..3", "--word=7"],
             "index 7 outside the window"),
        ],
    )
    def test_bad_input_is_named_on_stderr(self, capsys, argv, message):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_windowed_word_names_raw_indices(self, capsys):
        code, out = run_cli(capsys, "mutate", "--matrix", "lv", "--window=-3..3", "--word=0,-3")
        assert code == 0
        seed = Seed.initial(lv_matrix().window(-3, 3), SemifieldTag.TRIVIAL)
        seed = mutate_seed(mutate_seed(seed, 0), -3)
        assert out == json.dumps(cli._seed_json(seed), indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize(
        "name, argv",
        [
            ("somos4", ["--word", "1,2", "--semifield", "universal"]),
            ("lv", ["--window=-9..9", "--word", "bar0,bar1", "--semifield", "tropical"]),
        ],
    )
    def test_matrix_file_matches_the_named_matrix(self, tmp_path, capsys, name, argv):
        # a finite and a periodic banded matrix, written out with to_json
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(named_matrix(name).to_json()))
        code, from_file = run_cli(capsys, "mutate", "--matrix", str(path), *argv)
        assert code == 0
        assert from_file == run_cli(capsys, "mutate", "--matrix", name, *argv)[1]


class TestPoissonCommand:
    def test_somos_solve(self, capsys):
        code, out = run_cli(capsys, "poisson", "--matrix", "somos4", "--solve")
        assert code == 0
        doc = json.loads(out)
        assert doc["dimension"] == 1
        entries = {(i, j): v for i, j, v in doc["basis"][0]["P"]["p"]}
        # first row proportional to (0, 1, 2, 3)
        assert entries[(0, 2)] == "2" and entries[(0, 3)] == "3"

    def test_lv_periodic_solve(self, capsys):
        code, out = run_cli(capsys, "poisson", "--lv-periodic", "3", "--solve")
        assert code == 0
        assert json.loads(out)["dimension"] == 10

    def test_liouville_table(self, capsys):
        code, out = run_cli(
            capsys, "poisson", "--matrix", "liouville-even", "--m", "3", "--cx", "1"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["c"] == "1" and doc["n"] == 6

    def test_singular_matrix_without_solve_is_bad_input(self, capsys):
        code, _ = run_cli(capsys, "poisson", "--matrix", "somos4", "--cx", "1")
        assert code == 2


class TestVerifyCommand:
    def test_liouville_suite_passes(self, capsys):
        code, out = run_cli(capsys, "verify", "liouville", "--N", "4")
        assert code == 0
        records = json.loads(out)
        assert records and all(r["ok"] for r in records)

    def test_csv_report_matches_the_json_records(self, capsys):
        code, out = run_cli(capsys, "verify", "liouville", "--N", "4", "--format", "csv")
        assert code == 0
        records = json.loads(run_cli(capsys, "verify", "liouville", "--N", "4")[1])
        assert out.splitlines() == ["relation,site,residual_zero"] + [
            f'{r["suite"]}/{r["check"]},,{r["ok"]}' for r in records
        ]

    def test_unknown_suite_is_usage_error(self, capsys):
        code, _ = run_cli(capsys, "verify", "bogus")
        assert code == 2

    @staticmethod
    def _record_calls(monkeypatch) -> dict:
        """Replace every suite by one with its signature that records the
        parameters it is called with."""
        seen = {}
        for name, fn in list(verify.SUITES.items()):
            def fake(_name=name, **kw):
                seen[_name] = kw
                return [{"suite": _name, "check": "fake", "ok": True}]
            fake.__signature__ = inspect.signature(fn)
            monkeypatch.setitem(verify.SUITES, name, fake)
        return seen

    def test_all_passes_each_suite_its_parameters(self, monkeypatch, capsys):
        seen = self._record_calls(monkeypatch)
        code, _ = run_cli(
            capsys, "verify", "all", "--rng-seed", "5", "--N", "4", "--depth", "3",
            "--window=-6..8", "--delta", "1/2",
        )
        assert code == 0
        lattice = {"depth": 3, "lo": -6, "hi": 8}
        assert seen == {
            "seeds": {"rng_seed": 5},
            "poisson": {"rng_seed": 5},
            "families": {"rng_seed": 5},
            "lv": lattice,
            "tau": {**lattice, "delta": Fraction(1, 2)},
            "liouville": {"Ns": (4,)},
            "tropical": {"rng_seed": 5},
        }
        code, _ = run_cli(capsys, "verify", "all")
        assert code == 0
        assert all(kw == {} for kw in seen.values())

    def test_all_rejects_a_parameter_no_suite_takes(self, monkeypatch, capsys):
        seen = self._record_calls(monkeypatch)
        monkeypatch.setitem(verify.SUITES, "liouville", lambda: [])
        code, _ = run_cli(capsys, "verify", "all", "--N", "4")
        assert code == 2
        assert not seen
        with pytest.raises(TypeError):
            verify.run_suite("all", bogus=1)

    @pytest.mark.parametrize("suite", ["lv", "tau", "liouville"])
    def test_rng_seed_on_a_suite_without_one_is_bad_input(self, monkeypatch, capsys, suite):
        seen = self._record_calls(monkeypatch)
        code = main(["verify", suite, "--rng-seed", "3"])
        assert code == 2
        assert capsys.readouterr().err.startswith(
            f"error: parameters do not apply to suite {suite!r}"
        )
        assert not seen

    def test_key_error_inside_a_suite_is_internal(self, monkeypatch, capsys):
        def broken(rng_seed: int = 0):
            raise KeyError("internal")

        monkeypatch.setitem(verify.SUITES, "seeds", broken)
        code = main(["verify", "seeds"])
        assert code == 4
        assert capsys.readouterr().err == "internal error: KeyError: 'internal'\n"

    def test_type_error_inside_a_suite_is_internal(self, monkeypatch, capsys):
        def broken(rng_seed: int = 0):
            raise TypeError("unsupported operand")

        monkeypatch.setitem(verify.SUITES, "seeds", broken)
        code = main(["verify", "seeds"])
        assert code == 4
        assert capsys.readouterr().err == "internal error: TypeError: unsupported operand\n"


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "somos.csv"
    code = main(["somos", "--terms", "6", "--format", "csv", "--out", str(target)])
    assert code == 0
    assert target.read_text().strip().splitlines()[-1] == "6,3"


def test_term_limit_hit_exits_3(monkeypatch, capsys):
    monkeypatch.setenv("CLUSTERFLOW_MAX_TERMS", "10")
    code = main(
        ["mutate", "--matrix", "somos4", "--word", "1,2,3,4,1,2", "--semifield", "universal"]
    )
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("limit exceeded: TermLimitExceeded")
    assert err.count("\n") == 1


def test_internal_error_exits_4(monkeypatch, capsys):
    def crash(n):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "somos_sequence", crash)
    code = main(["somos", "--terms", "6"])
    err = capsys.readouterr().err
    assert code == 4
    assert err == "internal error: RuntimeError: boom\n"
