"""Command-line front end: exit codes, formats, determinism, cache, config."""

import json
import math
import os
import subprocess
import sys

import pytest

import lupi
from lupi.cli import main

SQRT3 = math.sqrt(3.0)


@pytest.fixture()
def cache_file(tmp_path, monkeypatch):
    path = tmp_path / "ne_cache.json"
    monkeypatch.setenv("LUPI_CACHE_PATH", str(path))
    return path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestNe:
    def test_three_players(self, capsys, cache_file):
        code, out, _ = run(capsys, "ne", "--n", "3")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "i,p_i,c_ne"
        first = lines[1].split(",")
        assert first[0] == "1"
        assert abs(float(first[1]) - 0.46410) <= 1e-4
        assert abs(float(first[2]) - 0.28719) <= 1e-4

    def test_bad_n(self, capsys, cache_file):
        code, _, err = run(capsys, "ne", "--n", "2")
        assert code == 1
        assert "n >= 3" in err

    def test_beyond_twenty_players(self, capsys, cache_file):
        # the Newton solve has no player cap: only the product form's range
        code, out, _ = run(capsys, "ne", "--n", "21")
        assert code == 0 and [r.split(",")[0] for r in out.strip().splitlines()[1:]] == [
            str(i) for i in range(1, 22)
        ]

    def test_nine_players_first_row(self, capsys, cache_file):
        code, out, _ = run(capsys, "ne", "--n", "9")
        assert code == 0
        first = out.strip().splitlines()[1].split(",")
        assert abs(float(first[1]) - 0.2515) <= 5e-4

    def test_json_format(self, capsys, cache_file):
        code, out, _ = run(capsys, "ne", "--n", "3", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["converged"] is True
        assert set(obj) == {"strategy", "c_ne", "residual", "iterations", "converged"}

    def test_ten_significant_digits(self, capsys, cache_file):
        _, out, _ = run(capsys, "ne", "--n", "3")
        value = out.strip().splitlines()[1].split(",")[1]
        assert value == f"{2 * SQRT3 - 3:.10g}"


class TestWinprob:
    def test_uniform(self, capsys, cache_file):
        code, out, _ = run(capsys, "winprob", "--n", "3", "--strategy", "uniform")
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        values = [float(r[1]) for r in rows]
        assert values == pytest.approx([4 / 9, 2 / 9, 2 / 9], abs=1e-9)

    def test_ne_rows_constant(self, capsys, cache_file):
        code, out, _ = run(capsys, "winprob", "--n", "3", "--strategy", "ne")
        assert code == 0
        values = [float(line.split(",")[1]) for line in out.strip().splitlines()[1:]]
        assert max(values) - min(values) <= 1e-9

    def test_strategy_file(self, capsys, cache_file, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("3\n0.5 0.3 0.2\n")
        code, out, _ = run(capsys, "winprob", "--n", "3", "--strategy", str(path))
        assert code == 0
        assert abs(float(out.strip().splitlines()[1].split(",")[1]) - 0.25) <= 1e-12

    def test_bad_sum_file(self, capsys, cache_file, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3\n0.5 0.4 0.2\n")
        code, _, err = run(capsys, "winprob", "--n", "3", "--strategy", str(path))
        assert code == 1
        assert "sum" in err

    def test_missing_file(self, capsys, cache_file):
        code, _, err = run(capsys, "winprob", "--n", "3", "--strategy", "/nope/missing.txt")
        assert code == 1


class TestSequential:
    def test_no_real_root_row(self, capsys, cache_file):
        code, out, _ = run(capsys, "sequential", "--n", "3", "--c0", "0.287", "--depth", "3")
        assert code == 0
        rows = out.strip().splitlines()
        assert rows[0] == "i,p_i,status,residual"
        last = rows[3].split(",")
        assert last[1] == "" and last[2] == "no-real-root"

    def test_bad_c0(self, capsys, cache_file):
        code, _, _ = run(capsys, "sequential", "--n", "3", "--c0", "1.5", "--depth", "3")
        assert code == 1


class TestBound:
    def test_nine_players(self, capsys, cache_file):
        code, out, _ = run(capsys, "bound", "--n", "9", "--depth", "4")
        assert code == 0
        row = out.strip().splitlines()[1].split(",")
        lower, upper = float(row[2]), float(row[3])
        assert abs(lower - 0.078) <= 1e-3
        assert abs(upper - 0.146) <= 1e-3

    def test_bad_depth(self, capsys, cache_file):
        code, _, _ = run(capsys, "bound", "--n", "9", "--depth", "0")
        assert code == 1

    def test_nan_tol(self, capsys, cache_file):
        code, out, err = run(capsys, "bound", "--n", "5", "--depth", "2", "--tol", "nan")
        assert code == 1 and out == "" and "tol" in err


class TestSimulate:
    def test_deterministic_json(self, capsys, cache_file):
        args = ("simulate", "--n", "3", "--pi", "uniform", "--p", "uniform",
                "--rounds", "20000", "--seed", "11")
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        obj = json.loads(out1)
        assert obj["generator"] == "pcg64dxsm"
        assert abs(obj["w_estimate"] - 8 / 27) <= 4 * obj["w_std_err"]

    def test_format_refused_before_the_run(self, capsys, cache_file, monkeypatch):
        # a form simulate does not have exits 1 without simulating a round
        def refuse(*args, **kwargs):
            raise AssertionError("simulate ran")

        monkeypatch.setattr("lupi.oracle.simulate", refuse)
        code, out, err = run(capsys, "simulate", "--n", "3", "--pi", "uniform", "--p", "uniform",
                             "--rounds", "20000000", "--format", "csv")
        assert (code, out, err) == (1, "", "error: simulate has no csv output\n")

    def test_zero_rounds(self, capsys, cache_file):
        code, _, _ = run(capsys, "simulate", "--n", "3", "--pi", "uniform",
                         "--p", "uniform", "--rounds", "0")
        assert code == 1


class TestPayoffAndBestsym:
    def test_payoff_zeng(self, capsys, cache_file):
        code, out, _ = run(capsys, "payoff", "--n", "4", "--pi", "zeng", "--p", "zeng")
        assert code == 0
        w_row = out.strip().splitlines()[-1].split(",")
        assert w_row[0] == "w"
        assert float(w_row[3]) == pytest.approx(0.125, abs=1e-14)

    def test_payoff_above_the_product_form(self, capsys, cache_file):
        code, out, _ = run(capsys, "payoff", "--n", "1500", "--pi", "uniform", "--p", "uniform")
        assert code == 0 and len(out.strip().splitlines()) == 1502

    def test_bestsym_uniform(self, capsys, cache_file):
        code, out, _ = run(capsys, "bestsym", "--n", "4", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["strategy"]["probs"] == pytest.approx([0.25] * 4, abs=1e-6)


class TestFigure:
    def test_fig1_three_players(self, capsys, cache_file):
        code, out, _ = run(capsys, "figure", "--which", "fig1", "--n-list", "3")
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert [r[0] for r in rows] == ["3", "3", "3"]
        assert float(rows[0][2]) == pytest.approx(0.4641, abs=1e-4)
        assert float(rows[1][2]) == pytest.approx(0.2679, abs=1e-4)

    def test_fig1_beyond_twenty_players(self, capsys, cache_file):
        code, out, _ = run(capsys, "figure", "--which", "fig1", "--n-list", "21,25")
        assert code == 0
        assert [line.split(",")[0] for line in out.strip().splitlines()[1:]] == ["21"] * 21 + ["25"] * 25

    def test_fig1b_scaling(self, capsys, cache_file):
        code, out, _ = run(capsys, "figure", "--which", "fig1b", "--n-list", "3")
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert float(rows[0][1]) == pytest.approx(1 / 3, abs=1e-9)
        assert float(rows[0][2]) == pytest.approx(3 * 0.4641, abs=1e-3)

    def test_fig2b_zeng_series(self, capsys, cache_file):
        code, out, _ = run(capsys, "figure", "--which", "fig2b", "--n-list", "4,6")
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        zeng4 = next(r for r in rows if r[0] == "zeng" and r[1] == "4")
        assert float(zeng4[2]) == pytest.approx(0.5, abs=1e-14)
        uniform = {r[1]: float(r[2]) for r in rows if r[0] == "uniform"}
        ne = {r[1]: float(r[2]) for r in rows if r[0] == "ne"}
        assert uniform["6"] > uniform["4"]  # approaches 1 from below
        assert all(v < 1.0 for v in uniform.values())
        assert all(ne[k] < uniform[k] for k in uniform)

    def test_fig2a_uniform_decay(self, capsys, cache_file):
        code, out, _ = run(capsys, "figure", "--which", "fig2a", "--n-list", "9")
        values = [float(line.split(",")[2]) for line in out.strip().splitlines()[1:]]
        assert values == sorted(values, reverse=True)

    def test_fig3_traces(self, capsys, cache_file):
        code, out, _ = run(capsys, "figure", "--which", "fig3", "--n", "9",
                           "--c0", "0.0985", "--depth", "4", "--points", "16")
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert {r[0] for r in rows} == {"1", "2", "3", "4"}
        assert len(rows) == 64

    def test_fig3_depth_defaults_to_at_most_n(self, capsys, cache_file):
        # the default depth is min(4, n), so the smallest game runs as is
        code, out, _ = run(capsys, "figure", "--which", "fig3", "--n", "3",
                           "--c0", "0.287", "--points", "4")
        assert code == 0
        assert {line.split(",")[0] for line in out.strip().splitlines()[1:]} == {"1", "2", "3"}
        code, out, err = run(capsys, "figure", "--which", "fig3", "--n", "3",
                             "--c0", "0.287", "--depth", "4")
        assert code == 1 and out == "" and "depth=4" in err

    def test_fig3_needs_n_and_c0(self, capsys, cache_file):
        code, _, err = run(capsys, "figure", "--which", "fig3")
        assert code == 1

    def test_missing_n_list(self, capsys, cache_file):
        code, _, _ = run(capsys, "figure", "--which", "fig1")
        assert code == 1


class TestBadInput:
    FILES = {
        "nan.txt": "3\nnan 0.5 0.5\n",
        "probs_number.json": '{"n": 3, "probs": 5}',
        "probs_null.json": '{"n": 3, "probs": null}',
        "n_fraction.json": '{"n": 3.7, "probs": [0.5, 0.3, 0.2]}',
        "probs_objects.json": '{"n": 3, "probs": [{}, 0.5, 0.5]}',
        "probs_strings.json": '{"n": 3, "probs": ["0.5", "0.3", "0.2"]}',
        "probs_booleans.json": '{"n": 3, "probs": [true, false, false]}',
        "probs_huge.json": '{"n": 3, "probs": [1%s, 0, 0]}' % ("0" * 400),
    }

    @pytest.mark.parametrize("argv", [
        "winprob --n 3 --strategy nan.txt",
        "payoff --n 3 --pi nan.txt --p uniform",
        "winprob --n 3 --strategy probs_number.json",
        "winprob --n 3 --strategy probs_null.json",
        "winprob --n 3 --strategy n_fraction.json",
        "winprob --n 3 --strategy probs_objects.json",
        "winprob --n 3 --strategy probs_strings.json",
        "winprob --n 3 --strategy probs_booleans.json",
        "winprob --n 3 --strategy probs_huge.json",
        "ne --n 3 --tol nan",
        "ne --n 3 --tol -1",
        "ne --n 5 --tol inf",
        "bound --n 5 --depth 2 --tol inf",
        "ne --n 3 --max-iter -3",
        "ne --n 2",
        "bestsym --n 3 --restarts -1",
        "figure --which fig3 --n 5 --c0 0.2 --points -2",
        "figure --which fig3 --n 5 --c0 1.5",
        "figure --which fig9 --n-list 3",
        "simulate --n 3 --pi uniform --p uniform --rounds 0",
        "sequential --n 5 --c0 0.2 --depth 9",
        "figure --which fig2a --n-list 3 --format json",
        "simulate --n 3 --pi uniform --p uniform --rounds 10 --format csv",
        "simulate --n 3 --pi uniform --p uniform --rounds 10 --shards 2",
        "ne --n 3 --output .",
        "winprob --n 4 --strategy ne --cache-path nan.txt/c.json",
    ])
    def test_exits_one_with_one_error_line(self, capsys, cache_file, tmp_path, monkeypatch, argv):
        # every bad argument is a usage error (exit 1) raised before any
        # output; an uncaught exception would fail this test with a traceback
        for name, text in self.FILES.items():
            (tmp_path / name).write_text(text)
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, *argv.split())
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")


class TestOutputAndConfig:
    def test_output_file_matches_stdout(self, capsys, cache_file, tmp_path):
        _, stdout_text, _ = run(capsys, "ne", "--n", "3")
        path = tmp_path / "out.csv"
        code, out, _ = run(capsys, "ne", "--n", "3", "--output", str(path))
        assert code == 0 and out == ""
        assert path.read_text() == stdout_text

    def test_cache_round_trip(self, capsys, cache_file):
        assert not cache_file.exists()
        run(capsys, "winprob", "--n", "4", "--strategy", "ne")
        assert cache_file.exists()
        payload = json.loads(cache_file.read_text())
        key = "n=4,tol=1e-12,start=limit"
        assert key in payload["entries"]
        # poison the cached entry; a cache hit must reproduce the poison
        payload["entries"][key]["probs"] = [0.7, 0.1, 0.1, 0.1]
        cache_file.write_text(json.dumps(payload))
        _, out, _ = run(capsys, "winprob", "--n", "4", "--strategy", "ne")
        assert abs(float(out.strip().splitlines()[1].split(",")[1]) - 0.3**3) <= 1e-9

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda probs: [0.2] * 5,  # wrong length
            lambda probs: [1.2, -0.2] + probs[2:],  # out of range, still sums to 1
            lambda probs: [probs[0] + 1e-10] + probs[1:],  # sum off by more than 1e-12
            lambda probs: ["0.5"] + probs[1:],  # not a number
        ],
        ids=["wrong-length", "out-of-range", "bad-sum", "non-numeric"],
    )
    def test_stale_cache_entry_recomputed(self, capsys, cache_file, corrupt):
        argv = ("figure", "--which", "fig1", "--n-list", "4")
        _, expected, _ = run(capsys, *argv)
        payload = json.loads(cache_file.read_text())
        entry = payload["entries"]["n=4,tol=1e-12,start=limit"]
        solved = entry["probs"]
        entry["probs"] = corrupt(solved)
        cache_file.write_text(json.dumps(payload))
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out == expected
        rewritten = json.loads(cache_file.read_text())["entries"]["n=4,tol=1e-12,start=limit"]
        assert rewritten["probs"] == solved

    def test_entry_of_the_uniform_start_ignored(self, capsys, cache_file, tmp_path):
        # entries stored before the key named the start hold the tail digits
        # of a solve from uniform play; a warm run must print what a cold one does
        argv = ("figure", "--which", "fig1", "--n-list", "4")
        cache_file.write_text(json.dumps({"entries": {"n=4,tol=1e-12": {
            "n": 4, "tol": 1e-12, "probs": [0.7, 0.1, 0.1, 0.1], "c_ne": 0.3**3,
        }}}))
        _, stale, _ = run(capsys, *argv)
        _, cold, _ = run(capsys, *argv, "--cache-path", str(tmp_path / "cold.json"))
        _, warm, _ = run(capsys, *argv)
        assert stale == cold == warm
        # the miss written by the first run drops the entry no key reads
        assert set(json.loads(cache_file.read_text())["entries"]) == {"n=4,tol=1e-12,start=limit"}

    def test_cache_read_once_per_run(self, capsys, cache_file, monkeypatch):
        run(capsys, "figure", "--which", "fig1", "--n-list", "3,4,5")
        reads = []
        load = lupi.cli._load_cache
        monkeypatch.setattr(lupi.cli, "_load_cache", lambda path: reads.append(path) or load(path))
        code, _, _ = run(capsys, "figure", "--which", "fig1b", "--n-list", "3,4,5,6")
        assert code == 0 and reads == [str(cache_file)]
        assert set(json.loads(cache_file.read_text())["entries"]) == {
            f"n={n},tol=1e-12,start=limit" for n in (3, 4, 5, 6)
        }

    @pytest.mark.parametrize("command", ["payoff", "simulate"])
    def test_cache_read_once_for_a_source_named_twice(self, capsys, cache_file, monkeypatch, command):
        extra = ["--rounds", "1000"] if command == "simulate" else []
        argv = [command, "--n", "5", "--pi", "ne", "--p", "ne", *extra]
        reads = []
        load = lupi.cli._load_cache
        monkeypatch.setattr(lupi.cli, "_load_cache", lambda path: reads.append(path) or load(path))
        for _ in ("cold", "warm"):
            reads.clear()
            code, _, _ = run(capsys, *argv)
            assert code == 0 and reads == [str(cache_file)]

    def test_caps_exit_one(self, capsys, cache_file):
        # only the caps on work that really grows, or on what a double can
        # hold, stay: the Newton solve stops at the product form's binomial
        # table and names it, while the closed form serves any n
        code, out, err = run(capsys, "ne", "--n", "1001")
        assert code == 1 and out == "" and err.startswith("error:") and "cap n=1000" in err
        assert len(err.strip().splitlines()) == 1
        code, out, err = run(capsys, "bestsym", "--n", "1001")
        assert code == 1 and out == "" and err.startswith("error:") and "cap n=1000" in err
        assert len(err.strip().splitlines()) == 1
        code, out, _ = run(capsys, "winprob", "--n", "1500", "--strategy", "uniform")
        assert code == 0 and len(out.strip().splitlines()) == 1501
        code, out, _ = run(capsys, "winprob", "--n", "30", "--strategy", "uniform")
        assert code == 0 and len(out.strip().splitlines()) == 31
        code, _, err = run(capsys, "winprob", "--n", "30", "--strategy", "uniform",
                           "--subset-cap", "10")
        assert code == 1 and "--subset-cap" in err

    def test_classification_error_exit_code(self, capsys, cache_file, monkeypatch):
        def inconsistent(*args, **kwargs):
            raise lupi.solvers.ClassificationError("inconsistent signal", [(0.1, "small")])

        monkeypatch.setattr(lupi.solvers, "bound_c0", inconsistent)
        code, out, err = run(capsys, "bound", "--n", "9", "--depth", "4")
        assert code == 2 and out == ""
        assert err == "error: inconsistent signal\n"

    def test_unknown_command_usage_error(self, capsys, cache_file):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 1

    @pytest.mark.parametrize("argv, flag", [
        ("ne --n 5 --tol 1e-8", "--tol"),
        ("ne --n 5 --max-iter 50", "--max-iter"),
        ("bestsym --n 5 --restarts 2", "--restarts"),
    ], ids=["ne-tol", "ne-max-iter", "bestsym-restarts"])
    def test_effort_flags_refused(self, capsys, cache_file, argv, flag):
        # the solvers' tolerance, iteration budget and start count are fixed
        code, out, err = run(capsys, *argv.split())
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ") and flag in err


class TestProcess:
    """``python -m lupi.cli`` as its own process, the path scripts take."""

    @staticmethod
    def run_process(*argv):
        src = os.path.dirname(os.path.dirname(lupi.__file__))
        env = {k: v for k, v in os.environ.items() if not k.startswith("LUPI_")}
        env["PYTHONPATH"] = src
        return subprocess.run(
            [sys.executable, "-m", "lupi.cli", *argv],
            env=env, capture_output=True, timeout=120, check=False,
        )

    def test_version(self):
        proc = self.run_process("--version")
        assert proc.returncode == 0
        assert proc.stdout == b"lupi 0.1.0\n"

    def test_figure_cold_then_warm(self, capsys, tmp_path):
        argv = ["figure", "--which", "fig1", "--n-list", "3,4,5"]
        code, expected, _ = run(capsys, *argv, "--cache-path", str(tmp_path / "in_process.json"))
        assert code == 0
        cache = tmp_path / "process.json"
        for state in ("cold", "warm"):
            assert cache.exists() == (state == "warm")
            proc = self.run_process(*argv, "--cache-path", str(cache))
            assert proc.returncode == 0, (state, proc.stderr)
            assert proc.stdout == expected.encode(), state

    def test_bestsym_golden(self, tmp_path):
        proc = self.run_process("bestsym", "--n", "5", "--cache-path", str(tmp_path / "c.json"))
        assert proc.returncode == 0
        rows = b"".join(b"%d,0.2,0.18688\n" % i for i in range(1, 6))
        assert proc.stdout == b"i,p_i,w\n" + rows
