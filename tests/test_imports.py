"""Package import boundary: lazy public names, and a warm CLI run without numpy."""

import importlib
import os
import subprocess
import sys

import pytest

import lupi
from lupi.cli import main

# every public name of the package, by the submodule that defines it
EXPORTS = {
    "config": ["ClassificationError", "ResourceLimitError"],
    "game": ["ChoiceProfile", "Strategy", "lowest_unique_winner"],
    "oracle": ["GENERATOR_NAME", "SimulationStats", "exact_win_prob", "simulate"],
    "polynomials": [
        "SparsePolynomial", "differentiate", "eliminate", "no_winner_poly",
        "no_winner_poly_by_subsets", "opponents_outcome_poly", "project_linear",
        "win_prob_poly",
    ],
    "solvers": [
        "C0Interval", "NESolution", "SelfConsistentSolution", "SequentialEntry",
        "SequentialResult", "SymmetricOptimum", "best_symmetric", "bound_c0",
        "find_cne_sequential", "sequential_solve", "solve_ne", "verify_ordering_inequality",
    ],
    "winprob": [
        "PayoffReport", "WinProbVector", "expected_payoff", "symmetric_payoff",
        "uniform_asymptotic_win_prob", "win_prob", "win_prob_gradient", "win_prob_vector",
    ],
}


def run_fresh(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a new interpreter that imports lupi from this source tree."""
    src = os.path.dirname(os.path.dirname(lupi.__file__))
    env = {k: v for k, v in os.environ.items() if not k.startswith("LUPI_")}
    env["PYTHONPATH"] = src
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=False)


class TestLazyExports:
    def test_all_names_resolve_to_defining_module(self):
        assert sorted(lupi.__all__) == sorted(n for names in EXPORTS.values() for n in names)
        for module, names in EXPORTS.items():
            defining = importlib.import_module(f"lupi.{module}")
            for name in names:
                assert getattr(lupi, name) is getattr(defining, name), name

    def test_dir_lists_public_names(self):
        listed = dir(lupi)
        assert "__all__" in listed and "__version__" in listed
        assert set(lupi.__all__) <= set(listed)

    def test_unknown_name(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            lupi.no_such_name  # noqa: B018
        assert not hasattr(lupi, "numpy")

    def test_star_import(self):
        namespace: dict = {}
        exec("from lupi import *", namespace)
        assert all(namespace[name] is getattr(lupi, name) for name in lupi.__all__)

    def test_classification_error_is_one_class(self):
        assert lupi.solvers.ClassificationError is lupi.config.ClassificationError
        assert lupi.ClassificationError is lupi.config.ClassificationError

    def test_bare_import_loads_no_numpy(self):
        proc = run_fresh(
            "import sys\n"
            "import lupi\n"
            "assert 'numpy' not in sys.modules, 'import lupi loaded numpy'\n"
            "assert lupi.solvers is sys.modules['lupi.solvers']\n"
            "assert lupi.solve_ne is lupi.solvers.solve_ne\n"
        )
        assert proc.returncode == 0, proc.stderr

    def test_oracle_import_loads_no_thread_pool(self):
        # only a simulation of two or more spans imports the pool; loading
        # it here would add its import time to every process with the oracle
        proc = run_fresh(
            "import sys\n"
            "import lupi.oracle\n"
            "assert 'concurrent.futures' not in sys.modules, 'concurrent.futures was imported'\n"
        )
        assert proc.returncode == 0, proc.stderr

    def test_only_a_split_simulation_loads_the_thread_pool(self):
        # two fake CPUs and 4-round minimum spans: 7 rounds are one span on
        # the calling thread, 8 rounds two spans on the pool
        proc = run_fresh(
            "import sys\n"
            "from lupi import Strategy, oracle\n"
            "oracle._usable_cpus = lambda: 2\n"
            "oracle._MIN_SPAN_ROUNDS = 4\n"
            "u = Strategy.uniform(3)\n"
            "oracle.simulate(u, u, 7, seed=1)\n"
            "assert 'concurrent.futures' not in sys.modules, 'a one-span run loaded the pool'\n"
            "oracle.simulate(u, u, 8, seed=1)\n"
            "assert 'concurrent.futures' in sys.modules, 'a two-span run did not load the pool'\n"
        )
        assert proc.returncode == 0, proc.stderr


class TestCliStartup:
    @staticmethod
    def run_cli_fresh(*argv: str) -> subprocess.CompletedProcess:
        """``python -m lupi.cli ARGV`` in a new interpreter; prints the exit code,
        then fails if numpy was imported."""
        return run_fresh(
            "import runpy, sys\n"
            f"sys.argv = ['lupi', *{list(argv)!r}]\n"
            "try:\n"
            "    runpy.run_module('lupi.cli', run_name='__main__')\n"
            "except SystemExit as exc:\n"
            "    print('exit', exc.code)\n"
            "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
        )

    def test_version_loads_no_numpy(self):
        proc = self.run_cli_fresh("--version")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "lupi 0.1.0\nexit 0\n"

    @pytest.mark.parametrize("which", ["fig1", "fig1b"])
    def test_warm_figure_loads_no_numpy(self, capsys, tmp_path, which):
        argv = ["figure", "--which", which, "--n-list", "3,4,5", "--cache-path",
                str(tmp_path / "cache.json")]
        assert main(argv) == 0
        expected = capsys.readouterr().out
        proc = self.run_cli_fresh(*argv)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == expected + "exit 0\n"
