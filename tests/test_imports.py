"""What importing the package gives: no scipy, one BLAS thread, and exports
that resolve.

The package's special functions and linear algebra are numpy only, so
importing the CLI and running any model's ``fit`` or ``eval`` leaves scipy
unloaded.  Importing the package before numpy leaves OpenBLAS on one
thread unless the caller sets ``OPENBLAS_NUM_THREADS``, ``GOTO_NUM_THREADS``
or ``OMP_NUM_THREADS``, so blr-ard's output bits do not depend on the host's
core count; the mixtures' do not depend on it either way.  Each of those
cases starts its own interpreter because pytest itself has imported scipy
and numpy by the time a test runs.  Every name in the package's and each
module's ``__all__`` resolves and is listed once, so an export left behind
by a deletion fails here.
"""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from meanfield.gmm import simulate

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = """
import json, sys
from meanfield.cli import main
codes = [main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes, "scipy": "scipy" in sys.modules}))
"""


BLAS_THREADS = """
import ctypes, json
import meanfield.cli

def threads():
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            libs = sorted({line.split()[-1] for line in handle if "openblas" in line.lower()})
    except OSError:
        return None
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return fn()
    return None

print(json.dumps(threads()))
"""


# OpenBLAS takes its thread count from the first of these that is set.
BLAS_UNSET = dict.fromkeys(("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"))


def child_env(**overrides):
    """The test's environment for a fresh interpreter on ``src``; a variable
    given as None is removed."""
    env = dict(os.environ, VI_LOG="quiet")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for name, value in overrides.items():
        if value is None:
            env.pop(name, None)
        else:
            env[name] = value
    return env


def run_commands(*commands):
    """Exit codes of ``main`` on each argv, in one fresh process, and
    whether scipy was loaded afterwards."""
    argvs = [[str(a) for a in argv] for argv in commands]
    res = subprocess.run(
        [sys.executable, "-c", SCRIPT, json.dumps(argvs)],
        capture_output=True, text=True, env=child_env(), timeout=120,
    )
    assert res.returncode == 0, res.stderr
    out = json.loads(res.stdout.splitlines()[-1])
    return out["codes"], out["scipy"]


@pytest.fixture
def inputs(tmp_path):
    rng = np.random.default_rng(0)
    mix = np.concatenate([rng.normal(-3, 1, (30, 2)), rng.normal(3, 1, (30, 2))])
    np.savetxt(tmp_path / "mix.csv", mix, delimiter=",")
    x = rng.standard_normal((40, 3))
    reg = np.column_stack([x, x @ [1.0, -2.0, 0.0] + 0.1 * rng.standard_normal(40)])
    np.savetxt(tmp_path / "reg.csv", reg, delimiter=",")
    (tmp_path / "corpus.txt").write_text("3\n4\n5\n1 1 2\n1 2 1\n2 3 3\n3 4 1\n3 1 2\n")
    return tmp_path


def gmm_fit(d, *extra):
    return ["fit", "--model", "gmm", "--k", "2", "--seed", "0", "--data", d / "mix.csv",
            "--out", d / "gmm", *extra]


def test_importing_the_cli_leaves_scipy_unloaded():
    assert run_commands() == ([], False)


@pytest.mark.parametrize("case", ["cavi", "svi", "eval"])
def test_gmm_commands_leave_scipy_unloaded(inputs, case):
    d = inputs
    commands = {
        "cavi": [gmm_fit(d, "--heldout-fraction", "0.2")],
        "svi": [gmm_fit(d, "--algorithm", "svi", "--kappa", "0.7", "--batch", "10",
                        "--max-iters", "20")],
        "eval": [gmm_fit(d), ["eval", "--fit", d / "gmm" / "fit_0.json",
                              "--data", d / "mix.csv", "--out", d / "ev"]],
    }[case]
    codes, scipy_loaded = run_commands(*commands)
    assert codes == [0] * len(commands)
    assert not scipy_loaded


@pytest.mark.parametrize("model,data", [
    ("gmm-diag", "mix.csv"), ("blr-ard", "reg.csv"), ("lda", "corpus.txt"),
])
def test_digamma_models_leave_scipy_unloaded(inputs, model, data):
    d = inputs

    def fit(out, *extra):
        k = [] if model == "blr-ard" else ["--k", "2"]
        return ["fit", "--model", model, *k, "--seed", "0",
                "--max-iters", "5", "--data", d / data, "--out", d / out, *extra]

    def evaluate(out):
        return ["eval", "--fit", d / out / "fit_0.json", "--data", d / data,
                "--out", d / ("ev-" + out)]

    commands = {
        "gmm-diag": [fit("o")],
        "blr-ard": [fit("o"), evaluate("o")],
        "lda": [fit("o"), fit("svi", "--algorithm", "svi", "--kappa", "0.7", "--batch", "2"),
                evaluate("o")],
    }[model]
    codes, scipy_loaded = run_commands(*commands)
    assert codes == [0] * len(commands)
    assert not scipy_loaded


@pytest.mark.parametrize("given, expected", [
    ({}, 1),
    ({"OPENBLAS_NUM_THREADS": "2"}, 2),
    ({"OMP_NUM_THREADS": "2"}, 2),
    ({"GOTO_NUM_THREADS": "2"}, 2),
], ids=["unset", "caller-sets-2", "caller-sets-omp-2", "caller-sets-goto-2"])
def test_the_cli_runs_one_blas_thread_unless_the_caller_sets_more(given, expected):
    if expected > (os.cpu_count() or 1):
        pytest.skip("OpenBLAS caps its threads at the core count")
    res = subprocess.run(
        [sys.executable, "-c", BLAS_THREADS], capture_output=True, text=True,
        env=child_env(**{**BLAS_UNSET, **given}), timeout=60,
    )
    assert res.returncode == 0, res.stderr
    count = json.loads(res.stdout)
    if count is None:
        pytest.skip("numpy loaded no OpenBLAS")
    assert count == expected


def test_blr_ard_outputs_match_one_blas_thread_by_default(tmp_path):
    # 97 columns is the narrowest design whose outputs moved on two OpenBLAS
    # threads: LAPACK's Cholesky and inverse then sum in another order.
    rng = np.random.default_rng(0)
    x = rng.standard_normal((50, 97))
    y = x[:, :9] @ rng.standard_normal(9) + rng.standard_normal(50)
    np.savetxt(tmp_path / "reg.csv", np.column_stack([x, y]), delimiter=",")
    outs = []
    for given in (None, "1"):
        out = tmp_path / f"threads-{given}"
        res = subprocess.run(
            [sys.executable, "-m", "meanfield.cli", "fit", "--model", "blr-ard",
             "--seed", "0", "--data", str(tmp_path / "reg.csv"), "--out", str(out)],
            capture_output=True, text=True,
            env=child_env(**{**BLAS_UNSET, "OPENBLAS_NUM_THREADS": given}),
            timeout=120,
        )
        assert res.returncode == 0, res.stderr
        outs.append(out)
    for name in ("fit_0.json", "summary.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name

    def trace(out):
        rows = [line.split(",") for line in (out / "trace_0.csv").read_text().splitlines()]
        col = rows[0].index("elapsed_ms")
        return [row[:col] + row[col + 1:] for row in rows]

    assert trace(outs[0]) == trace(outs[1])


def test_mixture_outputs_do_not_depend_on_blas_threads(tmp_path):
    # The benchmark's mixture shape: smaller inputs stay under OpenBLAS's
    # threading threshold, so a second thread would never run.
    if (os.cpu_count() or 1) < 2:
        pytest.skip("OpenBLAS caps its threads at the core count")
    data, _, _ = simulate(k=10, n=9000, seed=1, dim=8)
    np.savetxt(tmp_path / "mix.csv", data, delimiter=",")
    outs = {}
    for threads in ("1", "2"):
        commands = [
            ["fit", "--model", model, "--k", "10", "--seeds", "0,1", "--max-iters", "15",
             "--tol", "1e-12", "--data", str(tmp_path / "mix.csv"),
             "--out", str(tmp_path / threads / model), *extra]
            for model, extra in (("gmm", ["--heldout-fraction", "0.1"]), ("gmm-diag", []))
        ]
        res = subprocess.run(
            [sys.executable, "-c", SCRIPT, json.dumps(commands)],
            capture_output=True, text=True, timeout=120,
            env=child_env(**{**BLAS_UNSET, "OPENBLAS_NUM_THREADS": threads}),
        )
        assert res.returncode == 0, res.stderr
        assert json.loads(res.stdout.splitlines()[-1])["codes"] == [0, 0]
        outs[threads] = _output_lines(tmp_path / threads)
    assert len(outs["1"]) == 2 * 5  # per model: two fits, two traces, a summary
    for name, lines in outs["1"].items():
        assert lines == outs["2"][name], name


def _output_lines(out):
    """Every file under ``out`` as lines, the traces without ``elapsed_ms``."""
    files = {}
    for path in sorted(out.rglob("*.*")):
        rows = [line.split(",") for line in path.read_text().splitlines()]
        if path.name.startswith("trace_"):
            col = rows[0].index("elapsed_ms")
            rows = [row[:col] + row[col + 1:] for row in rows]
        files[str(path.relative_to(out))] = rows
    return files


def _modules():
    import meanfield

    names = [f"meanfield.{m.name}" for m in pkgutil.iter_modules(meanfield.__path__)]
    return ["meanfield", *sorted(names)]


@pytest.mark.parametrize("name", _modules())
def test_every_exported_name_resolves_once(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert sorted(n for n in set(exported) if exported.count(n) > 1) == []
    assert [n for n in exported if not hasattr(module, n)] == []
