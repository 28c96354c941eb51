"""Which commands load scipy, checked in fresh processes.

scipy is bound on first use (``expfam.digamma``/``log_gamma``, the
``blr_ard`` solves), so importing the CLI and every unit-variance mixture
command run without it, while the models that need it still load it and
run.  Each case starts its own interpreter because pytest itself has
imported scipy by the time a test runs.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = """
import json, sys
from meanfield.cli import main
codes = [main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes, "scipy": "scipy" in sys.modules}))
"""


def run_commands(*commands):
    """Exit codes of ``main`` on each argv, in one fresh process, and
    whether scipy was loaded afterwards."""
    env = dict(os.environ, VI_LOG="quiet")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    argvs = [[str(a) for a in argv] for argv in commands]
    res = subprocess.run(
        [sys.executable, "-c", SCRIPT, json.dumps(argvs)],
        capture_output=True, text=True, env=env, timeout=120,
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
def test_models_that_need_scipy_load_it_on_first_use(inputs, model, data):
    d = inputs
    codes, scipy_loaded = run_commands(
        ["fit", "--model", model, "--k", "2", "--seed", "0", "--max-iters", "5",
         "--data", d / data, "--out", d / "o"]
    )
    assert codes == [0]
    assert scipy_loaded
