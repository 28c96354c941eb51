"""README's library example runs as written."""

import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

from meanfield.gmm import simulate

ROOT = Path(__file__).resolve().parents[1]


def readme_block(heading, language):
    """The first ``language`` code block under README's ``## heading``."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def test_library_example_prints_a_finite_elbo(tmp_path):
    # The example reads the five-cluster 2-D study that README's command-line
    # section simulates with --n 1000; 200 points of the same draw keep the
    # example's 200-sweep fit to milliseconds while every line still runs.
    data, _, _ = simulate(k=5, n=200, seed=0, dim=2, min_separation=4.0)
    (tmp_path / "study").mkdir()
    np.savetxt(tmp_path / "study" / "data.csv", data, delimiter=",")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    res = subprocess.run(
        [sys.executable, "-c", readme_block("Library use", "python")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert res.returncode == 0, res.stderr
    converged, elbo = res.stdout.splitlines()[0].split()
    assert converged in ("True", "False")
    assert math.isfinite(float(elbo))
