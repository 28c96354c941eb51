"""Benchmark of the ``meanfield`` CLI: end-to-end metrics or a per-layer trace.

Run from the repository root:

    python3 perfbench/run.py --workload mixture-cavi --seed 1 --seconds 30 --trace 0

``--trace 0`` generates the workload's inputs from ``--seed``, times a few
fresh-process set-ups, then runs the workload's CLI commands as
subprocesses (``python3 -m meanfield.cli`` with ``PYTHONPATH=src``) over and
over for about ``--seconds``, at least twice.  ``--trace 1``
runs the same commands in this process through ``meanfield.cli.main``: twice
plain, the first pass a discarded warm-up, then once with every layer
wrapped in spans.  Every run checks the
outputs.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a readable report and the environment record.  ``README.md`` explains
the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import spans  # noqa: E402
from workloads import INPUTS, WORKLOADS, commands  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
SETUP_PROBES = 5
# The run must end within 180 s; no new repeat starts past this point.
DEADLINE_S = 140.0
COMMAND_TIMEOUT_S = 150.0
# Same slack as the engine's monotonicity check.
MONOTONE_SLACK = 1e-8

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "fit_s": "s",
    "eval_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "heldout_lpd": "nats/obs",
    "elbo_per_obs": "nats",
}
# Printed with the others but not in the JSON metrics.  The iteration times
# isolate the sweeps, the code whose speed a shared host moves most: over
# ten seeds their quartile distance reached 0.18-0.28 of the median on
# lda-cavi, too close to the largest bound a metric may have (0.25).
# ``fit_s`` holds the same sweeps, and ``--trace 1`` times them per layer.
REPORT_ONLY = {"iter_ms": "ms", "iter_ms_p90": "ms"}
# ``fail_ratio`` is 0 on a correct program; the JSON carries it as
# ``failed`` / ``attempted``.
FAIL_RATIO_UNIT = "ratio"


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name == "cli.bytes_written":
        return "bytes"
    return "count"


PER_LAYER = (
    "cli.read_s", "cli.read_calls", "cli.self_s", "cli.bytes_written",
    "engine.self_s", "engine.iterations", "engine.heldout_points",
    "engine.heldout_s",
    "gmm.init_s", "gmm.sweep_s", "gmm.elbo_s", "gmm.log_predictive_calls",
    "gmm.log_predictive_s", "gmm.export_s",
    "blr_ard.sweep_s", "blr_ard.elbo_s", "blr_ard.log_predictive_s",
    "blr_ard.export_s",
    "lda.sweep_s", "lda.elbo_s", "lda.log_predictive_s", "lda.export_s",
    "lda.svi_self_s",
    "condconj.local_step_calls", "condconj.local_step_s", "condconj.elbo_s",
    "condconj.svi_self_s",
    "expfam.digamma_calls", "expfam.digamma_s", "expfam.log_sum_exp_calls",
    "expfam.log_sum_exp_s", "expfam.params_built", "expfam.params_s",
    "trace.overhead_s", "trace.residual_s",
)


class BenchError(Exception):
    """The benchmark cannot produce a result (not a program failure)."""


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def check_canary():
    """Refuse to run if the generator no longer reproduces its recorded bytes.

    The small inputs of the canary seed are regenerated on every run; a run
    whose own seed is the canary seed also checks its full-size inputs.
    """
    canary = REFERENCE["canary_seed"]
    names = list(REFERENCE["digests"]["smoke"])
    files = inputs.generate(names, canary, "smoke")
    for name in names:
        if inputs.digest(files[name]) != REFERENCE["digests"]["smoke"][name]:
            raise BenchError(f"input generator changed: smoke {name} digest differs")


def write_inputs(workload, seed, size_name, directory):
    files = inputs.generate(INPUTS[workload], seed, size_name)
    directory.mkdir(parents=True)
    digests = {}
    for name, data in files.items():
        (directory / name).write_bytes(data)
        digests[name] = inputs.digest(data)
        expected = REFERENCE["digests"][size_name].get(name)
        if seed == REFERENCE["canary_seed"] and digests[name] != expected:
            raise BenchError(f"input generator changed: {size_name} {name} digest differs")
    return digests


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def _finite(value):
    return isinstance(value, (int, float)) and math.isfinite(value)


def _read_json(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def outputs_digest(directory):
    """Digest of every output file; the wall-clock column of traces is dropped."""
    h = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(directory)).encode() + b"\0")
        data = path.read_bytes()
        if path.name.startswith("trace_"):
            rows = [line.split(",") for line in data.decode().splitlines()]
            data = "\n".join(",".join(r[:2] + r[3:]) for r in rows).encode()
        h.update(data + b"\0")
    return h.hexdigest()


def iteration_samples(rows):
    """ms per iteration between consecutive trace rows.

    The stretch before the first row is no such interval and is left out:
    it holds the cold first sweep (or first SVI window), which costs up to
    5x a later one and would put a tail percentile on that one noisy
    sample.  ``fit_s`` still counts it.
    """
    return [(float(b["elapsed_ms"]) - float(a["elapsed_ms"])) / (int(b["iter"]) - int(a["iter"]))
            for a, b in zip(rows, rows[1:])]


def check_command(cmd, work, size_name):
    """Problems found in one command's outputs, plus the values it reports."""
    out = work / cmd.out
    problems, values, samples = [], [], []
    try:
        if cmd.kind == "eval":
            value = _read_json(out / "eval.json")["heldout_log_predictive"]
            if not _finite(value):
                problems.append(f"held-out log predictive {value!r} is not finite")
            values.append(value)
        else:
            summary = _read_json(out / "summary.json")
            for seed in summary["seeds"]:
                fit = _read_json(out / f"fit_{seed}.json")
                with open(out / f"trace_{seed}.csv", newline="") as handle:
                    rows = list(csv.DictReader(handle))
                elbos = [float(r["elbo"]) for r in rows]
                held = [float(r["heldout_logpred"]) for r in rows if r["heldout_logpred"]]
                final = fit["final_elbo"]
                if not rows or not all(map(math.isfinite, elbos + held)):
                    problems.append(f"seed {seed}: empty or non-finite trace")
                if not _finite(final) or (elbos and final != elbos[-1]):
                    problems.append(f"seed {seed}: final ELBO {final!r} is not the last traced")
                if cmd.monotone and any(
                    b < a - MONOTONE_SLACK * (1.0 + abs(b)) for a, b in zip(elbos, elbos[1:])
                ):
                    problems.append(f"seed {seed}: CAVI ELBO trace decreases")
                values.append(final / cmd.obs)
                samples.extend(iteration_samples(rows))
    except (OSError, KeyError, ValueError, TypeError) as err:
        problems.append(f"outputs missing or malformed: {err!r}")
        return problems, values, samples
    ref = REFERENCE["values"].get(cmd.label)
    if size_name == "full" and ref is not None and values:
        value = statistics.fmean(values)
        if abs(value - ref["value"]) > ref["rel_tol"] * abs(ref["value"]):
            problems.append(f"value {value!r} is not within {ref['rel_tol']} "
                            f"of reference {ref['value']!r}")
    return problems, values, samples


def check_pass(cmds, rcs, work, size_name, reference_digests):
    """Check one pass over the workload; returns per-command results.

    ``reference_digests`` holds the first pass's output digests; a later
    pass of the same seed must reproduce them byte for byte.
    """
    results = []
    for cmd, rc in zip(cmds, rcs):
        problems, values, samples = [], [], []
        if rc != 0:
            problems.append(f"exit code {rc}")
        else:
            problems, values, samples = check_command(cmd, work, size_name)
        digest = outputs_digest(work / cmd.out) if (work / cmd.out).exists() else None
        if cmd.label in reference_digests and digest != reference_digests[cmd.label]:
            problems.append("outputs differ from the first run of this seed")
        reference_digests.setdefault(cmd.label, digest)
        results.append({"label": cmd.label, "kind": cmd.kind, "rc": rc,
                        "problems": problems, "values": values, "samples": samples})
    return results


# ---------------------------------------------------------------------------
# subprocess runs
# ---------------------------------------------------------------------------


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv, cwd, log_path):
    """Run one process; returns (exit code, wall s, cpu s, max RSS MB)."""
    with open(log_path, "ab") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=log,
                                stderr=subprocess.STDOUT)
        watchdog = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    return proc.returncode, wall, cpu, usage.ru_maxrss / 1024.0


def quantile(values, q):
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    cuts = statistics.quantiles(ordered, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def _geomean(values):
    return statistics.geometric_mean(values) if values else float("nan")


def timed_run(workload, seed, seconds, size_name, work, started):
    cmds = commands(workload, size_name)
    logs = work / "logs"
    logs.mkdir()
    input_files = [f"in/{name}" for name in INPUTS[workload]]
    probe = [sys.executable, str(HERE / "setup_probe.py"), *input_files]
    setup = []
    for _ in range(SETUP_PROBES if size_name == "full" else 1):
        rc, wall, _, _ = run_child(probe, work, logs / "setup.log")
        if rc != 0:
            raise BenchError(f"set-up probe failed with exit code {rc}; see {logs}")
        setup.append(wall)

    # Two repeats at least, so that outputs can be compared byte for byte.
    # A new repeat starts only if it would end nearer to ``seconds`` than
    # stopping now: a run measures about ``seconds`` whatever the repeat
    # length, and the time a series of runs takes stays predictable.
    reps = []
    digests = {}
    loop_start = time.perf_counter()
    while len(reps) < 2 or (
        time.perf_counter() - loop_start + reps[-1]["wall_s"] / 2 < seconds
        and time.perf_counter() - started + reps[-1]["wall_s"] < DEADLINE_S
    ):
        timings = [run_child([sys.executable, "-m", "meanfield.cli", *c.argv], work,
                             logs / f"{c.label}.log") for c in cmds]
        checked = check_pass(cmds, [t[0] for t in timings], work, size_name, digests)
        shutil.rmtree(work / "out", ignore_errors=True)
        reps.append({
            "wall_s": sum(t[1] for t in timings),
            "fit_s": sum(t[1] for c, t in zip(cmds, timings) if c.kind == "fit"),
            "eval_s": sum(t[1] for c, t in zip(cmds, timings) if c.kind == "eval"),
            "cpu_s": sum(t[2] for t in timings),
            "peak_rss_mb": max(t[3] for t in timings),
            "commands": [dict(r, wall_s=t[1], cpu_s=t[2], rss_mb=t[3])
                         for r, t in zip(checked, timings)],
        })

    # Fits differ in cost per iteration by 50x, so samples of different fits
    # are never pooled.  In each repeat a fit's time per iteration is the
    # mean of its samples, and its p90 their 90th percentile; each fit takes
    # the median of these over the repeats, like the other times.  The
    # metrics are geometric means over the fits, which a 2x change in any
    # one fit moves by the same factor.  A shared host runs at two speeds
    # that alternate over seconds: the median of samples pooled over the
    # whole run jumps between the two, a mean within a repeat does not.
    by_fit = {}
    for rep in reps:
        for c in rep["commands"]:
            if c["samples"]:
                by_fit.setdefault(c["label"], []).append(c["samples"])
    per_fit = {label: (statistics.median(statistics.fmean(s) for s in runs),
                       statistics.median(quantile(s, 0.9) for s in runs),
                       sum(map(len, runs)))
               for label, runs in by_fit.items()}
    first = reps[0]["commands"]
    lpd = [v for c in first if c["kind"] == "eval" for v in c["values"]]
    elbo = [v for c in first if c["kind"] == "fit" for v in c["values"]]
    metrics = {
        "setup_s": statistics.median(setup),
        **{k: statistics.median(r[k] for r in reps)
           for k in ("wall_s", "fit_s", "eval_s", "cpu_s", "peak_rss_mb")},
        "iter_ms": _geomean([mean for mean, _, _ in per_fit.values()]),
        "iter_ms_p90": _geomean([p90 for _, p90, _ in per_fit.values()]),
        "heldout_lpd": statistics.fmean(lpd) if lpd else float("nan"),
        "elbo_per_obs": statistics.fmean(elbo) if elbo else float("nan"),
    }
    details = {"setup_s_runs": setup, "iter_per_fit": per_fit, "reps": reps}
    return metrics, [c for r in reps for c in r["commands"]], details


# ---------------------------------------------------------------------------
# in-process traced run
# ---------------------------------------------------------------------------


def run_in_process(cli, cmds):
    rcs = []
    start = time.perf_counter()
    for cmd in cmds:
        try:
            rc = cli.main(list(cmd.argv))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is a failed command; the run goes on
            traceback.print_exc(file=sys.__stderr__)
            rc = 1
        rcs.append(rc)
    return time.perf_counter() - start, rcs


def traced_run(workload, size_name, work, spans_path):
    """Two plain and one traced in-process pass; per-layer metrics."""
    cmds = commands(workload, size_name)
    sys.path.insert(0, str(SRC))
    import meanfield.cli as cli

    digests = {}
    cwd = os.getcwd()
    os.chdir(work)
    try:
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            checked = []
            for _ in range(2):  # the first pass is a discarded warm-up
                plain_wall, rcs = run_in_process(cli, cmds)
                checked += check_pass(cmds, rcs, work, size_name, digests)
                shutil.rmtree(work / "out", ignore_errors=True)
            recorder = spans.Recorder()
            undo = spans.instrument(recorder)
            try:
                traced_wall, rcs = run_in_process(cli, cmds)
            finally:
                spans.restore(undo)
            written = sum(p.stat().st_size for p in (work / "out").rglob("*") if p.is_file())
            checked += check_pass(cmds, rcs, work, size_name, digests)
    finally:
        os.chdir(cwd)
    recorder.write(spans_path)

    layers, module_self = spans.layer_metrics(recorder.spans)
    covered = sum(module_self.values())
    layers["cli.bytes_written"] = written
    layers["trace.overhead_s"] = traced_wall - plain_wall
    layers["trace.residual_s"] = traced_wall - covered
    details = {"plain_wall_s": plain_wall, "traced_wall_s": traced_wall,
               "module_self_s": module_self, "spans": len(recorder.spans),
               "spans_file": str(spans_path)}
    return {k: layers[k] for k in PER_LAYER}, checked, details


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------


def _openblas_threads():
    """Thread count the loaded OpenBLAS reports, or None if not found."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            libs = {line.split()[-1] for line in handle if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _last_level_cache():
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    best = None
    for index in sorted(base.glob("index*")):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        if best is None or level >= best[0]:
            best = (level, size)
    return None if best is None else f"L{best[0]} {best[1]}"


def _git_commit():
    try:
        result = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return result.stdout.strip() if result.returncode == 0 else None


def environment(warmup):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _openblas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "last_level_cache": _last_level_cache(),
        "git_commit": _git_commit(),
        "warmup": warmup,
    }


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def report(workload, seed, trace, metrics, attempted, failed, details):
    print(f"# meanfield benchmark: workload={workload} seed={seed} trace={trace}")
    if trace:
        for name in PER_LAYER:
            print(f"{name:28s} {metrics[name]:>16.6f} {layer_unit(name)}")
        module_self = details["module_self_s"]
        for layer, value in sorted(module_self.items()):
            print(f"self time of layer {layer:10s} {value:>12.6f} s")
        print(f"sum of layer self times {sum(module_self.values()):.6f} s of traced "
              f"wall {details['traced_wall_s']:.6f} s (residual "
              f"{metrics['trace.residual_s']:.6f} s); plain wall "
              f"{details['plain_wall_s']:.6f} s; {details['spans']} spans")
    else:
        per_fit = details["iter_per_fit"]
        count = sum(n for _, _, n in per_fit.values())
        for name, unit in {**END_TO_END, **REPORT_ONLY}.items():
            note = (f"  (geometric mean over {len(per_fit)} fits of each fit's "
                    f"median over {len(details['reps'])} repeats; {count} samples)"
                    if name.startswith("iter_ms") else "")
            print(f"{name:14s} {metrics[name]:>14.6f} {unit}{note}")
        print(f"{'fail_ratio':14s} {failed / attempted:>14.6f} {FAIL_RATIO_UNIT}"
              f"  ({failed} of {attempted} commands)")
        for label, (mean, p90, n) in per_fit.items():
            print(f"iteration time of {label}, median over repeats: mean {mean:.3f} ms, "
                  f"p90 {p90:.3f} ms, {n} samples")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and two repeats: checks the harness only")
    parser.add_argument("--workdir", help="scratch directory (default: .perfbench/ at the root)")
    args = parser.parse_args(argv)
    started = time.perf_counter()
    # a terminated run still removes its scratch files and its child process
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "meanfield" / "cli.py").is_file():
        print(f"error: {SRC / 'meanfield'} not found; run from a meanfield checkout",
              file=sys.stderr)
        return 2
    size_name = "smoke" if args.smoke else "full"
    base = Path(args.workdir) if args.workdir else ROOT / ".perfbench"
    results_dir = base / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = base / f"work-{stem}-{os.getpid()}"
    try:
        check_canary()
        digests = write_inputs(args.workload, args.seed, size_name, work / "in")
        if args.trace:
            metrics, checked, details = traced_run(
                args.workload, size_name, work, results_dir / f"{stem}-spans.csv")
            units = {name: layer_unit(name) for name in PER_LAYER}
            warmup = ("one plain in-process pass discarded; the second plain pass and "
                      "the traced pass set trace.overhead_s")
        else:
            metrics, checked, details = timed_run(
                args.workload, args.seed, args.seconds, size_name, work, started)
            units = END_TO_END
            warmup = (f"{len(details['setup_s_runs'])} set-up probe processes run before "
                      "the timed repeats; no repeat is discarded")
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(checked)
    failed = sum(1 for c in checked if c["problems"])
    for c in checked:
        for problem in c["problems"]:
            print(f"FAILED {c['label']}: {problem}", file=sys.stderr)
    env = environment(warmup)
    report(args.workload, args.seed, args.trace, metrics, attempted, failed, details)
    print("# environment: " + json.dumps(env, sort_keys=True))
    (results_dir / f"{stem}.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "size": size_name,
         "inputs": digests, "environment": env, "metrics": metrics,
         "attempted": attempted, "failed": failed, "details": details},
        indent=1, default=str) + "\n", encoding="utf-8")
    correct = failed == 0 and all(math.isfinite(v) for v in metrics.values())
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
