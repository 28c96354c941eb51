"""In-memory spans around the program's layers, recorded from outside.

``Recorder`` keeps every span as ``[name, start, end, parent, count]`` in a
list and writes them once, at the end of the traced run.  ``instrument``
rebinds the public functions and model methods of ``meanfield`` modules to
timing wrappers at run time and ``restore`` puts the originals back; no
source file is edited.  Spans nest through a single stack, so the traced
run must call the program from one thread (the benchmark never passes
``--parallel``).
"""

from __future__ import annotations

import functools
import sys
import time

NAME, START, END, PARENT, COUNT = range(5)


class Recorder:
    def __init__(self):
        self.spans = []
        self._stack = []

    def open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, 0])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index):
        self.spans[index][END] = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {index} closed out of order ({popped} open)")

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("index,name,start,end,parent,count\n")
            for i, (name, start, end, parent, count) in enumerate(self.spans):
                handle.write(f"{i},{name},{start!r},{end!r},{parent},{count}\n")


def self_times(spans):
    """Each span's duration minus the durations of its direct children.

    Children of one span run one after another inside it, so the part of
    its interval they cover is the sum of their durations.
    """
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def _wrap(recorder, fn, name, count):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = recorder.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(index)
        if count is not None:
            recorder.spans[index][COUNT] = count(args, result)
        return result

    return wrapper


def _heldout_size(args, result):
    return len(args[2])


def _iterations(args, result):
    return result.iterations_run


_MODEL_METHODS = ("init_state", "sweep", "elbo", "log_predictive", "export_state")

# (module, owner class or None, attribute, span name, count function)
TARGETS = (
    ("cli", None, "main", "cli.main", None),
    ("gmm", None, "read_data_csv", "cli.read", None),
    ("lda", None, "read_uci", "cli.read", None),
    ("engine", None, "cavi_fit", "engine.cavi_fit", _iterations),
    ("engine", None, "init_state", "engine.init_state", None),
    ("engine", None, "write_trace_csv", "engine.write_trace_csv", None),
    ("engine", "VariationalModel", "heldout_log_predictive",
     "engine.heldout_log_predictive", _heldout_size),
    *(("gmm", cls, m, f"gmm.{m}", None)
      for cls in ("UnitVarianceGmm", "DiagGmm") for m in _MODEL_METHODS),
    *(("blr_ard", "BlrArd", m, f"blr_ard.{m}", None) for m in _MODEL_METHODS),
    *(("lda", "Lda", m, f"lda.{m}", None)
      for m in ("init_state", "sweep", "log_predictive", "export_state")),
    ("lda", "Lda", "heldout_log_predictive", "lda.heldout_log_predictive",
     _heldout_size),
    ("lda", None, "lda_elbo", "lda.elbo", None),
    ("lda", None, "lda_svi_fit", "lda.svi_fit", None),
    ("condconj", None, "local_step", "condconj.local_step", None),
    ("condconj", None, "cond_conj_elbo", "condconj.elbo", None),
    ("condconj", None, "svi_fit", "condconj.svi_fit", None),
    ("expfam", None, "digamma", "expfam.digamma", None),
    ("expfam", None, "log_sum_exp", "expfam.log_sum_exp", None),
    ("expfam", "ExpFamParam", "__post_init__", "expfam.params", None),
)


def instrument(recorder):
    """Rebind every target to a timing wrapper; returns the undo list.

    A module-level function is replaced under every name that refers to it
    in any loaded ``meanfield`` module, since ``from .expfam import
    digamma`` copies the reference into the importing module.
    """
    undo = []
    modules = [m for n, m in sys.modules.items()
               if n == "meanfield" or n.startswith("meanfield.")]
    for module_name, owner, attr, name, count in TARGETS:
        module = sys.modules[f"meanfield.{module_name}"]
        if owner is not None:
            cls = getattr(module, owner)
            original = cls.__dict__[attr]
            setattr(cls, attr, _wrap(recorder, original, name, count))
            undo.append((cls, attr, original))
            continue
        original = getattr(module, attr)
        wrapper = _wrap(recorder, original, name, count)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    undo.append((mod, key, original))
    return undo


def restore(undo):
    for target, attr, original in reversed(undo):
        setattr(target, attr, original)


def layer_metrics(spans):
    """Per-layer self times and counts of one traced pass.

    ``engine.heldout_s`` is the one inclusive time: held-out scoring the
    engine runs during a fit, with the model's log predictive inside it.
    """
    own = self_times(spans)
    metrics = {}
    calls = {}
    module_self = {}
    for s, t in zip(spans, own):
        name = s[NAME]
        metrics[name] = metrics.get(name, 0.0) + t
        calls[name] = calls.get(name, 0) + 1
        layer = name.split(".", 1)[0]
        module_self[layer] = module_self.get(layer, 0.0) + t

    def self_s(*names):
        return sum(metrics.get(n, 0.0) for n in names)

    def count(name):
        return calls.get(name, 0)

    engine_heldout = [
        s for s in spans
        if s[NAME].endswith(".heldout_log_predictive")
        and s[PARENT] >= 0 and spans[s[PARENT]][NAME] == "engine.cavi_fit"
    ]
    out = {
        "cli.self_s": self_s("cli.main"),
        "cli.read_s": self_s("cli.read"),
        "cli.read_calls": count("cli.read"),
        "engine.self_s": module_self.get("engine", 0.0),
        "engine.iterations": sum(
            s[COUNT] for s in spans if s[NAME] == "engine.cavi_fit"),
        "engine.heldout_points": sum(s[COUNT] for s in engine_heldout),
        "engine.heldout_s": sum(s[END] - s[START] for s in engine_heldout),
        "gmm.init_s": self_s("gmm.init_state"),
        "gmm.sweep_s": self_s("gmm.sweep"),
        "gmm.elbo_s": self_s("gmm.elbo"),
        "gmm.log_predictive_calls": count("gmm.log_predictive"),
        "gmm.log_predictive_s": self_s("gmm.log_predictive"),
        "gmm.export_s": self_s("gmm.export_state"),
        "blr_ard.sweep_s": self_s("blr_ard.sweep"),
        "blr_ard.elbo_s": self_s("blr_ard.elbo"),
        "blr_ard.log_predictive_s": self_s("blr_ard.log_predictive"),
        "blr_ard.export_s": self_s("blr_ard.export_state"),
        "lda.sweep_s": self_s("lda.sweep"),
        "lda.elbo_s": self_s("lda.elbo"),
        "lda.log_predictive_s": self_s(
            "lda.log_predictive", "lda.heldout_log_predictive"),
        "lda.export_s": self_s("lda.export_state"),
        "lda.svi_self_s": self_s("lda.svi_fit"),
        "condconj.local_step_calls": count("condconj.local_step"),
        "condconj.local_step_s": self_s("condconj.local_step"),
        "condconj.elbo_s": self_s("condconj.elbo"),
        "condconj.svi_self_s": self_s("condconj.svi_fit"),
        "expfam.digamma_calls": count("expfam.digamma"),
        "expfam.digamma_s": self_s("expfam.digamma"),
        "expfam.log_sum_exp_calls": count("expfam.log_sum_exp"),
        "expfam.log_sum_exp_s": self_s("expfam.log_sum_exp"),
        "expfam.params_built": count("expfam.params"),
        "expfam.params_s": self_s("expfam.params"),
    }
    return out, module_self
