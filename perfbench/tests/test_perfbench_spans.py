"""Self-time arithmetic of the benchmark's span recorder."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import spans  # noqa: E402


def _span(name, start, end, parent):
    return [name, start, end, parent, 0]


def test_self_time_subtracts_direct_children_only():
    tree = [
        _span("cli.main", 0.0, 10.0, -1),
        _span("engine.cavi_fit", 1.0, 4.0, 0),
        _span("gmm.sweep", 2.0, 3.0, 1),
        _span("gmm.export_state", 5.0, 9.0, 0),
        _span("expfam.params", 6.0, 6.5, 3),
        _span("expfam.params", 7.0, 7.25, 3),
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 2.0, 1.0, 3.25, 0.5, 0.25])
    # self times partition the root's interval
    assert sum(spans.self_times(tree)) == pytest.approx(10.0)


def test_layer_metrics_sum_self_times_and_keep_engine_heldout_inclusive():
    tree = [
        _span("cli.main", 0.0, 10.0, -1),
        _span("engine.cavi_fit", 1.0, 8.0, 0),
        _span("engine.heldout_log_predictive", 2.0, 6.0, 1),
        _span("gmm.log_predictive", 2.5, 3.5, 2),
        _span("gmm.log_predictive", 4.0, 5.0, 2),
        _span("engine.heldout_log_predictive", 8.5, 9.5, 0),
    ]
    tree[1][spans.COUNT] = 7
    tree[2][spans.COUNT] = 40
    tree[5][spans.COUNT] = 3
    metrics, by_layer = spans.layer_metrics(tree)
    assert metrics["gmm.log_predictive_calls"] == 2
    assert metrics["gmm.log_predictive_s"] == pytest.approx(2.0)
    assert metrics["engine.iterations"] == 7
    # only scoring called by the fit counts, with its children
    assert metrics["engine.heldout_points"] == 40
    assert metrics["engine.heldout_s"] == pytest.approx(4.0)
    assert metrics["engine.self_s"] == pytest.approx(3.0 + 2.0 + 1.0)
    assert metrics["cli.self_s"] == pytest.approx(2.0)
    assert sum(by_layer.values()) == pytest.approx(10.0)


def test_recorder_nests_spans_and_rejects_out_of_order_close():
    rec = spans.Recorder()
    outer = rec.open("cli.main")
    inner = rec.open("cli.read")
    rec.close(inner)
    rec.close(outer)
    assert [s[spans.PARENT] for s in rec.spans] == [-1, outer]
    assert all(s[spans.END] >= s[spans.START] for s in rec.spans)
    first = rec.open("a")
    rec.open("b")
    with pytest.raises(RuntimeError):
        rec.close(first)
