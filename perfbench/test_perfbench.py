"""Self-tests of the benchmark's own helpers.

Run from the repository root: ``python3 -m pytest perfbench``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import metrics, run, speed, spans, tails, workloads

ROOT = Path(__file__).resolve().parent.parent


def scripted_clock(*readings):
    values = iter(readings)
    return lambda: next(values)


# -- self time ----------------------------------------------------------------

def test_self_time_nested_and_back_to_back_children():
    # root [0, 10] holds back-to-back children a [1, 3] and b [3, 6];
    # a holds g [1.5, 2.5].
    tracer = spans.Tracer(clock=scripted_clock(0.0, 1.0, 1.5, 2.5, 3.0,
                                               3.0, 6.0, 10.0))
    root = tracer.open(tracer.name_id("root"))
    a = tracer.open(tracer.name_id("a"))
    g = tracer.open(tracer.name_id("g"))
    tracer.close(g)
    tracer.close(a)
    b = tracer.open(tracer.name_id("b"))
    tracer.close(b)
    tracer.close(root)
    assert list(tracer.parent) == [-1, root, a, root]
    own = spans.self_times(tracer.parent, tracer.start, tracer.end)
    assert own == pytest.approx([5.0, 1.0, 1.0, 3.0])
    summary = spans.Summary(tracer)
    assert summary.self_s == pytest.approx(
        {"root": 5.0, "a": 1.0, "g": 1.0, "b": 3.0})
    assert summary.calls_by_parent[("g", "a")] == 1
    assert summary.calls_by_parent[("root", "")] == 1


def test_self_times_sum_to_root_durations():
    parent = [-1, 0, 1, 1, 0, -1]
    start = [0.0, 0.5, 0.6, 1.0, 2.0, 5.0]
    end = [4.0, 1.9, 0.9, 1.8, 3.5, 6.0]
    own = spans.self_times(parent, start, end)
    assert sum(own) == pytest.approx(4.0 + 1.0)


def test_spans_written_as_json_lines(tmp_path):
    tracer = spans.Tracer(clock=scripted_clock(1.0, 2.0))
    tracer.close(tracer.open(tracer.name_id("x")))
    path = tmp_path / "spans.jsonl"
    tracer.write_jsonl(str(path))
    [line] = path.read_text().splitlines()
    assert json.loads(line) == {"id": 0, "parent": -1, "name": "x",
                                "start_s": 1.0, "end_s": 2.0, "sim_us": 0}


# -- tail picker --------------------------------------------------------------

@pytest.mark.parametrize("n, expected_p, expected_beyond", [
    (1000, 99.0, 10),
    (236, 95.0, 11),
    (944, 98.0, 18),
    (20, 50.0, 10),
    (100_000, 99.99, 10),
])
def test_tail_is_highest_percentile_with_ten_beyond(n, expected_p,
                                                    expected_beyond):
    values = list(range(n, 0, -1))  # unsorted on purpose
    picked = tails.tail(values)
    assert picked.percentile == expected_p
    assert picked.samples == n
    assert picked.beyond == expected_beyond
    assert sum(1 for v in values if v > picked.value) == expected_beyond


def test_tail_needs_ten_beyond_the_median():
    assert tails.tail(list(range(19))) is None


def test_percentile_is_nearest_rank():
    ordered = [10.0, 20.0, 30.0, 40.0]
    assert tails.percentile(ordered, 50.0) == 20.0
    assert tails.percentile(ordered, 75.0) == 30.0
    assert tails.percentile(ordered, 100.0) == 40.0
    assert tails.percentile([7.0], 99.0) == 7.0


# -- reference seconds --------------------------------------------------------

def test_scale_uses_the_median_reading_near_the_interval():
    meter = speed.Speedometer()
    ref = speed.CALC.reference_s
    meter.readings = [(0.0, ref), (9.9, 2 * ref), (10.5, 2 * ref),
                      (11.0, 4 * ref), (20.0, ref)]
    assert meter.scale(10.0, 10.6, pad=0.5) == pytest.approx(0.5)
    assert meter.scale(0.0, 0.0, pad=0.1) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        meter.scale(5.0, 6.0, pad=0.1)


def test_reading_restores_the_collector():
    import gc

    meter = speed.Speedometer()
    meter.read(2)
    assert gc.isenabled()
    assert len(meter.readings) == 2 and all(s > 0 for _, s in meter.readings)


# -- hooks and counters -------------------------------------------------------

def test_hooks_are_removed_after_the_traced_block():
    import importlib

    def current():
        return [importlib.import_module(m).__dict__[c].__dict__[f]
                for m, c, f, *_ in spans.HOOKS + spans.COUNTERS]

    before = current()
    with spans.traced(spans.Tracer()):
        assert current() != before
    assert current() == before


def _traced_city(seed, orders):
    tracer = spans.Tracer()
    with spans.traced(tracer):
        run = workloads.CityRun(seed, orders, tracer, probe=False).run()
    summary = spans.Summary(tracer)
    return run, (summary.calls, summary.calls_by_parent, summary.outcomes)


def test_city_counters_repeat_and_probe_and_tracing_keep_behaviour():
    plain = workloads.CityRun(7, 24).run()
    first, counters = _traced_city(7, 24)
    second, again = _traced_city(7, 24)
    assert counters == again
    assert first.result.digest == second.result.digest == plain.result.digest
    calls = counters[0]
    assert calls["cp.submit_order"] >= 24
    assert calls[spans.EVENT] > 0 and calls["inv.sweep"] > 0


def test_soak_counters_repeat_and_probe_keeps_behaviour(monkeypatch):
    monkeypatch.setattr(workloads, "SOAK",
                        dict(drones=1, tenants_per_drone=2))

    def traced_soak():
        tracer = spans.Tracer()
        with spans.traced(tracer):
            run = workloads.SoakRun(3, tracer, probe=False).run()
        summary = spans.Summary(tracer)
        return run, (summary.calls, summary.outcomes)

    probed = workloads.SoakRun(3).run()
    first, counters = traced_soak()
    _, again = traced_soak()
    assert counters == again
    assert first.fingerprint() == probed.fingerprint()
    assert counters[0]["flight.physics_step"] > 0
    assert counters[0]["binder.transact"] > 0


# -- the contract -------------------------------------------------------------

def test_workload_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert run.NAMES == tuple(workloads.WORKLOADS)


def test_layer_report_gives_every_per_layer_metric():
    report = metrics.layer_metrics(spans.Summary(spans.Tracer()), 1.0, 1.0)
    assert list(report) == list(metrics.PER_LAYER)
    assert set(metrics.UNITS) == set(metrics.END_TO_END + metrics.PER_LAYER)


def test_run_fails_without_the_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "storm",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "correct" not in done.stdout
