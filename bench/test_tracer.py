"""Tests for the benchmark's tracer and its tiny-cube smoke mode.

    python3 -m pytest -q bench

They finish in seconds: the smoke tests run the real traced CLI pipeline on
an 8x8 scene for a few epochs.
"""

from __future__ import annotations

import subprocess
import sys
import types
from dataclasses import replace
from pathlib import Path

import pytest

from tracer import Span, Target, Tracer, self_times, summarize

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from run import EXACT_COUNTS, Bench, layer_figures, per_layer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.fixture
def fake_module(monkeypatch):
    mod = types.ModuleType("bench_fake_layer")

    def inner(x):
        return x + 1

    def outer(x):
        return mod.inner(x) * 2  # looked up by name, like dinsat's callers

    mod.inner, mod.outer = inner, outer
    monkeypatch.setitem(sys.modules, mod.__name__, mod)
    return mod


def test_wrappers_install_and_uninstall_cleanly(fake_module):
    inner, outer = fake_module.inner, fake_module.outer
    tracer = Tracer("t")
    tracer.install([Target(fake_module.__name__, "inner", "layer.inner"),
                    Target(fake_module.__name__, "outer", "layer.outer")])
    assert fake_module.inner is not inner and fake_module.inner.__wrapped__ is inner
    assert fake_module.outer(1) == 4

    by_name = {s.name: s for s in tracer.spans}
    assert set(by_name) == {"layer.inner", "layer.outer"}
    assert by_name["layer.inner"].parent == by_name["layer.outer"].id
    assert by_name["layer.outer"].parent is None
    assert {s.run for s in tracer.spans} == {"t"}

    tracer.uninstall()
    assert fake_module.inner is inner and fake_module.outer is outer
    assert fake_module.outer(1) == 4
    assert len(tracer.spans) == 2  # nothing recorded once uninstalled


def test_a_call_that_raises_keeps_its_span(fake_module):
    def boom(x):
        raise ValueError(x)

    fake_module.inner = boom
    tracer = Tracer("t")
    tracer.install([Target(fake_module.__name__, "inner", "layer.inner")])
    with pytest.raises(ValueError):
        fake_module.outer(1)
    tracer.uninstall()
    assert [(s.name, s.attrs) for s in tracer.spans] == [("layer.inner", {"error": "ValueError"})]
    assert tracer._stack == []


def _span(i, start, end, parent=None, name="x"):
    return Span(str(i), name, start, end, parent, "t", 1)


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        _span(0, 0.0, 10.0, name="outer"),
        _span(1, 1.0, 4.0, "0"),   # overlaps the next child: 1..6 is covered once
        _span(2, 3.0, 6.0, "0"),
        _span(3, 8.0, 9.0, "0"),
        _span(4, 3.5, 5.0, "2", name="leaf"),  # a grandchild does not count for outer
    ]
    own = self_times(spans)
    assert own["0"] == pytest.approx(10.0 - 5.0 - 1.0)
    assert own["2"] == pytest.approx(3.0 - 1.5)
    assert own["4"] == pytest.approx(1.5)
    s = summarize(spans)
    assert (s["outer"].calls, s["outer"].total_s, s["outer"].self_s) == (1, 10.0, 4.0)
    assert s["x"].calls == 3 and s["x"].self_s == pytest.approx(3.0 - 1.5 + 3.0 + 1.0)


def test_missing_target_is_reported_and_does_not_crash(fake_module):
    tracer = Tracer("t")
    tracer.install([
        Target(fake_module.__name__, "no_such_function", "layer.gone"),
        Target("bench_no_such_module", "f", "layer.gone"),
        Target(fake_module.__name__, "inner", "layer.inner"),
    ])
    fake_module.outer(1)
    tracer.uninstall()
    assert tracer.missing == [f"{fake_module.__name__}.no_such_function", "bench_no_such_module.f"]
    assert "layer.gone" not in summarize(tracer.spans)


def test_flush_writes_spans_and_records_itself(tmp_path, fake_module):
    from tracer import read_spans

    tracer = Tracer("t")
    tracer.install([Target(fake_module.__name__, "inner", "layer.inner")])
    fake_module.outer(1)
    tracer.uninstall()
    tracer.flush(tmp_path / "spans.jsonl")
    spans = read_spans([tmp_path / "spans.jsonl"])
    assert [s.name for s in spans] == ["layer.inner", "trace.flush"]
    assert spans[1].start >= spans[0].end and spans[1].parent is None
    assert tracer.spans == []


# -- tiny-cube smoke mode ------------------------------------------------------

TINY = {
    "linear": replace(WORKLOADS["linear-unsup-512"], name="tiny-linear", rows=12, cols=12, epochs=40),
    "nonlinear": replace(WORKLOADS["nonlinear-sup-128"], name="tiny-nonlinear", rows=8, cols=8,
                         epochs=15, roi_pixels=24),
}


def _bench(kind, tmp_path):
    # The tiny unsupervised scene has 144 pixels; 0.05% of them rounds to the
    # 3-pixel minimum, which is enough for a smoke run.
    return Bench(ROOT, TINY[kind], seed=3, run_dir=tmp_path)


@pytest.mark.parametrize("kind", ["linear", "nonlinear"])
def test_traced_pipeline_smoke(kind, tmp_path):
    bench = _bench(kind, tmp_path)
    inputs, _ = bench.setup(1)
    plain = [bench.pipeline(inputs, traced=False)]
    traced = [bench.pipeline(inputs, traced=True) for _ in range(2)]
    assert [p.errors for p in plain + traced] == [[], [], []]
    assert (bench.attempted, bench.failed) == (6, 0)

    metrics, errors, _ = per_layer(traced, plain)
    assert errors == []
    values = {k: m["value"] for k, m in metrics.items()}
    assert values["training.epochs"] == bench.w.epochs * bench.w.ensemble
    assert values["correction.batch_calls"] == bench.w.rows + bench.w.ensemble
    assert values["transmission.t1_calls"] > 0 and values["autodiff.tape_nodes"] > 0
    if kind == "linear":
        assert values["mlp.forward_calls"] == 0
        assert values["ode.reverse_calls"] == 0
    else:
        assert values["mlp.forward_calls"] > 0
    f, _, _ = layer_figures(traced[0])
    assert set(EXACT_COUNTS) <= set(f)


def test_run_refuses_a_directory_without_sources(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", "nonlinear-sup-128",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
