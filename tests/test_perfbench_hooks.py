"""The benchmark's tracer rebinds names of the package by attribute."""

import threading
import time
from pathlib import Path

import numpy as np
import pytest

from rws import (
    GaussianKernel,
    ShiftedGammaKernel,
    SynthesisConfig,
    cli,
    daubechies_filter,
    forward_dwt,
    synthesize,
)
from rws.fileio import read_signal, write_signal

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_hooked_name_is_defined_on_its_owner(monkeypatch):
    # Tracer.installed() reads owner.__dict__[attr]; a refactor that drops
    # or moves a hooked name would make every traced benchmark run fail
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    missing = [(name, getattr(owner, "__name__", owner), attr)
               for name, owner, attr, _ in tracing.hook_table()
               if attr not in owner.__dict__]
    assert not missing


def test_tracer_counters_run_on_an_analyze_call(monkeypatch, tmp_path):
    # the counters read the hooked calls' arguments and results; one that
    # breaks on a changed argument type would fail every traced benchmark run
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    sig = tmp_path / "signal.rws"
    write_signal(str(sig), synthesize(SynthesisConfig(J=10, source=GaussianKernel(m=1.0, sigma=0.5), seed=1)))
    originals = [(owner, attr, owner.__dict__[attr]) for _, owner, attr, _ in tracing.hook_table()]
    tracer = tracing.Tracer()
    with tracer.installed():
        assert cli.main(["analyze", str(sig), "--out", str(tmp_path / "an")]) == 0
    assert all(owner.__dict__[attr] is raw for owner, attr, raw in originals)
    pyramid = forward_dwt(read_signal(str(sig)), daubechies_filter(3))
    nonzero = sum(np.count_nonzero(pyramid.levels[j]) for j in range(1, 10))  # fit scales 1..9
    assert tracer.counts["tau_qcoef"] == 151 * nonzero


def _synthesize_j18(tmp_path):
    return lambda tracer: synthesize(
        SynthesisConfig(J=18, source=ShiftedGammaKernel(alpha0=0.1, nu=1.5, beta=4.0), seed=5))


def _analyze_j18(tmp_path):
    sig, out = str(tmp_path / "signal.rws"), str(tmp_path / "an")
    write_signal(sig, synthesize(SynthesisConfig(J=18, source=GaussianKernel(m=1.0, sigma=0.5), seed=5)))

    def item(tracer):  # the benchmark's traced item, with cli.main as the root span
        assert tracer.wrap("cli.main", cli.main)(["analyze", sig, "--out", out]) == 0

    return item


# set-up returning work that spreads blocks over the worker pool, and a
# span that work must record
MULTI_BLOCK_CALLS = {
    "synthesize": (_synthesize_j18, "synthesis.sample"),
    "analyze": (_analyze_j18, "estimation.tau"),
}


@pytest.mark.parametrize("case", list(MULTI_BLOCK_CALLS))
def test_spans_nest_around_a_multi_block_call(case, monkeypatch, tmp_path):
    # the tracer keeps one span stack; a hooked call from a sampling or
    # ladder worker thread would push onto it concurrently with the main thread
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    prepare, stage = MULTI_BLOCK_CALLS[case]
    run = prepare(tmp_path)  # before the tracer is installed
    off_main = []

    class MainThreadTracer(tracing.Tracer):
        def wrap(self, name, fn, counter=None):
            traced = super().wrap(name, fn, counter)

            def checked(*args, **kwargs):
                if threading.current_thread() is not threading.main_thread():
                    off_main.append(name)
                return traced(*args, **kwargs)

            return checked

    tracer = MainThreadTracer()
    with tracer.installed():
        start = time.perf_counter()
        run(tracer)
        wall = time.perf_counter() - start
    assert not off_main
    spans = list(tracer.spans)
    assert any(name == stage for name, *_ in spans)
    covered = [0.0] * len(spans)
    for name, begin, end, parent in spans:
        if parent >= 0:
            _, p_begin, p_end, _ = spans[parent]
            assert p_begin <= begin <= end <= p_end, name
            covered[parent] += end - begin
    self_s = [end - begin - c for (_, begin, end, _), c in zip(spans, covered)]
    assert min(self_s) >= 0.0  # children of one span do not overlap
    assert abs(sum(self_s) - wall) <= 0.01 * wall
