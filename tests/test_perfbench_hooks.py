"""The benchmark's tracer rebinds names of the package by attribute."""

from pathlib import Path

import numpy as np

from rws import GaussianKernel, SynthesisConfig, cli, daubechies_filter, forward_dwt, synthesize
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
