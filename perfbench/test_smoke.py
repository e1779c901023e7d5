"""Smoke test of the benchmark: every workload at a tiny J, traced and untraced.

    python3 -m pytest perfbench
"""

import json
import math
import os

import numpy as np
import pytest

import run
import tracing
import workloads as wk

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
    BENCH = json.load(f)

# Metrics the run reports but does not gate: item_s.p90 appears as null
# when fewer than 10 samples lie beyond it; accuracy only on analyze_large.
REPORTED = {"item_s.samples", "item_s.p90", "fail_frac"}
ACCURACY = {"d2_err", "d2_cover", "d1_hull_err"}


@pytest.fixture(scope="module")
def rws_cli():
    return run.load_rws()


def test_declared_metrics_match_the_harness():
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in BENCH["workloads"]] == list(run.wk.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", list(run.wk.WORKLOADS))
def test_smoke(rws_cli, workload, trace):
    result, report = run.run_workload(rws_cli, workload, seed=0, seconds=0.2, trace=trace, smoke=True)
    assert result["correct"], report["failures"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    checked = report["reference_checks"]
    assert checked["digests"] >= 1
    assert (checked["analyses"] >= 1) == (workload != "synth_large")

    declared = run.PER_LAYER if trace else run.END_TO_END
    assert set(result["metrics"]) == set(declared)
    for name, m in result["metrics"].items():
        assert m["unit"] == declared[name]
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), name

    extra = REPORTED | (ACCURACY if workload == "analyze_large" else set())
    assert set(report["metrics"]) == extra
    assert all(m["unit"] for m in report["metrics"].values())
    assert report["metrics"]["fail_frac"]["value"] == 0.0

    if trace:
        m = {k: v["value"] for k, v in result["metrics"].items()}
        self_sum = sum(m[f"{layer}.self_s"] for layer in tracing.LAYERS)
        traced_item = m["trace.item_s"] + m["trace.overhead_s"]
        assert abs(self_sum - traced_item) <= 1e-4 + 0.01 * traced_item


def test_parabola_input_is_the_library_curve(rws_cli, tmp_path):
    from rws import curve_from_function
    from rws.fileio import read_spectrum_csv

    wk.write_inputs(str(tmp_path), 8)
    got = read_spectrum_csv(str(tmp_path / "parabola.csv"))
    want = curve_from_function(lambda h: (h - 0.5) ** 2, 0.5, 1.5)
    assert np.array_equal(got.h_grid, want.h_grid) and np.array_equal(got.d_values, want.d_values)


def test_checks_reject_missing_or_differing_references(rws_cli, tmp_path):
    cli = rws_cli
    wl = wk.WORKLOADS["ensemble_small"]
    configs = wk.write_inputs(str(tmp_path), wl.smoke_J)
    sig, out = str(tmp_path / "sig"), str(tmp_path / "out")
    assert cli.main(["synth", configs["parabola"], "--out", sig, "--seed", "0"]) == 0
    assert cli.main(["analyze", os.path.join(sig, "signal.rws"), "--out", out]) == 0
    refs = wk.load_references()
    wk.check_synth(sig, "parabola", wl.smoke_J, 0, refs)
    wk.check_analyze(out, "parabola", wl.smoke_J, 0, refs)

    key = wk.reference_key("parabola", wl.smoke_J, 0)
    with pytest.raises(wk.CheckError, match="no reference"):
        wk.check_synth(sig, "parabola", wl.smoke_J, 0, {"digests": {}})
    with pytest.raises(wk.CheckError, match="sha256"):
        wk.check_synth(sig, "parabola", wl.smoke_J, 0, {"digests": {key: "0" * 64}})
    with pytest.raises(wk.CheckError, match="no reference"):
        wk.check_analyze(out, "parabola", wl.smoke_J, 0, {**refs, "analyses": {}})
    want = dict(refs["analyses"][key])
    i = next(i for i, t in enumerate(want["tau"]) if not isinstance(t, str))
    want["tau"] = want["tau"][:i] + [want["tau"][i] + 1e-3] + want["tau"][i + 1:]
    with pytest.raises(wk.CheckError, match="tau differs"):
        wk.check_analyze(out, "parabola", wl.smoke_J, 0, {**refs, "analyses": {key: want}})
