"""End-to-end command-line behavior and exit codes."""

import hashlib
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from rws import (
    DiracKernel,
    GaussianKernel,
    ShiftedGammaKernel,
    ShiftedPoissonKernel,
    SynthesisConfig,
    check_admissible,
    cli,
    curve_from_function,
    daubechies_filter,
    gaussian_threshold,
    generate_coefficients,
    inverse_dwt,
    spectrum_from_rho,
    synthesize,
)
from rws.fileio import (
    build_kernel,
    parse_key_values,
    read_signal,
    read_spectrum_csv,
    write_columns,
    write_signal,
)


def write_flat_config(path, J=10, extra=""):
    path.write_text(f"mode=flat\nalpha0=0.7\nJ={J}\n{extra}")


def write_gaussian_config(path, J=10):
    path.write_text(f"mode=kernel\nkernel=gaussian\nm=1.0\nsigma=0.5\nJ={J}\nseed=1\n")


def write_bump_spectrum_config(root):
    bump = curve_from_function(lambda v: 1.0 - ((v - 1.0) / 0.5) ** 2, 0.5, 1.5)
    write_columns(str(root / "bump.csv"), "h,d", bump.h_grid, bump.d_values)
    (root / "c.cfg").write_text("mode=spectrum\nspectrum_file=bump.csv\nJ=10\n")


# ---------------------------------------------------------------------------
# synth

def test_synth_writes_signal_and_manifest(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    write_flat_config(cfg)
    out = tmp_path / "run"
    assert cli.main(["synth", str(cfg), "--out", str(out)]) == 0
    assert "wrote" in capsys.readouterr().out
    x = read_signal(str(out / "signal.rws"))
    assert x.size == 1024
    manifest = parse_key_values((out / "manifest.txt").read_text())
    assert manifest["command"] == "synth"
    assert manifest["mode"] == "flat"
    assert manifest["J"] == "10"
    assert manifest["wavelet"] == "db10"
    assert manifest["samples"] == "1024"
    assert (out / "manifest.txt").read_text().splitlines()[-1].startswith("duration_s=")


@pytest.mark.parametrize("command", ["synth", "analyze", "kernel"])
def test_manifest_starts_with_the_command_and_ends_with_the_duration(command, tmp_path):
    cfg = tmp_path / "c.cfg"
    write_gaussian_config(cfg)
    assert cli.main(["synth", str(cfg), "--out", str(tmp_path / "synth")]) == 0
    args = {"synth": [str(cfg)], "analyze": [str(tmp_path / "synth" / "signal.rws")],
            "kernel": ["dirac", "H=0.8"]}[command]
    out = tmp_path / command
    assert cli.main([command, *args, "--out", str(out)]) == 0
    lines = (out / "manifest.txt").read_text().splitlines()
    assert lines[0] == f"command={command}"
    assert lines[-1].startswith("duration_s=")
    assert sum(line.startswith(("command=", "duration_s=")) for line in lines) == 2


def test_synth_is_deterministic(tmp_path):
    cfg = tmp_path / "c.cfg"
    write_gaussian_config(cfg)
    cli.main(["synth", str(cfg), "--out", str(tmp_path / "a")])
    cli.main(["synth", str(cfg), "--out", str(tmp_path / "b")])
    a = (tmp_path / "a" / "signal.rws").read_bytes()
    b = (tmp_path / "b" / "signal.rws").read_bytes()
    assert a == b


def test_synth_overrides_take_effect(tmp_path):
    cfg = tmp_path / "c.cfg"
    write_gaussian_config(cfg)
    base = tmp_path / "base"
    over = tmp_path / "over"
    cli.main(["synth", str(cfg), "--out", str(base)])
    assert cli.main(["synth", str(cfg), "--out", str(over), "--seed", "9", "--wavelet", "db4"]) == 0
    manifest = parse_key_values((over / "manifest.txt").read_text())
    assert manifest["seed"] == "9"
    assert manifest["wavelet"] == "db4"
    a = read_signal(str(base / "signal.rws"))
    b = read_signal(str(over / "signal.rws"))
    assert not np.array_equal(a, b)


def test_synth_bad_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    write_flat_config(cfg, extra="flavor=mint\n")
    assert cli.main(["synth", str(cfg), "--out", str(tmp_path)]) == 2
    assert "unknown config keys" in capsys.readouterr().err
    write_flat_config(cfg, extra="wavelet=haar\n")
    assert cli.main(["synth", str(cfg), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {cfg}: unknown wavelet 'haar'")
    assert cli.main(["synth", str(tmp_path / "absent.cfg")]) == 2


@pytest.mark.parametrize("config", [
    "mode=kernel\nkernel=cauchy\nJ=10\n",
    "mode=kernel\nkernel=gaussian\nm=1.0\nJ=10\n",
    "mode=kernel\nkernel=gaussian\nm=one\nsigma=0.5\nJ=10\n",
    "mode=kernel\nkernel=dirac\nH=0.8\nflavor=mint\nJ=10\n",
    "mode=flat\nalpha0=0.7\nJ=ten\n",
    "mode=kernel\nJ=10\n",
    "mode=flat\nalpha0=0.7\nJ=3\n",
    "mode=flat\nalpha0=0.7\nJ=10\nseed=-1\n",
    "mode=flat\nalpha0=0\nJ=10\n",
    "mode=spectrum\nspectrum_file=wide.csv\nJ=8\n",
], ids=["unknown-kernel", "missing-parameter", "parameter-not-a-number", "unknown-key",
        "J-not-an-integer", "no-kernel-variant", "J-3", "seed-negative", "flat-alpha0-0",
        "scale-law-beyond-the-step-bound"])
@pytest.mark.filterwarnings("ignore:target h_max:UserWarning")   # h_max 10000 is beyond db10's regularity
def test_synth_config_errors_start_with_the_config_path(config, tmp_path, capsys):
    # h_max = 10000: the scale-1 law needs 5e6 steps, refused while synthesizing
    (tmp_path / "wide.csv").write_text("# h,d\n1,0.0001\n10000,1\n")
    cfg = tmp_path / "c.cfg"
    cfg.write_text(config)
    out = tmp_path / "run"
    assert cli.main(["synth", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {cfg}: ")
    assert not out.exists()


@pytest.mark.parametrize(("mode", "key"), [("spectrum", "spectrum_file"), ("kernel", "kernel")])
def test_synth_mode_without_its_source_names_the_missing_key(mode, key, tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"mode={mode}\nJ=10\n")
    assert cli.main(["synth", str(cfg), "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err == f"error: {cfg}: missing required key '{key}'\n"


def test_synth_negative_seed_exits_2(tmp_path):
    cfg = tmp_path / "c.cfg"
    write_flat_config(cfg)
    assert cli.main(["synth", str(cfg), "--out", str(tmp_path), "--seed", "-1"]) == 2


def test_the_file_seed_is_checked_with_the_path_even_when_overridden(tmp_path, capsys):
    # a config is checked as written; a --seed value is checked by the config it replaces, without a path
    cfg = tmp_path / "c.cfg"
    write_flat_config(cfg, extra="seed=-1\n")
    out = tmp_path / "run"
    assert cli.main(["synth", str(cfg), "--out", str(out), "--seed", "3"]) == 2
    assert capsys.readouterr().err.startswith(f"error: {cfg}: seed must be an integer")
    write_flat_config(cfg)
    assert cli.main(["synth", str(cfg), "--out", str(out), "--seed", "-1"]) == 2
    assert capsys.readouterr().err == f"error: seed must be an integer in [0, {2**64 - 1}], got -1\n"
    assert not out.exists()


def test_synth_seed_beyond_64_bits_exits_2(tmp_path, capsys):
    # 2**64 would alias seed 0 in the 64-bit Philox key
    cfg = tmp_path / "c.cfg"
    write_flat_config(cfg)
    out = tmp_path / "run"
    assert cli.main(["synth", str(cfg), "--out", str(out), "--seed", str(2**64)]) == 2
    assert "seed" in capsys.readouterr().err
    assert not out.exists()


def test_synth_inadmissible_spectrum_exits_3(tmp_path, capsys):
    write_bump_spectrum_config(tmp_path)
    assert cli.main(["synth", str(tmp_path / "c.cfg"), "--out", str(tmp_path)]) == 3
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("kernel", [
    None,
    ("gamma", "alpha0=0.04289795560504386", "nu=0.031511520870867185", "beta=0.020426139303159074"),
], ids=["first-d-cell-empty", "gamma-steep-at-its-left-zero"])
def test_synth_takes_a_spectrum_file_as_written(kernel, tmp_path):
    # an empty first d cell narrows the span to the present samples, and the
    # spectrum.csv of rws kernel resynthesizes, even for a density this steep
    if kernel:
        assert cli.main(["kernel", *kernel, "--out", str(tmp_path)]) == 0
    else:
        (tmp_path / "spectrum.csv").write_text("0.5,\n0.75,0.75\n1.0,1.0\n")
    (tmp_path / "c.cfg").write_text("mode=spectrum\nspectrum_file=spectrum.csv\nJ=8\n")
    out = tmp_path / "run"
    assert cli.main(["synth", str(tmp_path / "c.cfg"), "--out", str(out)]) == 0
    assert parse_key_values((out / "manifest.txt").read_text())["samples"] == "256"


def test_the_admissible_edge_synthesizes_and_analyzes_at_J21(tmp_path):
    # d(h) = h on [0.1, 1], the admissible maximum, at a J where its
    # trapezoid-tabulated scale laws have mass just above 1
    h = np.linspace(0.1, 1.0, 181).tolist()
    (tmp_path / "edge.csv").write_text("# h,d\n" + "".join(f"{v!r},{v!r}\n" for v in h))
    (tmp_path / "c.cfg").write_text("mode=spectrum\nspectrum_file=edge.csv\nJ=21\nseed=3\n")
    assert cli.main(["synth", str(tmp_path / "c.cfg"), "--out", str(tmp_path / "s")]) == 0
    out = tmp_path / "an"
    assert cli.main(["analyze", str(tmp_path / "s" / "signal.rws"), "--out", str(out)]) == 0
    assert parse_key_values((out / "manifest.txt").read_text())["command"] == "analyze"
    assert parse_key_values((out / "meta.txt").read_text())["J"] == "21"


@pytest.mark.parametrize(("config", "message"), [
    ("mode=kernel\nkernel=gaussian\nm=0.1\nsigma=0.5\nJ=8\n", "m <= alpha*(sigma) = 0.588705011258"),
    ("mode=spectrum\nspectrum_file=gap.csv\nJ=8\n", "absent value inside [h_min, h_max]"),
    ("mode=kernel\nkernel=poisson\nalpha0=0\nc=0.5\nJ=8\n", "alpha0 <= alpha*(c) = 0"),
    ("mode=kernel\nkernel=gamma\nalpha0=inf\nnu=1.5\nbeta=4\nJ=8\n", "alpha0 = inf is not finite"),
    ("mode=kernel\nkernel=gaussian\nm=1e17\nsigma=1\nJ=8\n",
     "the mode offset of (sigma=1) is below the resolution of m = 1e+17: rho has no span"),
    ("mode=kernel\nkernel=gamma\nalpha0=0.1\nnu=1e20\nbeta=3\nJ=8\n",
     "rho at the mode of (nu=1e+20, beta=3) is -933888, not 1: its closed form is beyond float precision"),
], ids=["gaussian-below-threshold", "spectrum-with-a-gap", "poisson-reaching-zero", "gamma-alpha0-inf",
        "gaussian-without-a-span", "gamma-beyond-float-precision"])
def test_synth_math_errors_start_with_the_config_path(config, message, tmp_path, capsys):
    # a config that parses but fails a mathematical condition is still the config's error
    (tmp_path / "gap.csv").write_text("0.5,0.5\n0.75,\n1.0,1.0\n")
    cfg = tmp_path / "c.cfg"
    cfg.write_text(config)
    out = tmp_path / "run"
    assert cli.main(["synth", str(cfg), "--out", str(out)]) == 3
    assert capsys.readouterr().err == f"error: {cfg}: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(("config", "code"), [
    ("mode=flat\nalpha0=0\nJ=10\n", 2),
    ("mode=flat\nalpha0=0.7\nJ=3\n", 2),
    ("mode=flat\nalpha0=inf\nJ=10\n", 2),
    (None, 3),
    ("mode=kernel\nkernel=gaussian\nm=1.0\nsigma=1.0\nJ=10\n", 3),
    ("mode=kernel\nkernel=gamma\nalpha0=0.1\nnu=nan\nbeta=4\nJ=10\n", 3),
    ("mode=kernel\nkernel=gaussian\nm=inf\nsigma=0.5\nJ=10\n", 3),
], ids=["flat-alpha0-0", "J-3", "flat-alpha0-inf", "bump-spectrum", "invalid-kernel",
        "gamma-nu-nan", "gaussian-m-inf"])
def test_synth_rejected_config_writes_nothing(config, code, tmp_path):
    if config is None:
        write_bump_spectrum_config(tmp_path)
    else:
        (tmp_path / "c.cfg").write_text(config)
    out = tmp_path / "run"
    assert cli.main(["synth", str(tmp_path / "c.cfg"), "--out", str(out)]) == code
    assert not (out / "signal.rws").exists()
    assert not (out / "manifest.txt").exists()


@pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
@pytest.mark.parametrize("command", ["synth", "analyze", "kernel"])
def test_unwritable_out_exits_2(command, under, gaussian_signal, tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    write_flat_config(cfg)
    args = {"synth": [str(cfg)], "analyze": [str(gaussian_signal)],
            "kernel": ["dirac", "H=0.8"]}[command]
    taken = tmp_path / "taken"
    taken.write_text("")
    out = taken / "run" if under else taken
    assert cli.main([command, *args, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and str(out) in err and "Traceback" not in err
    assert taken.read_text() == ""


@pytest.mark.parametrize(("command", "blocked"), [
    ("synth", "signal.rws"), ("analyze", "spectrum.csv"), ("kernel", "rho.csv")])
def test_a_failed_rerun_leaves_no_manifest(command, blocked, gaussian_signal, tmp_path, capsys):
    # the manifest is written last: a directory with one holds a complete bundle
    cfg = tmp_path / "c.cfg"
    write_flat_config(cfg)
    args = {"synth": [str(cfg)], "analyze": [str(gaussian_signal)],
            "kernel": ["dirac", "H=0.8"]}[command]
    out = tmp_path / "pw"
    assert cli.main([command, *args, "--out", str(out)]) == 0
    (out / blocked).unlink()
    (out / blocked).mkdir()
    assert cli.main([command, *args, "--out", str(out)]) == 2
    assert "cannot write output" in capsys.readouterr().err
    assert not (out / "manifest.txt").exists()


# each asks the unbounded grid for 10^12 points or more (terabytes)
@pytest.mark.parametrize("case", ["analyze-step", "kernel-step", "kernel-dirac", "synth-spectrum"])
def test_grid_beyond_the_step_bound_exits_2(case, gaussian_signal, tmp_path, capsys):
    (tmp_path / "far.csv").write_text("1e11,0.1\n1e12,1\n")
    (tmp_path / "c.cfg").write_text("mode=spectrum\nspectrum_file=far.csv\nJ=10\n")
    args = {
        "analyze-step": ["analyze", str(gaussian_signal), "--grid-step", "1e-12"],
        "kernel-step": ["kernel", "gaussian", "m=1", "sigma=0.5", "--grid-step", "1e-12"],
        "kernel-dirac": ["kernel", "dirac", "H=1e12"],
        "synth-spectrum": ["synth", str(tmp_path / "c.cfg")],
    }[case]
    out = tmp_path / "run"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # h_max 1e12 is beyond db10's regularity
        assert cli.main([*args, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and f"more than {2**20}" in err
    assert not out.exists()


# ---------------------------------------------------------------------------
# analyze

@pytest.fixture(scope="module")
def gaussian_signal(tmp_path_factory):
    root = tmp_path_factory.mktemp("signal")
    cfg = root / "c.cfg"
    write_gaussian_config(cfg, J=10)
    cli.main(["synth", str(cfg), "--out", str(root)])
    return root / "signal.rws"


def test_analyze_writes_bundle(gaussian_signal, tmp_path, capsys):
    out = tmp_path / "an"
    assert cli.main(["analyze", str(gaussian_signal), "--out", str(out)]) == 0
    assert "q_c=" in capsys.readouterr().out
    for name in ("lambda.csv", "tau.csv", "spectrum.csv", "meta.txt", "manifest.txt"):
        assert (out / name).exists()
    meta = parse_key_values((out / "meta.txt").read_text())
    assert meta["J"] == "10"
    assert meta["wavelet"] == "db3"
    assert meta["scales"] == "1..9"
    assert set(meta) >= {"q_c", "h_min", "h_max", "grid_step"}
    assert list(meta)[-1] == "q_c_found" and meta["q_c_found"] == "1"
    lam_header = (out / "lambda.csv").read_text().splitlines()[0]
    assert lam_header == "# alpha,lambda,closed_lambda,residual"
    tau_header = (out / "tau.csv").read_text().splitlines()[0]
    assert tau_header == "# q,tau,residual"
    sp_header = (out / "spectrum.csv").read_text().splitlines()[0]
    assert sp_header == "# h,d2,d1"


# sha256 of lambda.csv, tau.csv and spectrum.csv of one J=12 analysis
ANALYSIS_CSV_DIGESTS = {
    "lambda.csv": "062ceea7ac2f8a65a5d01a5508deb62e179eb00e8e3212cf9ee070cd8b90923a",
    "tau.csv": "bc441faee30448b94c737bd2ca6398c6ea1098e8052a6fa105f8173d54dbe929",
    "spectrum.csv": "dc8dc7c15be6a45f1cd572134caaa7f193eafcff7704d283092f2a681c7f9c7c",
}


def test_analysis_csv_digests(tmp_path):
    # gaussian, seed 3: lambda is absent on part of the alpha grid and d2
    # above h_max, so the digests also pin how absent cells are written
    cfg = tmp_path / "c.cfg"
    write_gaussian_config(cfg, J=12)
    assert cli.main(["synth", str(cfg), "--out", str(tmp_path), "--seed", "3"]) == 0
    out = tmp_path / "an"
    assert cli.main(["analyze", str(tmp_path / "signal.rws"), "--out", str(out)]) == 0
    tables = {name: (out / name).read_bytes() for name in ANALYSIS_CSV_DIGESTS}
    assert re.search(rb"^[^,#]+,,", tables["lambda.csv"], re.M)
    assert re.search(rb"^[^,#]+,,[^,]+$", tables["spectrum.csv"], re.M)
    got = {name: hashlib.sha256(blob).hexdigest() for name, blob in tables.items()}
    assert got == ANALYSIS_CSV_DIGESTS


def test_analyze_option_validation(gaussian_signal, tmp_path):
    out = tmp_path / "run"
    for option in (["--scales", "2"], ["--scales", "-2"], ["--grid-step", "0"], ["--grid-step", "-0.005"]):
        assert cli.main(["analyze", str(gaussian_signal), "--out", str(out), *option]) == 2
    assert not out.exists()


@pytest.mark.parametrize("step", ["inf", "nan"])
@pytest.mark.parametrize("command", ["analyze", "kernel"])
def test_non_finite_grid_step_exits_2(command, step, gaussian_signal, tmp_path, capsys):
    args = [str(gaussian_signal)] if command == "analyze" else ["gaussian", "m=1.0", "sigma=0.5"]
    out = tmp_path / "run"
    assert cli.main([command, *args, "--out", str(out), "--grid-step", step]) == 2
    assert "grid_step must be positive and finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("name", ["haar", "db11", "db0"])
@pytest.mark.parametrize("command", ["synth", "analyze"])
def test_unknown_wavelet_option_exits_2(command, name, gaussian_signal, tmp_path, capsys):
    # both commands used to exit 3, the code for mathematically invalid input
    cfg = tmp_path / "c.cfg"
    write_gaussian_config(cfg)
    source = str(cfg) if command == "synth" else str(gaussian_signal)
    out = tmp_path / "run"
    assert cli.main([command, source, "--out", str(out), "--wavelet", name]) == 2
    assert f"unknown wavelet {name!r}" in capsys.readouterr().err
    assert not out.exists()


def test_analyze_unreadable_signal_exits_2(tmp_path):
    assert cli.main(["analyze", str(tmp_path / "absent.rws"), "--out", str(tmp_path)]) == 2
    bad = tmp_path / "bad.rws"
    bad.write_bytes(b"XWS1" + b"\xff" * 16)
    assert cli.main(["analyze", str(bad), "--out", str(tmp_path)]) == 2


def test_analyze_degenerate_signal_exits_3(tmp_path, capsys):
    sig = tmp_path / "zero.rws"
    write_signal(str(sig), np.zeros(1024))
    assert cli.main(["analyze", str(sig), "--out", str(tmp_path)]) == 3
    assert "no nonzero coefficients" in capsys.readouterr().err


@pytest.mark.parametrize("fmt", ["text", "binary"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_analyze_non_finite_sample_exits_2(tmp_path, capsys, fmt, bad):
    x = np.sin(np.arange(1024.0))
    x[300] = bad
    sig = tmp_path / "bad.sig"
    if fmt == "text":
        sig.write_text("".join(f"{v!r}\n" for v in x.tolist()))
    else:
        write_signal(str(sig), x)
    out = tmp_path / "an"
    assert cli.main(["analyze", str(sig), "--out", str(out)]) == 2
    assert "sample 300" in capsys.readouterr().err
    assert not (out / "tau.csv").exists()


def test_analyze_records_missing_zero_crossing(tmp_path):
    # a Dirac pyramid with H = 0.05 has tau(q) = 0.05 q - 1 < 0 on the whole grid
    pyr = generate_coefficients(SynthesisConfig(J=12, source=DiracKernel(H=0.05), seed=0))
    sig = tmp_path / "dirac.rws"
    write_signal(str(sig), inverse_dwt(pyr, daubechies_filter(3)))
    out = tmp_path / "an"
    with pytest.warns(UserWarning, match="no sign change"):
        assert cli.main(["analyze", str(sig), "--out", str(out)]) == 0
    meta = parse_key_values((out / "meta.txt").read_text())
    assert meta["q_c_found"] == "0"
    assert float(meta["q_c"]) == -5.0


def test_analyze_short_signal_exits_3(tmp_path):
    sig = tmp_path / "short.rws"
    write_signal(str(sig), np.arange(8.0))
    assert cli.main(["analyze", str(sig), "--out", str(tmp_path)]) == 3


# ---------------------------------------------------------------------------
# kernel

def test_kernel_writes_density_and_spectrum(tmp_path, capsys):
    out = tmp_path / "k"
    code = cli.main(["kernel", "gamma", "alpha0=0.1", "nu=1.5", "beta=4.0", "--out", str(out)])
    assert code == 0
    assert "alpha*=" in capsys.readouterr().out
    manifest = parse_key_values((out / "manifest.txt").read_text())
    assert manifest["variant"] == "gamma"
    assert manifest["nu"] == "1.5"
    assert float(manifest["alpha_star"]) < 0
    curve = read_spectrum_csv(str(out / "spectrum.csv"))
    assert curve.h_min > 0.1
    rho_lines = (out / "rho.csv").read_text().splitlines()
    assert rho_lines[0] == "# alpha,rho"


# the span lines of kernel manifests, pinned: the span a curve reads off its
# first and last present samples must not move them
KERNEL_SPANS = [
    (("gaussian", "m=1", "sigma=0.5"), "0.411294988742", "0.904173975449"),
    (("gamma", "alpha0=0.1", "nu=1.5", "beta=4"), "0.219531260902", "0.413153646053"),
    (("poisson", "alpha0=0.3", "c=1"), "0.390057199313", "1.02725406981"),
    (("dirac", "H=0.8"), "0.8", "0.8"),
    (("poisson", "alpha0=0.5", "c=0.6"), "0.5", "0.921736958706"),
    (("gamma", "alpha0=0.1", "nu=0.01", "beta=4"), "0.1", "0.101458164908"),
    (("dirac", "H=0.7000000005"), "0.7000000005", "0.7000000005"),
    # rho(a)/a falls from alpha0 on: h_max = alpha0 / (1 - c log2 e), at any scale
    (("poisson", "alpha0=0.0167", "c=0.11"), "0.0167", "0.0198501481294"),
    (("poisson", "alpha0=1e-300", "c=0.5"), "1e-300", "3.58869944956e-300"),
    # alpha0 + 1e-12 (peak - alpha0) rounds back onto a far shift point
    (("poisson", "alpha0=82.38766578102307", "c=0.0027195009230881685"), "82.387665781", "82.3903738744"),
    # a gamma density this steep at its left zero
    (("gamma", "alpha0=0.04289795560504386", "nu=0.031511520870867185", "beta=0.020426139303159074"),
     "0.0428979557639", "0.0602514780464"),
    # gaussians far below unit scale get their span scaled
    (("gaussian", "m=1.1774100236928848e-13", "sigma=1e-13"), "1.17741011579e-22", "5.88731339536e-14"),
    (("gaussian", "m=2.35482004738577e-12", "sigma=2e-12"), "2.35482043353e-21", "1.17746267908e-12"),
    (("gaussian", "m=5.9010287261965705e-12", "sigma=5.011872336272715e-12"),
     "5.90102894177e-21", "2.95064631411e-12"),
]


@pytest.mark.parametrize(("params", "h_min", "h_max"), KERNEL_SPANS,
                         ids=[" ".join(params) for params, _, _ in KERNEL_SPANS])
def test_kernel_manifest_span_is_pinned(params, h_min, h_max, tmp_path):
    out = tmp_path / "k"
    assert cli.main(["kernel", *params, "--out", str(out)]) == 0
    lines = (out / "manifest.txt").read_text().splitlines()
    assert f"h_min={h_min}" in lines and f"h_max={h_max}" in lines


def _seeded_kernels():
    """Five valid kernels per family (poisson on both sides of c = ln 2),
    drawn from a fixed seed."""
    rng = np.random.default_rng(1)
    u = lambda lo, hi: float(rng.uniform(lo, hi))
    out = []
    for i in range(5):
        sigma = u(0.05, 1.0)
        out.append((f"gaussian-{i}", GaussianKernel(m=gaussian_threshold(sigma) * u(1.05, 3.0), sigma=sigma)))
        nu, beta = u(0.1, 3.0), u(1.0, 10.0)
        star = ShiftedGammaKernel(alpha0=0.0, nu=nu, beta=beta).alpha_star()
        out.append((f"gamma-{i}", ShiftedGammaKernel(alpha0=star + u(0.01, 1.0), nu=nu, beta=beta)))
        c = u(0.7, 2.0)
        star = ShiftedPoissonKernel(alpha0=0.0, c=c).alpha_star()
        out.append((f"poisson-{i}", ShiftedPoissonKernel(alpha0=star + u(0.01, 1.0), c=c)))
        out.append((f"poisson-small-c-{i}", ShiftedPoissonKernel(alpha0=u(0.01, 1.0), c=u(0.05, 0.69))))
        out.append((f"dirac-{i}", DiracKernel(H=u(0.05, 3.0))))
    return out


SPAN_KERNELS = [(" ".join(params), build_kernel(params[0], parse_key_values("\n".join(params[1:]))))
                for params, _, _ in KERNEL_SPANS] + _seeded_kernels()


def _spans(kernel):
    """(h_min, h_max) of the kernel's own solve and of its spectrum curve."""
    h_min, _, h_max = kernel.ratio_max()
    curve = spectrum_from_rho(kernel)
    return (h_min, h_max), (curve.h_min, curve.h_max)


@pytest.mark.parametrize("kernel", [pytest.param(k, id=name) for name, k in SPAN_KERNELS])
def test_kernel_curve_span_is_the_kernel_span(kernel):
    solved, curve = _spans(kernel)
    assert curve == solved


def test_poisson_with_a_falling_ratio_has_its_sup_at_the_shift_point(tmp_path):
    # c <= ln 2 and a small alpha0: rho(a)/a falls from alpha0 on, so
    # h_max = alpha0 / rho(alpha0) = alpha0 / (1 - c log2 e)
    out = tmp_path / "k"
    assert cli.main(["kernel", "poisson", "alpha0=0.0167", "c=0.11", "--out", str(out)]) == 0
    manifest = parse_key_values((out / "manifest.txt").read_text())
    assert abs(float(manifest["h_max"]) - 0.0167 / (1.0 - 0.11 * np.log2(np.e))) < 1e-9
    x = synthesize(SynthesisConfig(J=8, source=ShiftedPoissonKernel(alpha0=0.0167, c=0.11)))
    assert x.size == 256


def test_kernel_gaussian_prints_its_threshold(tmp_path):
    # alpha* = sigma sqrt(2 ln 2), in closed form
    out = tmp_path / "k"
    assert cli.main(["kernel", "gaussian", "m=1.0", "sigma=0.5", "--out", str(out)]) == 0
    manifest = parse_key_values((out / "manifest.txt").read_text())
    assert manifest["alpha_star"] == "0.588705011258"


def test_kernel_poisson_small_c_with_positive_shift(tmp_path):
    # c <= ln 2: rho is already positive at alpha0 (the K = 0 atom), so h_min
    # is alpha0 itself and the rho(a)/a maximizer bracket must start inside it
    out = tmp_path / "k"
    assert cli.main(["kernel", "poisson", "alpha0=0.5", "c=0.6", "--out", str(out)]) == 0
    curve = read_spectrum_csv(str(out / "spectrum.csv"))
    violations = check_admissible(curve)
    assert not violations, violations
    manifest = parse_key_values((out / "manifest.txt").read_text())
    assert abs(float(manifest["h_max"]) - 0.92174) < 1e-5
    i_max = int(np.argmin(np.abs(curve.h_grid - curve.h_max)))
    assert abs(curve.d_values[i_max] - 1.0) < 1e-9
    cfg = tmp_path / "c.cfg"
    cfg.write_text("mode=kernel\nkernel=poisson\nalpha0=0.5\nc=0.6\nJ=10\n")
    assert cli.main(["synth", str(cfg), "--out", str(tmp_path / "s")]) == 0
    assert read_signal(str(tmp_path / "s" / "signal.rws")).size == 1024


def test_kernel_gamma_with_a_zero_below_resolution(tmp_path, capsys):
    # the left zero of rho lies ~7e-34 right of alpha0, under the root solve's 1e-15 tolerance
    out = tmp_path / "k"
    assert cli.main(["kernel", "gamma", "alpha0=0.1", "nu=0.01", "beta=4", "--out", str(out)]) == 0
    assert "h_min=0.1," in capsys.readouterr().out
    manifest = parse_key_values((out / "manifest.txt").read_text())
    assert -1e-15 < float(manifest["alpha_star"]) <= 0.0


@pytest.mark.parametrize("params", [
    ("gamma", "alpha0=562.8113728287591", "nu=0.0061029059020793405", "beta=1.1391767324151265e68"),
    ("gamma", "alpha0=6.231732261890946e-274", "nu=1.620432620933933e-05", "beta=4.368874533745207e282"),
    ("gaussian", "m=1e17", "sigma=1"),
    ("gaussian", "m=5.0389267553610016e+23", "sigma=244383.01128204848"),
], ids=["peak-below-h_min", "peak-ulps-above-h_min", "gaussian-m-1e17", "gaussian-far"])
def test_kernel_with_a_mode_offset_below_resolution_is_refused(params, tmp_path, capsys):
    # the gaussians printed a negative h_max, and ended in a traceback; the
    # message names the shape parameter that follows the location (nu, sigma)
    assert cli.main(["kernel", *params, "--out", str(tmp_path / "k")]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: the mode offset of ({params[2].split('=')[0]}=")


@pytest.mark.parametrize(("params", "start"), [
    (("gamma", "alpha0=0.1", "nu=1e20", "beta=3"), "rho at the mode of (nu="),
    (("gamma", "alpha0=0.1", "nu=1e-300", "beta=1e100"), "rho at the mode of (nu="),
    (("gamma", "alpha0=0.1", "nu=1e100", "beta=1e-300"), "rho at the mode of (nu="),
    (("gamma", "alpha0=1.0049832833225104e-20", "nu=3.042441400855942e+29", "beta=4.3769152727561215e+24"),
     "rho at the mode of (nu="),
    (("poisson", "alpha0=284790.0352470305", "c=1.7539621864850382e+28"), "rho at the mode of (c="),
    (("gaussian", "m=1", "sigma=1e300"), "sigma"),
    (("gaussian", "m=1e-300", "sigma=1e-301"), "sigma"),
], ids=["gamma-nu-1e20", "gamma-nu-1e-300", "gamma-beta-1e-300", "gamma-nu-3e29", "poisson-c-2e28",
        "gaussian-sigma-1e300", "gaussian-sigma-1e-301"])
def test_kernel_beyond_float_precision_is_refused_by_name(params, start, tmp_path, capsys):
    # each ended in a traceback: its closed form overflows, underflows or cancels
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["kernel", *params, "--out", str(tmp_path / "k")]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {start}")


def test_kernel_dirac_at_a_subnormal_h_is_refused_without_warnings(tmp_path, capsys):
    # 1/H, the sup of d(h)/h, overflows
    assert cli.main(["kernel", "dirac", "H=7e-319", "--out", str(tmp_path / "k")]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: h_max = 7")


def test_kernel_dirac_far_below_unit_scale_keeps_its_one_point(tmp_path):
    # the unit-scale grid, H = 0.8 at step 0.005, rescaled by 1e-13: 640
    # points, and rho = 1 at H alone
    out = tmp_path / "k"
    assert cli.main(["kernel", "dirac", "H=8e-14", "--grid-step", "5e-16", "--out", str(out)]) == 0
    rows = [line.split(",") for line in (out / "rho.csv").read_text().splitlines()[1:]]
    assert len(rows) == 640
    assert [alpha for alpha, rho in rows if rho] == ["8e-14"]
    assert [rho for _, rho in rows if rho] == ["1"]


def test_kernel_gamma_with_a_zero_below_the_least_subnormal(tmp_path, capsys):
    # the left zero of the shifted density underflows to 0: no log2(0) warning
    out = tmp_path / "k"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["kernel", "gamma", "alpha0=0.1", "nu=1e-4", "beta=4", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert float(parse_key_values((out / "manifest.txt").read_text())["alpha_star"]) == 0.0


def test_kernel_gamma_prints_a_subnormal_threshold(tmp_path):
    # the left zero of the shifted density is subnormal, solved to the tolerance floor
    out = tmp_path / "k"
    assert cli.main(["kernel", "gamma", "alpha0=0.1", "nu=0.00096", "beta=4", "--out", str(out)]) == 0
    assert parse_key_values((out / "manifest.txt").read_text())["alpha_star"] == "-2.36050237679e-318"


# sha256 of (rho.csv, spectrum.csv) at the default grid step
KERNEL_CSV_DIGESTS = {
    ("gaussian", "m=1", "sigma=0.5"): (
        "7be9b708ee417aa8866f5d500b73c00c1f82dac9c5885e9bc8aa72dec0d5ea35",
        "4c904532d2d02097d405f5305954497495fad68d90051e0cccced4e78db011ac",
    ),
    ("gamma", "alpha0=0.1", "nu=1.5", "beta=4"): (
        "09196ebbad0d32ce19097b183b5157f3d5c7d965966f4b7b1f7d43e59c261d9a",
        "b477f515d2dc33e5fb5b2306f3312e9b42be4f668529f2ccf1cc1fb78e84998a",
    ),
    ("poisson", "alpha0=0.3", "c=1"): (
        "88da9d23dfa3307b0bad7cb99ff55dd0d39523354c7201dc73cfcbc363cbccfe",
        "fa75dc01b593377f288a5e2b2548778e78e53223707bb82a5aa11ec0ffb290fd",
    ),
    ("poisson", "alpha0=0.5", "c=0.6"): (
        "f4e54a15b577f32f663b2b310e5e65115b5197c480e1a2658e506b4524637d44",
        "43d2224a002b9d354bbb45be3a65649c91bd5ba5528c5f97db977b5745e8abee",
    ),
    ("dirac", "H=0.7"): (
        "6e57a5993d1bc37f90d3701684d04c7aded1419363f805ca9ddcf6accb6eed27",
        "cadf88a9012dd820ca5340ffd2dbb0c7ccd68f875ec5d6d4e14723b379a85e54",
    ),
}


@pytest.mark.parametrize("args", list(KERNEL_CSV_DIGESTS), ids=lambda a: "-".join(a))
def test_kernel_csv_digest(args, tmp_path):
    out = tmp_path / "k"
    assert cli.main(["kernel", *args, "--out", str(out)]) == 0
    got = tuple(hashlib.sha256((out / name).read_bytes()).hexdigest()
                for name in ("rho.csv", "spectrum.csv"))
    assert got == KERNEL_CSV_DIGESTS[args]


def test_kernel_gallery_script_matches_kernel_digests(tmp_path):
    # scripts/kernel_gallery.py tabulates the same kernels at the same grid step
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    subprocess.run([sys.executable, str(root / "scripts" / "kernel_gallery.py"), "--out", str(tmp_path)],
                   check=True, env=env, capture_output=True)
    gallery = {
        "gaussian": ("gaussian", "m=1", "sigma=0.5"),
        "gamma": ("gamma", "alpha0=0.1", "nu=1.5", "beta=4"),
        "poisson": ("poisson", "alpha0=0.3", "c=1"),
    }
    for name, args in gallery.items():
        got = tuple(hashlib.sha256((tmp_path / name / csv).read_bytes()).hexdigest()
                    for csv in ("rho.csv", "spectrum.csv"))
        assert got == KERNEL_CSV_DIGESTS[args], name


@pytest.mark.parametrize(("script", "args", "row", "rows"), [
    ("nonconcave_demo.py", ["--J", "12", "--out", "{out}"],
     r"^(counting|Legendre) estimate vs (target|hull) +sup\[0\.7,1\.4\] = \d\.\d{4}$", 4),
    ("ordering_gap_screen.py", ["--J", "10", "--seeds", "2"],
     r"^(parabola|gaussian|gamma|poisson|flat) +0:[+-](nan|\d\.\d{3})[* ] +1:[+-](nan|\d\.\d{3})\*? *$", 5),
], ids=["nonconcave-demo", "ordering-gap-screen"])
def test_synthesis_scripts_run(script, args, row, rows, tmp_path):
    # the experiment scripts call synthesize; a small J keeps each run under a second
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    argv = [a.format(out=tmp_path) for a in args]
    done = subprocess.run([sys.executable, str(root / "scripts" / script), *argv],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert len(re.findall(row, done.stdout, flags=re.M)) == rows, done.stdout


@pytest.mark.parametrize(("script", "flag"), [
    ("nonconcave_demo.py", "--synth-wavelet"),
    ("nonconcave_demo.py", "--analysis-wavelet"),
    ("ordering_gap_screen.py", "--wavelet"),
])
@pytest.mark.parametrize("name", ["haar", "db12"])
def test_synthesis_scripts_reject_unknown_wavelet(script, flag, name, tmp_path):
    # a usage error, not a traceback
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    done = subprocess.run([sys.executable, str(root / "scripts" / script), flag, name],
                          env=env, capture_output=True, text=True, cwd=tmp_path)
    assert done.returncode == 2
    assert f"error: unknown wavelet {name!r}" in done.stderr and "Traceback" not in done.stderr


def test_code_lines_script_skips_blanks_comments_and_docstrings(tmp_path):
    # docstrings of the module, a function and a class are not code; an
    # assigned string literal is, even where it spans lines
    (tmp_path / "m.py").write_text(
        '"""Module\ndocstring."""\n\n# a comment\nx = """not a\ndocstring"""\n\n'
        'def f():\n    """Doc."""\n    return x  # trailing\n'
        "class C:\n    '''Doc\n    more.'''\n"
    )
    root = Path(__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, str(root / "scripts" / "code_lines.py"), str(tmp_path)],
                          capture_output=True, text=True, check=True)
    assert done.stdout.splitlines()[-2:] == [f"       11      5  {tmp_path / 'm.py'}", "       11      5  total"]


def test_synth_kernel_density_reaching_zero_exits_3(tmp_path, capsys):
    # a kernel whose density is nonnegative arbitrarily close to 0 is invalid:
    # for c <= ln 2, alpha* is 0
    cfg = tmp_path / "c.cfg"
    cfg.write_text("mode=kernel\nkernel=poisson\nalpha0=0\nc=0.5\nJ=10\n")
    assert cli.main(["synth", str(cfg), "--out", str(tmp_path)]) == 3
    assert capsys.readouterr().err == f"error: {cfg}: alpha0 <= alpha*(c) = 0\n"


def test_kernel_invalid_parameters_exit_3(tmp_path, capsys):
    assert cli.main(["kernel", "gaussian", "m=1.0", "sigma=1.0", "--out", str(tmp_path)]) == 3
    assert "m <= alpha*(sigma) = 1.17741002252" in capsys.readouterr().err
    # c <= ln 2 puts alpha* at 0, and a negative alpha0 below it
    assert cli.main(["kernel", "poisson", "alpha0=-1.5", "c=0.5", "--out", str(tmp_path)]) == 3
    assert capsys.readouterr().err == "error: alpha0 <= alpha*(c) = 0\n"


@pytest.mark.parametrize("params", [
    ("gamma", "alpha0=0.1", "nu=nan", "beta=4"),
    ("gaussian", "m=inf", "sigma=0.5"),
    ("poisson", "alpha0=0.3", "c=inf"),
    ("dirac", "H=inf"),
], ids=["gamma-nu-nan", "gaussian-m-inf", "poisson-c-inf", "dirac-H-inf"])
def test_kernel_non_finite_parameter_exits_3(params, tmp_path, capsys):
    out = tmp_path / "k"
    assert cli.main(["kernel", *params, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "is not finite" in err and "Traceback" not in err
    assert not out.exists()


def test_kernel_argument_errors_exit_2(tmp_path):
    out = str(tmp_path)
    assert cli.main(["kernel", "cauchy", "x=1", "--out", out]) == 2
    assert cli.main(["kernel", "gaussian", "m=1.0", "--out", out]) == 2
    assert cli.main(["kernel", "gaussian", "m=1.0", "sigma=0.5", "tail=2", "--out", out]) == 2
    assert cli.main(["kernel", "gaussian", "m", "--out", out]) == 2
    assert cli.main(["kernel", "gaussian", "m=1", "m=2", "sigma=0.5", "--out", out]) == 2
    assert cli.main(["kernel", "gaussian", "m=x", "sigma=0.5", "--out", out]) == 2
    assert cli.main(["kernel", "gaussian", "m=1.0", "sigma=0.5", "--grid-step", "0"]) == 2


def test_kernel_parameter_errors_name_the_kernel(tmp_path, capsys):
    args = ["kernel", "gamma", "alpha0=0.1", "nu=x", "beta=4", "--out", str(tmp_path / "k")]
    assert cli.main(args) == 2
    assert capsys.readouterr().err == "error: kernel gamma: nu must be a number, got 'x'\n"


def test_kernel_parameters_read_like_config_lines(tmp_path):
    # blank and '#' arguments are skipped and spaces around '=' are stripped
    out = tmp_path / "k"
    assert cli.main(["kernel", "gaussian", "", "# width next", "m = 1", "sigma= 0.5", "--out", str(out)]) == 0
    got = tuple(hashlib.sha256((out / name).read_bytes()).hexdigest()
                for name in ("rho.csv", "spectrum.csv"))
    assert got == KERNEL_CSV_DIGESTS[("gaussian", "m=1", "sigma=0.5")]
    manifest = parse_key_values((out / "manifest.txt").read_text())
    assert (manifest["m"], manifest["sigma"]) == ("1", "0.5")


# ---------------------------------------------------------------------------
# one argument parser serves every call in a process

def test_a_seed_override_does_not_outlive_its_call(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    write_gaussian_config(cfg)
    assert cli.main(["synth", str(cfg), "--out", str(tmp_path / "a"), "--seed", "7"]) == 0
    assert cli.main(["synth", str(cfg), "--out", str(tmp_path / "b")]) == 0
    assert parse_key_values((tmp_path / "b" / "manifest.txt").read_text())["seed"] == "1"
    assert capsys.readouterr().out.splitlines()[-1].endswith("seed=1)")


def test_a_scales_option_does_not_outlive_its_call(gaussian_signal, tmp_path):
    assert cli.main(["analyze", str(gaussian_signal), "--out", str(tmp_path / "a"), "--scales", "5"]) == 0
    assert cli.main(["analyze", str(gaussian_signal), "--out", str(tmp_path / "b")]) == 0
    assert parse_key_values((tmp_path / "b" / "manifest.txt").read_text())["scales"] == "10"


def test_a_rejected_argument_leaves_the_next_call_unaffected(gaussian_signal, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["analyze", str(gaussian_signal), "--scales", "five"])
    assert exc.value.code == 2
    assert "--scales" in capsys.readouterr().err
    out = tmp_path / "an"
    assert cli.main(["analyze", str(gaussian_signal), "--out", str(out)]) == 0
    assert parse_key_values((out / "manifest.txt").read_text())["scales"] == "10"
    assert parse_key_values((out / "meta.txt").read_text())["scales"] == "1..9"


# ---------------------------------------------------------------------------
# selftest

def test_selftest_passes(capsys):
    assert cli.main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 4
    assert "4 of 4 checks passed" in out


def test_selftest_reports_a_check_that_raises(monkeypatch, capsys):
    def broken():
        raise RuntimeError("no reference")
    monkeypatch.setattr(cli, "SELFTEST_CHECKS", cli.SELFTEST_CHECKS + (("broken", broken),))
    assert cli.main(["selftest"]) == 1
    out = capsys.readouterr().out
    assert "FAIL broken: RuntimeError: no reference" in out
    assert "4 of 5 checks passed" in out


def test_selftest_reports_broken_reference(monkeypatch, capsys):
    bump = curve_from_function(lambda v: 1.0 - ((v - 1.0) / 0.5) ** 2, 0.5, 1.5)
    monkeypatch.setattr(cli, "_selftest_curves", lambda: (bump,))
    assert cli.main(["selftest"]) == 1
    out = capsys.readouterr().out
    assert "FAIL spectrum-identity" in out
    assert "3 of 4 checks passed" in out


# ---------------------------------------------------------------------------
# start-up: only the kernel quantiles load scipy, and only scipy.special

def run_python(code, *args):
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    done = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_the_module_runs_as_a_script():
    # ``python -m rws.cli`` reaches main() through the module's __main__ guard
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    done = subprocess.run([sys.executable, "-m", "rws.cli", "selftest"], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "4 of 4 checks passed" in done.stdout


def test_import_loads_no_scipy():
    out = run_python("import sys, rws; a = 'scipy' in sys.modules; import rws.cli; "
                     "print(a, 'scipy' in sys.modules)")
    assert out.split() == ["False", "False"]


def test_import_solves_no_root():
    # a kernel solves its alpha* when made: the selftest makes its kernels when it runs
    out = run_python("import sys, rws.spectra as s; assert 'rws.cli' not in sys.modules; "
                     "calls = []; root = s._root; "
                     "s._root = lambda *a: calls.append(a) or root(*a); "
                     "import rws.cli; print(len(calls))")
    assert out.split() == ["0"]


# runs the rws commands of argv[2], a JSON list of argument lists, and prints
# on its last line the scipy modules then loaded; with argv[1] naming a
# module (not "-"), any import of that module raises ImportError
RWS_COMMANDS = """
import json, sys
if sys.argv[1] != "-":
    sys.modules[sys.argv[1]] = None
from rws import cli
for argv in json.loads(sys.argv[2]):
    assert cli.main(argv) == 0, argv
print(" ".join(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def run_blocked_and_loaded(tmp_path, blocked, commands, outputs):
    """Run ``commands(out)`` once with ``blocked`` unimportable and once
    without, each under its own out directory; assert that both give the
    same bytes in every file of ``outputs`` (paths relative to out, with
    manifest timings dropped), and return the scipy modules the unblocked
    run loaded."""
    found = {}
    for mode, block in (("block", blocked), ("load", "-")):
        out = tmp_path / mode
        loaded = run_python(RWS_COMMANDS, block, json.dumps(commands(out))).splitlines()[-1].split()
        found[mode] = [
            b"".join(line for line in (out / name).read_bytes().splitlines(True)
                     if not line.startswith(b"duration_s="))
            for name in outputs
        ]
    assert found["block"] == found["load"]
    return loaded


def synth_and_analyze(*configs):
    return lambda out: [
        argv
        for i, cfg in enumerate(configs)
        for argv in (["synth", str(cfg), "--out", f"{out}/{i}"],
                     ["analyze", f"{out}/{i}/signal.rws", "--out", f"{out}/{i}/an"])
    ]


SYNTH_OUTPUTS = ("signal.rws", "an/meta.txt", "an/lambda.csv", "an/tau.csv", "an/spectrum.csv")


def test_spectrum_and_flat_commands_run_without_scipy(tmp_path):
    parabola = curve_from_function(lambda v: (v - 0.5) ** 2, 0.5, 1.5)
    write_columns(str(tmp_path / "parabola.csv"), "h,d", parabola.h_grid, parabola.d_values)
    (tmp_path / "spectrum.cfg").write_text("mode=spectrum\nspectrum_file=parabola.csv\nJ=10\nseed=2\n")
    write_flat_config(tmp_path / "flat.cfg")
    outputs = [f"{i}/{name}" for i in range(2) for name in SYNTH_OUTPUTS]
    loaded = run_blocked_and_loaded(
        tmp_path, "scipy", synth_and_analyze(tmp_path / "spectrum.cfg", tmp_path / "flat.cfg"), outputs)
    assert loaded == []


KERNEL_FAMILIES = (
    ("gaussian", "m=1", "sigma=0.5"),
    ("gamma", "alpha0=0.1", "nu=1.5", "beta=4"),
    ("poisson", "alpha0=0.3", "c=1"),
    ("dirac", "H=0.7"),
)


def test_kernel_commands_run_without_scipy(tmp_path):
    # a kernel's spectrum solves its roots in-package: no scipy module loads
    commands = lambda out: [["kernel", *params, "--out", f"{out}/{i}"]
                            for i, params in enumerate(KERNEL_FAMILIES)]
    outputs = [f"{i}/{name}" for i in range(len(KERNEL_FAMILIES))
               for name in ("rho.csv", "spectrum.csv", "manifest.txt")]
    assert run_blocked_and_loaded(tmp_path, "scipy", commands, outputs) == []


def test_kernel_synthesis_loads_scipy_special_only(tmp_path):
    # gamma and poisson synthesis solve their span in-package and draw their
    # scale-j quantiles from scipy.special; scipy.optimize never loads
    (tmp_path / "gamma.cfg").write_text("mode=kernel\nkernel=gamma\nalpha0=0.1\nnu=1.5\nbeta=4\nJ=10\n")
    (tmp_path / "poisson.cfg").write_text("mode=kernel\nkernel=poisson\nalpha0=0.3\nc=1\nJ=10\nseed=3\n")
    outputs = [f"{i}/{name}" for i in range(2) for name in SYNTH_OUTPUTS]
    loaded = run_blocked_and_loaded(
        tmp_path, "scipy.optimize", synth_and_analyze(tmp_path / "gamma.cfg", tmp_path / "poisson.cfg"),
        outputs)
    assert "scipy.special" in loaded and not any(m.startswith("scipy.optimize") for m in loaded)
