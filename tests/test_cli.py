"""End-to-end command-line behavior and exit codes."""

import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rws import (
    DiracKernel,
    SynthesisConfig,
    check_admissible,
    cli,
    curve_from_function,
    daubechies_filter,
    generate_coefficients,
    inverse_dwt,
)
from rws.fileio import (
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
], ids=["unknown-kernel", "missing-parameter", "parameter-not-a-number", "unknown-key",
        "J-not-an-integer", "no-kernel-variant"])
def test_synth_config_errors_start_with_the_config_path(config, tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(config)
    out = tmp_path / "run"
    assert cli.main(["synth", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {cfg}: ")
    assert not out.exists()


def test_synth_negative_seed_exits_2(tmp_path):
    cfg = tmp_path / "c.cfg"
    write_flat_config(cfg)
    assert cli.main(["synth", str(cfg), "--out", str(tmp_path), "--seed", "-1"]) == 2


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


def test_kernel_gaussian_has_no_threshold_root(tmp_path):
    out = tmp_path / "k"
    assert cli.main(["kernel", "gaussian", "m=1.0", "sigma=0.5", "--out", str(out)]) == 0
    manifest = parse_key_values((out / "manifest.txt").read_text())
    assert manifest["alpha_star"] == "n/a"


def test_kernel_poisson_small_c_with_positive_shift(tmp_path):
    # c <= ln 2: rho is already positive just right of alpha0, so h_min is
    # alpha0 itself and the rho(a)/a maximizer bracket must start inside it
    out = tmp_path / "k"
    assert cli.main(["kernel", "poisson", "alpha0=0.5", "c=0.6", "--out", str(out)]) == 0
    curve = read_spectrum_csv(str(out / "spectrum.csv"))
    report = check_admissible(curve)
    assert report.valid, report.violations
    manifest = parse_key_values((out / "manifest.txt").read_text())
    assert abs(float(manifest["h_max"]) - 0.92174) < 1e-5
    i_max = int(np.argmin(np.abs(curve.h_grid - curve.h_max)))
    assert abs(curve.d_values[i_max] - 1.0) < 1e-9
    cfg = tmp_path / "c.cfg"
    cfg.write_text("mode=kernel\nkernel=poisson\nalpha0=0.5\nc=0.6\nJ=10\n")
    assert cli.main(["synth", str(cfg), "--out", str(tmp_path / "s")]) == 0
    assert read_signal(str(tmp_path / "s" / "signal.rws")).size == 1024


def test_kernel_gamma_with_a_zero_below_resolution(tmp_path, capsys):
    # the left zero of rho lies ~1e-33 right of alpha0, under brentq's 1e-15 tolerance
    out = tmp_path / "k"
    assert cli.main(["kernel", "gamma", "alpha0=0.1", "nu=0.01", "beta=4", "--out", str(out)]) == 0
    assert "h_min=0.1," in capsys.readouterr().out
    manifest = parse_key_values((out / "manifest.txt").read_text())
    assert -1e-15 < float(manifest["alpha_star"]) <= 0.0


# sha256 of (rho.csv, spectrum.csv) at the default grid step
KERNEL_CSV_DIGESTS = {
    ("gaussian", "m=1", "sigma=0.5"): (
        "7be9b708ee417aa8866f5d500b73c00c1f82dac9c5885e9bc8aa72dec0d5ea35",
        "4c904532d2d02097d405f5305954497495fad68d90051e0cccced4e78db011ac",
    ),
    ("gamma", "alpha0=0.1", "nu=1.5", "beta=4"): (
        "8c09f5c174c58b92a89fd2782df7bd19bb6bccfa2523cd8d8887fe20ceba1ba0",
        "101e60aff5ee7f1077f2bec7a3e0109272c389c2ec196b67a09e356a439492e6",
    ),
    ("poisson", "alpha0=0.3", "c=1"): (
        "474c74baef4973bb8136bc39bbb00207c1454be8964380953d10801a255f1fac",
        "31372a6df5a29ce13d5bc1c6815f8790bd8afbff62213fa55aec7899d44cfb47",
    ),
    ("poisson", "alpha0=0.5", "c=0.6"): (
        "0a9b13054628540e59aa02032082fbab21548eb91fef1b8f90f689b248cab3db",
        "a057fd38732772bfe704373d5cceec320fbf55e948a2d47d5347282772992048",
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


def test_synth_kernel_density_reaching_zero_exits_3(tmp_path, capsys):
    # a valid kernel whose density is nonnegative arbitrarily close to 0
    cfg = tmp_path / "c.cfg"
    cfg.write_text("mode=kernel\nkernel=poisson\nalpha0=0\nc=0.5\nJ=10\n")
    assert cli.main(["synth", str(cfg), "--out", str(tmp_path)]) == 3
    assert "close to 0" in capsys.readouterr().err


def test_kernel_invalid_parameters_exit_3(tmp_path, capsys):
    assert cli.main(["kernel", "gaussian", "m=1.0", "sigma=1.0", "--out", str(tmp_path)]) == 3
    assert "m <= sigma" in capsys.readouterr().err


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
