"""Binary signals, CSV curves, key=value manifests, and config parsing."""

import os
import struct

import numpy as np
import pytest

from rws import (
    ConfigError,
    DiracKernel,
    FlatLaw,
    FormatError,
    GaussianKernel,
    ShiftedGammaKernel,
    ShiftedPoissonKernel,
    SpectrumCurve,
    curve_from_samples,
)
from rws.fileio import (
    build_kernel,
    load_synthesis_config,
    parse_key_values,
    read_signal,
    read_spectrum_csv,
    write_columns,
    write_key_values,
    write_signal,
)


def _rng():
    return np.random.Generator(np.random.Philox(key=np.array([77, 0], dtype=np.uint64)))


# ---------------------------------------------------------------------------
# binary signal format

def test_signal_roundtrip_is_exact(tmp_path):
    x = _rng().standard_normal(256)
    p = tmp_path / "sig.rws"
    write_signal(str(p), x)
    back = read_signal(str(p))
    assert back.dtype == np.float64
    assert np.array_equal(back, x)


def test_write_signal_leaves_its_samples_unchanged(tmp_path):
    x = _rng().standard_normal(256)
    before = x.tobytes()
    write_signal(str(tmp_path / "sig.rws"), x)
    assert x.tobytes() == before


@pytest.mark.parametrize("text", [False, True])
def test_read_signal_returns_a_writable_native_array(tmp_path, text):
    x = _rng().standard_normal(64)
    p = tmp_path / "sig"
    if text:
        p.write_text("".join(f"{float(v)!r}\n" for v in x))
    else:
        write_signal(str(p), x)
    back = read_signal(str(p))
    assert back.dtype == np.float64 and back.dtype.isnative
    assert back.flags.writeable and back.flags.c_contiguous and back.flags.owndata
    assert np.array_equal(back, x)


def test_write_signal_rejects_odd_lengths(tmp_path):
    with pytest.raises(FormatError, match="power of two"):
        write_signal(str(tmp_path / "bad.rws"), np.zeros(100))


def test_write_signal_refuses_a_single_sample(tmp_path):
    p = tmp_path / "one.rws"
    with pytest.raises(FormatError, match=r"signal length 1 is not a power of two >= 2"):
        write_signal(str(p), [1.0])
    assert not p.exists()


def test_read_signal_rejects_foreign_binary(tmp_path):
    p = tmp_path / "bad.rws"
    p.write_bytes(b"XWS1" + b"\xff\xfe\x00\x01" * 8)
    with pytest.raises(FormatError, match="neither"):
        read_signal(str(p))


def test_read_signal_rejects_bad_version(tmp_path):
    p = tmp_path / "bad.rws"
    p.write_bytes(struct.pack("<4sIII", b"RWS1", 2, 4, 0) + b"\x00" * (8 * 16))
    with pytest.raises(FormatError, match="version"):
        read_signal(str(p))


def test_read_signal_rejects_implausible_size(tmp_path):
    p = tmp_path / "bad.rws"
    p.write_bytes(struct.pack("<4sIII", b"RWS1", 1, 31, 0))
    with pytest.raises(FormatError, match="implausible"):
        read_signal(str(p))


def test_read_signal_refuses_a_header_of_one_sample(tmp_path):
    # J = 0 promises one sample, which no transform takes
    p = tmp_path / "one.rws"
    p.write_bytes(struct.pack("<4sIII", b"RWS1", 1, 0, 0) + struct.pack("<d", 1.0))
    with pytest.raises(FormatError, match=r"signal length 1 is not a power of two >= 2"):
        read_signal(str(p))


def test_read_signal_rejects_truncation(tmp_path):
    p = tmp_path / "bad.rws"
    p.write_bytes(struct.pack("<4sIII", b"RWS1", 1, 4, 0) + b"\x00" * 17)
    with pytest.raises(FormatError, match="payload"):
        read_signal(str(p))
    p.write_bytes(b"RWS1\x01")
    with pytest.raises(FormatError, match="truncated"):
        read_signal(str(p))


def test_read_signal_refuses_a_short_payload_before_allocating(tmp_path):
    # a header promising 2^30 samples (8 GiB) over 64 bytes of payload
    p = tmp_path / "bad.rws"
    p.write_bytes(struct.pack("<4sIII", b"RWS1", 1, 30, 0) + b"\x00" * 64)
    with pytest.raises(FormatError, match="payload is 64 bytes"):
        read_signal(str(p))


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_read_signal_from_a_pipe(tmp_path):
    x = _rng().standard_normal(16)
    p = tmp_path / "sig.rws"
    write_signal(str(p), x)
    blob = p.read_bytes()
    for data, ok in ((blob, True), (blob[:-8], False), (blob + b"\x00", False)):
        r, w = os.pipe()
        try:
            os.write(w, data)
            os.close(w)
            if ok:
                assert np.array_equal(read_signal(f"/dev/fd/{r}"), x)
            else:
                with pytest.raises(FormatError, match="payload"):
                    read_signal(f"/dev/fd/{r}")
        finally:
            os.close(r)


def test_read_signal_missing_file():
    with pytest.raises(FormatError, match="cannot read"):
        read_signal("/nonexistent/sig.rws")


def test_text_signal_fallback(tmp_path):
    p = tmp_path / "sig.txt"
    p.write_text("# four samples\n\n1.5\n-2.25\n0\n3e-1\n")
    assert read_signal(str(p)).tolist() == [1.5, -2.25, 0.0, 0.3]


def test_text_signal_needs_power_of_two(tmp_path):
    p = tmp_path / "sig.txt"
    p.write_text("1\n2\n3\n")
    with pytest.raises(FormatError, match="power of two"):
        read_signal(str(p))


def test_text_signal_of_one_sample_is_refused(tmp_path):
    p = tmp_path / "sig.txt"
    p.write_text("# one sample\n1.5\n")
    with pytest.raises(FormatError, match=r"signal length 1 is not a power of two >= 2"):
        read_signal(str(p))


def test_text_signal_rejects_garbage(tmp_path):
    p = tmp_path / "sig.txt"
    p.write_text("1.0\nbanana\n")
    with pytest.raises(FormatError, match="banana"):
        read_signal(str(p))


# ---------------------------------------------------------------------------
# CSV curves

def test_spectrum_csv_roundtrip(tmp_path):
    h = np.array([0.3, 0.5, 0.75, 1.0, 1.25, 1.5])
    d = np.array([np.nan, 0.0, 0.0625, 0.25, 0.5625, 1.0])
    curve = curve_from_samples(h, d)
    p = tmp_path / "curve.csv"
    write_columns(str(p), "h,d", curve.h_grid, curve.d_values)
    back = read_spectrum_csv(str(p))
    assert np.allclose(back.h_grid, h, atol=1e-10)
    assert np.array_equal(np.isnan(back.d_values), np.isnan(d))
    assert np.allclose(back.d_values[1:], d[1:], atol=1e-10)
    assert back.h_min == 0.5
    assert back.h_max == 1.5


def _cell(x):
    # one cell at a time: 12 significant digits, "" for a non-finite value,
    # -0.0 written as 0
    if not np.isfinite(x):
        return ""
    return f"{abs(x) if x == 0.0 else x:.12g}"


WRITE_CASES = {
    "signed-zeros": [0.0, -0.0, 0.0],
    "non-finite": [np.nan, np.inf, -np.inf],
    "subnormals": [5e-324, -5e-324, 2.2250738585072014e-308],
    "large-and-small": [1e16, -1e16, 1e-5],
    "rounding": [0.1 + 0.2, 1 / 3, 123456789012.5],
    "extremes": [-1e-300, 1e300, 99999999999.95],
}


@pytest.mark.parametrize("case", list(WRITE_CASES))
def test_write_columns_formats_each_cell_like_the_per_cell_rule(case, tmp_path):
    rng = _rng()
    a = np.array(WRITE_CASES[case])
    b = np.r_[a[1:], a[:1]]
    c = rng.standard_normal(a.size) * 10.0 ** rng.integers(-20, 20, a.size)
    p = tmp_path / "t.csv"
    write_columns(str(p), "a,b,c", a, b, c)
    rows = ["# a,b,c"] + [",".join(map(_cell, r)) for r in zip(a.tolist(), b.tolist(), c.tolist())]
    assert p.read_text() == "\n".join(rows) + "\n"


def test_write_columns_writes_the_cells_of_a_known_table(tmp_path):
    p = tmp_path / "t.csv"
    write_columns(str(p), "x,y", [-0.0, np.nan, 1e16, 1 / 3], [np.inf, 1e-5, -np.inf, 5e-324])
    assert p.read_text() == "# x,y\n0,\n,1e-05\n1e+16,\n0.333333333333,4.94065645841e-324\n"


def test_write_columns_of_no_rows_writes_the_header(tmp_path):
    p = tmp_path / "t.csv"
    write_columns(str(p), "h,d", np.empty(0), [])
    assert p.read_text() == "# h,d\n"


def test_write_columns_refuses_columns_of_unequal_length(tmp_path):
    p = tmp_path / "t.csv"
    with pytest.raises(ValueError):
        write_columns(str(p), "h,d", [0.5, 0.6, 0.7], [0.1, 0.2])
    assert not p.exists()


def test_spectrum_csv_validation(tmp_path):
    p = tmp_path / "curve.csv"
    p.write_text("# h,d\n")
    with pytest.raises(FormatError, match="no data rows"):
        read_spectrum_csv(str(p))
    p.write_text("0.5,0.1\n0.5,0.2\n")
    with pytest.raises(FormatError, match="increasing"):
        read_spectrum_csv(str(p))
    p.write_text("-1,0.5\n1,0.5\n")
    with pytest.raises(FormatError, match="positive"):
        read_spectrum_csv(str(p))
    p.write_text("0.5,\n0.7,\n")
    with pytest.raises(FormatError, match="every d cell is empty"):
        read_spectrum_csv(str(p))
    p.write_text(",0.1\n")
    with pytest.raises(FormatError, match="finite"):
        read_spectrum_csv(str(p))
    p.write_text("0.5,0.1,9\n")
    with pytest.raises(FormatError, match="expected 2"):
        read_spectrum_csv(str(p))
    p.write_text("0.5,zebra\n")
    with pytest.raises(FormatError, match="zebra"):
        read_spectrum_csv(str(p))


def test_spectrum_csv_must_be_utf8_text(tmp_path):
    p = tmp_path / "curve.csv"
    p.write_bytes(b"0.5,\xff\xfe\n")
    with pytest.raises(FormatError, match="not a text file"):
        read_spectrum_csv(str(p))


# ---------------------------------------------------------------------------
# key=value files

def test_key_values_format(tmp_path):
    p = tmp_path / "meta.txt"
    write_key_values(str(p), [("J", 12), ("q_c", 1.25), ("wavelet", "db10")])
    assert p.read_text() == "J=12\nq_c=1.25\nwavelet=db10\n"


def test_parse_key_values():
    got = parse_key_values("# comment\n\na = 1\nb=two words\n")
    assert got == {"a": "1", "b": "two words"}
    with pytest.raises(ConfigError, match="duplicate"):
        parse_key_values("a=1\na=2\n")
    with pytest.raises(ConfigError, match="key=value"):
        parse_key_values("just a line\n")


# ---------------------------------------------------------------------------
# kernel construction

def test_build_kernel_each_variant():
    assert isinstance(build_kernel("gaussian", {"m": 1, "sigma": 0.5}), GaussianKernel)
    k = build_kernel("gamma", {"alpha0": 0.1, "nu": 1.5, "beta": 4})
    assert isinstance(k, ShiftedGammaKernel)
    assert k.beta == 4.0
    assert isinstance(build_kernel("poisson", {"alpha0": 0.3, "c": 1}), ShiftedPoissonKernel)
    assert isinstance(build_kernel("dirac", {"H": 0.8}), DiracKernel)
    assert build_kernel("gaussian", {"m": "1", "sigma": " 0.5"}) == GaussianKernel(m=1.0, sigma=0.5)


def test_build_kernel_errors():
    with pytest.raises(ConfigError, match="unknown kernel variant"):
        build_kernel("cauchy", {})
    with pytest.raises(ConfigError, match="missing parameters: sigma"):
        build_kernel("gaussian", {"m": 1})
    with pytest.raises(ConfigError, match="does not take: tail"):
        build_kernel("dirac", {"H": 0.8, "tail": 2})
    with pytest.raises(ConfigError, match="m must be a number"):
        build_kernel("gaussian", {"m": "x", "sigma": "0.5"})


# ---------------------------------------------------------------------------
# synthesis configs

def test_load_kernel_config(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text("mode=kernel\nkernel=gaussian\nm=1.0\nsigma=0.5\nJ=10\nseed=7\n")
    cfg, resolved = load_synthesis_config(str(p))
    assert cfg.J == 10
    assert cfg.seed == 7
    assert cfg.wavelet_order == 10  # db10 default
    assert isinstance(cfg.source, GaussianKernel)
    assert ("wavelet", "db10") in resolved
    assert ("kernel", "gaussian") in resolved


def test_load_flat_config_with_wavelet_override(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text("mode=flat\nalpha0=0.7\nJ=12\nwavelet=db3\n")
    cfg, resolved = load_synthesis_config(str(p))
    assert isinstance(cfg.source, FlatLaw)
    assert cfg.source.alpha0 == 0.7
    assert cfg.seed == 0  # default
    assert cfg.wavelet_order == 3
    assert ("wavelet", "db3") in resolved


def test_load_spectrum_config_resolves_relative_path(tmp_path):
    h = np.linspace(0.5, 1.5, 21)
    write_columns(str(tmp_path / "target.csv"), "h,d", h, (h - 0.5) ** 2)
    p = tmp_path / "c.cfg"
    p.write_text("mode=spectrum\nspectrum_file=target.csv\nJ=10\n")
    cfg, resolved = load_synthesis_config(str(p))
    assert isinstance(cfg.source, SpectrumCurve)
    assert cfg.source.h_min == 0.5
    assert ("spectrum_file", "target.csv") in resolved


def test_load_config_errors(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text("mode=flat\nalpha0=0.7\nJ=12\nflavor=mint\n")
    with pytest.raises(ConfigError, match="unknown config keys: flavor"):
        load_synthesis_config(str(p))
    p.write_text("mode=flat\nalpha0=0.7\n")
    with pytest.raises(ConfigError, match="missing required key 'J'"):
        load_synthesis_config(str(p))
    p.write_text("J=10\n")
    with pytest.raises(ConfigError, match="'mode'"):
        load_synthesis_config(str(p))
    p.write_text("mode=stochastic\nJ=10\n")
    with pytest.raises(ConfigError, match="unknown mode"):
        load_synthesis_config(str(p))
    p.write_text("mode=kernel\nkernel=gaussian\nm=1.0\nJ=10\n")
    with pytest.raises(ConfigError, match="sigma"):
        load_synthesis_config(str(p))
    p.write_text("mode=flat\nalpha0=0.7\nJ=ten\n")
    with pytest.raises(ConfigError, match="integer"):
        load_synthesis_config(str(p))
    p.write_text("mode=flat\nalpha0=soft\nJ=10\n")
    with pytest.raises(ConfigError, match="number"):
        load_synthesis_config(str(p))
    p.write_text("mode=spectrum\nJ=10\n")
    with pytest.raises(ConfigError, match="spectrum_file"):
        load_synthesis_config(str(p))
    p.write_text("mode=flat\nalpha0=0.7\nJ=10\nwavelet=haar\n")
    with pytest.raises(ConfigError, match="wavelet"):
        load_synthesis_config(str(p))
