"""Filter bank invariants and transform roundtrips."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rws import (
    AlphaField,
    CoefficientPyramid,
    ConfigError,
    InvalidLengthError,
    InvalidPyramidError,
    NonFiniteSampleError,
    UnsupportedOrderError,
    daubechies_filter,
    dyadic_exponent,
    forward_dwt,
    inverse_dwt,
    parse_wavelet_name,
    wavelet,
)

# Closed-form db2 taps: (1 +- sqrt(3))/(4 sqrt(2)) family, sum sqrt(2).
_SQRT3 = np.sqrt(3.0)
DB2_EXPECTED = np.array([1 + _SQRT3, 3 + _SQRT3, 3 - _SQRT3, 1 - _SQRT3]) / (4 * np.sqrt(2.0))

ALL_ORDERS = list(range(1, 11))


def _rng(tag):
    return np.random.Generator(np.random.Philox(key=np.array([9000 + tag, 0], dtype=np.uint64)))


def test_db2_taps_match_closed_form():
    f = daubechies_filter(2)
    assert np.max(np.abs(f.lowpass - DB2_EXPECTED)) < 1e-15


@pytest.mark.parametrize("order", ALL_ORDERS)
def test_lowpass_sum_is_sqrt2(order):
    f = daubechies_filter(order)
    assert abs(f.lowpass.sum() - np.sqrt(2.0)) < 1e-12


@pytest.mark.parametrize("order", ALL_ORDERS)
def test_lowpass_shift_orthonormality(order):
    lo = daubechies_filter(order).lowpass
    for m in range(lo.size // 2):
        dot = float(np.dot(lo[: lo.size - 2 * m], lo[2 * m :]))
        want = 1.0 if m == 0 else 0.0
        assert abs(dot - want) < 1e-12, f"shift {2 * m}"


@pytest.mark.parametrize("order", ALL_ORDERS)
def test_highpass_mirrors_lowpass(order):
    f = daubechies_filter(order)
    signs = np.where(np.arange(f.lowpass.size) % 2 == 0, 1.0, -1.0)
    assert np.array_equal(f.highpass, signs * f.lowpass[::-1])


@pytest.mark.parametrize("order", ALL_ORDERS)
def test_highpass_discrete_moments_vanish(order):
    # order p < N moments cancel; residual is pure float rounding
    g = daubechies_filter(order).highpass
    n = np.arange(g.size, dtype=np.float64)
    for p in range(order):
        raw = abs(float(np.sum(n**p * g)))
        scale = float(np.sum(np.abs(n**p * g))) or 1.0
        assert raw / scale < 1e-12, f"moment {p}"


@pytest.mark.parametrize("order", ALL_ORDERS)
def test_perfect_reconstruction_random_signal(order):
    x = _rng(order).standard_normal(2**10)
    f = daubechies_filter(order)
    y = inverse_dwt(forward_dwt(x, f), f)
    assert np.max(np.abs(y - x)) < 1e-9


@pytest.mark.parametrize("order", [1, 3, 10])
def test_one_hot_coefficient_roundtrip(order):
    f = daubechies_filter(order)
    J = 8
    pyr = CoefficientPyramid(
        J=J, levels=[np.zeros(2**j) for j in range(J)], coarse_mean=0.0
    )
    pyr.levels[5][11] = 1.0
    back = forward_dwt(inverse_dwt(pyr, f), f)
    assert abs(back.levels[5][11] - 1.0) < 1e-9
    back.levels[5][11] = 0.0
    worst = max(float(np.max(np.abs(lev))) for lev in back.levels)
    assert worst < 1e-9
    assert abs(back.coarse_mean) < 1e-9


def test_coarse_mean_is_signal_mean():
    x = _rng(77).standard_normal(2**9) + 3.0
    pyr = forward_dwt(x, daubechies_filter(4))
    assert abs(pyr.coarse_mean - x.mean()) < 1e-9


def test_energy_split_identity():
    # sum x^2 * 2^-J == coarse_mean^2 + sum_j sum_k (C_jk * 2^(-j/2))^2
    x = _rng(5).standard_normal(2**10)
    pyr = forward_dwt(x, daubechies_filter(6))
    lhs = float(np.sum(x**2)) * 2.0 ** (-pyr.J)
    rhs = pyr.coarse_mean**2 + sum(
        float(np.sum(lev**2)) * 2.0 ** (-j) for j, lev in enumerate(pyr.levels)
    )
    assert abs(lhs - rhs) < 1e-12 * max(1.0, lhs)


@settings(max_examples=25, deadline=None)
@given(
    exponent=st.integers(min_value=2, max_value=9),
    order=st.integers(min_value=1, max_value=10),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_roundtrip_property(exponent, order, seed):
    gen = np.random.Generator(np.random.Philox(key=np.array([seed, 1], dtype=np.uint64)))
    x = gen.standard_normal(2**exponent)
    f = daubechies_filter(order)
    y = inverse_dwt(forward_dwt(x, f), f)
    assert np.max(np.abs(y - x)) < 1e-9


def test_dyadic_exponent():
    assert dyadic_exponent(2) == 1
    assert dyadic_exponent(1024) == 10
    for bad in (0, 1, 3, 12, -8):
        with pytest.raises(InvalidLengthError):
            dyadic_exponent(bad)


def test_forward_rejects_bad_shapes():
    f = daubechies_filter(3)
    with pytest.raises(InvalidLengthError):
        forward_dwt(np.zeros(100), f)
    with pytest.raises(InvalidLengthError):
        forward_dwt(np.zeros((4, 4)), f)


def test_worker_count_falls_back_to_the_cpu_count(monkeypatch):
    # where the OS has no affinity call, every CPU counts, and at least one
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert wavelet._worker_count() == (os.cpu_count() or 1)
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert wavelet._worker_count() == 1


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_forward_rejects_non_finite_samples(bad):
    x = np.ones(64)
    x[17] = bad
    with pytest.raises(NonFiniteSampleError, match="sample 17"):
        forward_dwt(x, daubechies_filter(3))


def test_inverse_validates_pyramid():
    # a pyramid checks its levels when made, so inverse_dwt never sees a bad one
    with pytest.raises(InvalidPyramidError, match="expected 3 detail levels"):
        CoefficientPyramid(J=3, levels=[np.zeros(1), np.zeros(2)], coarse_mean=0.0)
    with pytest.raises(InvalidPyramidError, match="level 1 must hold 2"):
        CoefficientPyramid(J=2, levels=[np.zeros(1), np.zeros(3)], coarse_mean=0.0)
    with pytest.raises(InvalidPyramidError, match="level 2 must hold 4 coefficients in one dimension"):
        CoefficientPyramid(J=3, levels=[np.zeros(1), np.zeros(2), np.zeros((2, 2))], coarse_mean=0.0)


def test_a_pyramid_stores_its_levels_as_float64_vectors():
    # an integer level is converted when made, and a float64 one is kept as it is
    ints = [np.ones(2**j, dtype=np.int64) for j in range(8)]
    pyr = CoefficientPyramid(J=8, levels=ints, coarse_mean=0.0)
    assert all(lev.dtype == np.float64 for lev in pyr.levels)
    AlphaField.from_pyramid(pyr)
    floats = [np.ones(2**j) for j in range(8)]
    assert all(a is b for a, b in zip(CoefficientPyramid(J=8, levels=floats).levels, floats))


def test_unsupported_orders_rejected():
    for order in (0, 11, -1):
        with pytest.raises(UnsupportedOrderError):
            daubechies_filter(order)


def test_parse_wavelet_name():
    assert parse_wavelet_name("db3").order == 3
    assert parse_wavelet_name("db10").name == "db10"
    for bad in ("haar", "db", "dbx", "db0", "db11", "db 3", "db+3", "db03", "3", "DB3", "db3 "):
        with pytest.raises(ConfigError):
            parse_wavelet_name(bad)


# ---------------------------------------------------------------------------
# polyphase kernels against the textbook forms they replaced

def reference_down_corr(s, taps):
    """y[k] = sum_m taps[m] * s[(2k+m) mod n]: stride-2 slices of the
    circular extension, one pass per filter."""
    n = s.size
    L = taps.size
    ext = np.resize(s, n + L)  # s repeated: the circular extension at any length
    y = np.zeros(n // 2)
    for m in range(L):
        y += taps[m] * ext[m : m + n : 2]
    return y


def reference_up_conv(approx, detail, lo, hi):
    """s[i] = sum_m lo[m]*ua[(i-m) mod n] + hi[m]*ud[(i-m) mod n] over the
    zero-filled upsampled inputs ua and ud, every tap at every output."""
    n = 2 * approx.size
    L = lo.size
    ua = np.zeros(n)
    ua[::2] = approx
    ud = np.zeros(n)
    ud[::2] = detail
    if n >= L:
        ea = np.concatenate([ua[-(L - 1) :], ua]) if L > 1 else ua
        ed = np.concatenate([ud[-(L - 1) :], ud]) if L > 1 else ud
        s = np.zeros(n)
        for m in range(L):
            off = L - 1 - m
            s += lo[m] * ea[off : off + n] + hi[m] * ed[off : off + n]
        return s
    idx = (np.arange(n)[:, None] - np.arange(L)[None, :]) % n
    return ua[idx] @ lo + ud[idx] @ hi


def _sparse_signed(gen, size):
    # synthesized levels hold exact zeros of either sign among their values
    x = gen.standard_normal(size)
    x[gen.random(size) < 0.2] = 0.0
    x[gen.random(size) < 0.2] = -0.0
    return x


def _level_lengths(L):
    # every level length of a 2^10 signal, and lengths around the filter's
    # (n < L, n == L, n == L + 2)
    return sorted({2**e for e in range(1, 11)} | {n for n in (L - 2, L, L + 2) if n >= 2})


def _assert_kernels_match_references(order, n, tag):
    f = daubechies_filter(order)
    gen = _rng(1000 * order + n + tag)
    s = _sparse_signed(gen, n)
    approx, detail = wavelet._down_corr(s, f.lowpass, f.highpass)
    assert approx.tobytes() == reference_down_corr(s, f.lowpass).tobytes(), f"forward lowpass n={n}"
    assert detail.tobytes() == reference_down_corr(s, f.highpass).tobytes(), f"forward highpass n={n}"
    a, d = _sparse_signed(gen, n // 2), _sparse_signed(gen, n // 2)
    got = wavelet._up_conv(a, d, f.lowpass, f.highpass, np.empty(n))
    want = reference_up_conv(a, d, f.lowpass, f.highpass).tobytes()
    assert got.tobytes() == want, f"inverse n={n}"
    assert _up_conv_in_place(a, d, f).tobytes() == want, f"inverse in place n={n}"


def _up_conv_in_place(approx, detail, f, scale=1.0):
    # the call inverse_dwt makes: approx is the front of the output buffer
    h = approx.size
    out = np.empty(2 * h)
    out[:h] = approx
    return wavelet._up_conv(out[:h], detail, f.lowpass, f.highpass, out, scale)


@pytest.mark.parametrize("order", ALL_ORDERS)
def test_polyphase_kernels_are_byte_identical_to_references(order):
    for n in _level_lengths(2 * order):
        _assert_kernels_match_references(order, n, 0)


@pytest.mark.parametrize("order", [1, 2, 3, 10])
def test_polyphase_kernels_match_across_blocks(order, monkeypatch):
    # a block of 3 outputs splits every level into blocks, the last one partial
    monkeypatch.setattr(wavelet, "DWT_BLOCK", 3)
    for n in _level_lengths(2 * order):
        _assert_kernels_match_references(order, n, 1)


def test_polyphase_kernels_match_over_full_blocks():
    _assert_kernels_match_references(10, 4 * wavelet.DWT_BLOCK + 6, 2)


@pytest.mark.parametrize("order", ALL_ORDERS)
@pytest.mark.parametrize("block", ["default", 1, 2, 3])
def test_polyphase_kernels_scale_like_a_prescaled_input(order, block, monkeypatch):
    # the forward kernel scales its input, and the inverse its detail, one
    # block at a time; the bytes equal those of scaling the whole array first.
    # In place, the inverse runs its blocks last to first, and blocks shorter
    # than the filter's reach all wrap into the saved tail.
    if block != "default":
        monkeypatch.setattr(wavelet, "DWT_BLOCK", block)
    f = daubechies_filter(order)
    c = 2.0**-3.5
    for n in _level_lengths(2 * order):
        gen = _rng(1000 * order + n + 3)
        s = _sparse_signed(gen, n)
        approx, detail = wavelet._down_corr(s, f.lowpass, f.highpass, c)
        assert approx.tobytes() == reference_down_corr(s * c, f.lowpass).tobytes(), f"n={n}"
        assert detail.tobytes() == reference_down_corr(s * c, f.highpass).tobytes(), f"n={n}"
        a, d = _sparse_signed(gen, n // 2), _sparse_signed(gen, n // 2)
        got = wavelet._up_conv(a, d, f.lowpass, f.highpass, np.empty(n), c)
        want = reference_up_conv(a, d * c, f.lowpass, f.highpass).tobytes()
        assert got.tobytes() == want, f"n={n}"
        assert _up_conv_in_place(a, d, f, c).tobytes() == want, f"in place n={n}"


# (J, order, block): the top level shorter than the filter, one block per
# level, and several blocks per level with wrapping windows
NO_MUTATION_CASES = [(4, 10, "default"), (11, 3, "default"), (11, 10, 3)]


@pytest.mark.parametrize("J, order, block", NO_MUTATION_CASES)
def test_forward_dwt_leaves_the_signal_unchanged(J, order, block, monkeypatch):
    if block != "default":
        monkeypatch.setattr(wavelet, "DWT_BLOCK", block)
    x = _sparse_signed(_rng(J), 2**J)
    before = x.tobytes()
    forward_dwt(x, daubechies_filter(order))
    assert x.tobytes() == before


@pytest.mark.parametrize("J, order, block", NO_MUTATION_CASES)
def test_inverse_dwt_leaves_the_pyramid_unchanged(J, order, block, monkeypatch):
    if block != "default":
        monkeypatch.setattr(wavelet, "DWT_BLOCK", block)
    pyr = forward_dwt(_rng(J + 1).standard_normal(2**J), daubechies_filter(order))
    before = [lev.tobytes() for lev in pyr.levels]
    inverse_dwt(pyr, daubechies_filter(order))
    assert [lev.tobytes() for lev in pyr.levels] == before


@pytest.mark.parametrize("J, order, block", NO_MUTATION_CASES + [(5, 1, "default"), (6, 2, 3)])
def test_inverse_dwt_levels_share_one_buffer(J, order, block, monkeypatch):
    # every level reads its approx from and writes its output to the front of
    # the returned array, made before the first level, so no level-sized
    # array is made and dropped per level
    if block != "default":
        monkeypatch.setattr(wavelet, "DWT_BLOCK", block)
    outputs = []
    up_conv = wavelet._up_conv
    monkeypatch.setattr(wavelet, "_up_conv", lambda *args: outputs.append(up_conv(*args)) or outputs[-1])
    pyr = forward_dwt(_sparse_signed(_rng(J + 2), 2**J), daubechies_filter(order))
    result = inverse_dwt(pyr, daubechies_filter(order))
    assert len(outputs) == J
    assert all(np.shares_memory(out, result) for out in outputs)


@pytest.mark.parametrize("order", ALL_ORDERS)
def test_inverse_dwt_of_the_smallest_pyramids(order):
    # J = 0 is the coarse mean alone; J = 1 is one level, shorter than every
    # filter but db1's, scaled by 2**(1/2)
    f = daubechies_filter(order)
    c, d = 0.6180339887498949, -1.4142135623730951
    alone = inverse_dwt(CoefficientPyramid(J=0, levels=[], coarse_mean=c), f)
    assert alone.dtype == np.float64 and alone.tobytes() == np.array([c]).tobytes()
    one = inverse_dwt(CoefficientPyramid(J=1, levels=[np.array([d])], coarse_mean=c), f)
    want = reference_up_conv(np.array([c]), np.array([d]), f.lowpass, f.highpass) * 2.0**0.5
    assert one.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# bytes that do not depend on the BLAS kernel

# JSON digests of a 16x20 matrix-vector product ("probe"), of forward_dwt of
# one J=12 normal signal ("forward") and of synthesize(J=12, gaussian m=1
# sigma=0.5, seed 1) ("synth"), for db1..db10
BLAS_DIGESTS = """
import hashlib, json, warnings
import numpy as np
from rws import GaussianKernel, SynthesisConfig, daubechies_filter, forward_dwt, synthesize

def digest(*arrays):
    return hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest()

warnings.simplefilter("ignore")  # db1 and db2 warn below the gaussian's h_max
gen = np.random.Generator(np.random.Philox(key=np.array([9012, 0], dtype=np.uint64)))
w, v, x = gen.standard_normal((16, 20)), gen.standard_normal(20), gen.standard_normal(2**12)
source = GaussianKernel(m=1.0, sigma=0.5)
print(json.dumps({
    "probe": digest(w @ v),
    "forward": [digest(*forward_dwt(x, daubechies_filter(k)).levels) for k in range(1, 11)],
    "synth": [digest(synthesize(SynthesisConfig(J=12, source=source, wavelet_order=k, seed=1)))
              for k in range(1, 11)],
}))
"""


def _cpu_has_avx2():
    # numpy's own record of the CPU features it detected at import
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:
        from numpy.core._multiarray_umath import __cpu_features__
    return bool(__cpu_features__.get("AVX2"))


@pytest.fixture(scope="module")
def digests_by_blas_kernel():
    """(Haswell, Sandybridge) digests, each from a fresh process with
    OPENBLAS_CORETYPE set; skips where the setting cannot change a product's
    bytes, so the strict xfail below cannot pass by accident."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):  # a numpy that does not report its build as a dict
        pytest.skip("numpy does not report its BLAS")
    if "openblas" not in blas.lower():
        pytest.skip(f"numpy's BLAS is {blas}, not OpenBLAS")
    if not _cpu_has_avx2():
        pytest.skip("the CPU reports no AVX2, which the Haswell kernel needs")
    root = Path(__file__).resolve().parents[1]
    runs = []
    for coretype in ("Haswell", "Sandybridge"):
        env = {**os.environ, "PYTHONPATH": str(root / "src"), "OPENBLAS_CORETYPE": coretype}
        done = subprocess.run([sys.executable, "-c", BLAS_DIGESTS], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        runs.append(json.loads(done.stdout))
    if runs[0]["probe"] == runs[1]["probe"]:
        pytest.skip("OPENBLAS_CORETYPE leaves a matrix-vector product's bytes unchanged here")
    return runs


def test_forward_bytes_do_not_depend_on_the_blas_kernel(digests_by_blas_kernel):
    haswell, sandybridge = digests_by_blas_kernel
    assert haswell["forward"] == sandybridge["forward"]


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: `_up_conv`'s n < L fallback is a BLAS "
                   "product; it goes with the re-recorded synthesis digests")
def test_synthesis_bytes_do_not_depend_on_the_blas_kernel(digests_by_blas_kernel):
    haswell, sandybridge = digests_by_blas_kernel
    assert haswell["synth"] == sandybridge["synth"]
