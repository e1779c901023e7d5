"""Per-scale exponent laws, coefficient draws, and path realization."""

import hashlib
import os
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest
from scipy import stats

from rws import (
    AdmissibilityError,
    ConfigError,
    DiracKernel,
    FlatLaw,
    GaussianKernel,
    KernelValidityError,
    MathValidityError,
    ShiftedGammaKernel,
    ShiftedPoissonKernel,
    SpectrumCurve,
    SynthesisConfig,
    analyze_pyramid,
    curve_from_function,
    flat_scale_law,
    generate_coefficients,
    sample_alphas,
    scale_law_from_kernel,
    scale_law_from_spectrum,
    synthesis,
    synthesize,
    uniform_field,
    validate_config,
    wavelet,
)

# Frozen against adaptive quadrature of the scale-j density
# (j ln2 / h_max) 2^(j (d(a) - 1)) for d(a) = (a - 1/2)^2 on [1/2, 3/2]:
#   j=10: mass 0.36655324344169, CDF(1.0) 0.00464588615066216
#   j=12: mass 0.359121909082646
PARABOLA_MASS_J10 = 0.36655324344169
PARABOLA_CDF1_J10 = 0.00464588615066216
PARABOLA_MASS_J12 = 0.359121909082646


def parabola_curve():
    return curve_from_function(lambda h: (h - 0.5) ** 2, 0.5, 1.5)


# ---------------------------------------------------------------------------
# config validation

@pytest.mark.parametrize("entry", [validate_config, generate_coefficients])
def test_config_bounds(entry):
    curve = parabola_curve()
    entry(SynthesisConfig(J=10, source=curve))
    with pytest.raises(ConfigError, match="J"):
        entry(SynthesisConfig(J=3, source=curve))
    with pytest.raises(ConfigError, match="J"):
        entry(SynthesisConfig(J=25, source=curve))
    with pytest.raises(ConfigError, match="wavelet order"):
        entry(SynthesisConfig(J=10, source=curve, wavelet_order=11))
    with pytest.raises(ConfigError, match="seed"):
        entry(SynthesisConfig(J=10, source=curve, seed=-1))
    with pytest.raises(ConfigError, match="seed"):
        entry(SynthesisConfig(J=10, source=curve, seed=1.5))
    entry(SynthesisConfig(J=10, source=curve, seed=2**64 - 1))
    with pytest.raises(ConfigError, match="seed"):
        entry(SynthesisConfig(J=10, source=curve, seed=2**64))


@pytest.mark.parametrize("entry", [validate_config, generate_coefficients, synthesize])
@pytest.mark.parametrize(("option", "value"), [
    ("J", 10.0), ("J", 10.5), ("wavelet_order", 3.0), ("seed", True),
])
def test_integer_options_refuse_floats_and_bools(entry, option, value):
    cfg = SynthesisConfig(J=10, source=GaussianKernel(m=1.0, sigma=0.5), wavelet_order=3)
    setattr(cfg, option, value)
    with pytest.raises(ConfigError, match=f"{option.replace('_', ' ')} must be an integer"):
        entry(cfg)


def test_integer_options_take_numpy_integers():
    source = GaussianKernel(m=1.0, sigma=0.5)
    want = synthesize(SynthesisConfig(J=10, source=source, wavelet_order=3, seed=3))
    got = synthesize(SynthesisConfig(J=np.int64(10), source=source,
                                     wavelet_order=np.int32(3), seed=np.uint64(3)))
    assert got.tobytes() == want.tobytes()


def test_config_rejects_inadmissible_spectrum():
    bump = curve_from_function(lambda h: 1.0 - ((h - 1.0) / 0.5) ** 2, 0.5, 1.5)
    with pytest.raises(AdmissibilityError):
        validate_config(SynthesisConfig(J=10, source=bump))


def test_config_rejects_invalid_kernel():
    with pytest.raises(KernelValidityError):
        validate_config(SynthesisConfig(J=10, source=GaussianKernel(m=1.0, sigma=1.0)))


BUMP = curve_from_function(lambda h: 1.0 - ((h - 1.0) / 0.5) ** 2, 0.5, 1.5)


# validate_config and generate_coefficients on BUMP have tests of their own
@pytest.mark.parametrize(("entry", "source", "error", "match"), [
    (synthesize, BUMP, AdmissibilityError, None),
    (synthesize, GaussianKernel(m=1.0, sigma=1.0), KernelValidityError, None),
    (generate_coefficients, GaussianKernel(m=1.0, sigma=1.0), KernelValidityError, None),
    # kernel_validity accepts it, but rho >= 0 arbitrarily close to 0
    (generate_coefficients, ShiftedPoissonKernel(alpha0=0.0, c=0.5), MathValidityError,
     "close to 0"),
], ids=["synthesize-inadmissible-spectrum", "synthesize-invalid-kernel",
        "generate-invalid-kernel", "generate-density-reaching-zero"])
def test_generate_and_synthesize_reject_invalid_sources(entry, source, error, match):
    with pytest.raises(error, match=match):
        entry(SynthesisConfig(J=10, source=source))


@pytest.mark.parametrize("source", [
    curve_from_function(lambda h: (h - 0.5) ** 2, 0.5, 1.5),
    ShiftedGammaKernel(alpha0=0.1, nu=1.5, beta=4.0),
], ids=["spectrum", "gamma"])
def test_sources_are_validated_independently_of_J(source, monkeypatch):
    calls = []
    for name in ("check_admissible", "kernel_validity"):
        def counted(*args, _name=name, _real=getattr(synthesis, name)):
            calls.append(_name)
            return _real(*args)
        monkeypatch.setattr(synthesis, name, counted)
    synthesize(SynthesisConfig(J=8, source=source))
    at_8 = sorted(calls)
    calls.clear()
    synthesize(SynthesisConfig(J=16, source=source))
    assert len(at_8) == 1 and sorted(calls) == at_8


def test_synthesize_rejects_an_infinite_h_grid_point():
    # an infinite h_max would overflow the scale-law grid; no such curve can be made
    with pytest.raises(MathValidityError, match="finite"):
        SpectrumCurve(h_grid=np.array([0.5, np.inf]), d_values=np.array([0.0, 1.0]))


@pytest.mark.parametrize("alpha0", [0.0, np.inf, np.nan])
def test_flat_law_refuses_a_bad_alpha0_when_made(alpha0):
    with pytest.raises(ConfigError, match="finite alpha0 > 0"):
        FlatLaw(alpha0)


def test_config_rejects_bad_flat_and_unknown_source():
    with pytest.raises(ConfigError, match="alpha0"):
        validate_config(SynthesisConfig(J=10, source=FlatLaw(0.0)))
    with pytest.raises(ConfigError, match="source"):
        validate_config(SynthesisConfig(J=10, source="noise"))


# ---------------------------------------------------------------------------
# scale laws

def test_spectrum_law_matches_quadrature():
    law = scale_law_from_spectrum(parabola_curve(), 10)
    assert abs(law.cdf[-1] - PARABOLA_MASS_J10) < 1e-4
    got = float(np.interp(1.0, law.alpha_grid, law.cdf))
    assert abs(got - PARABOLA_CDF1_J10) < 1e-5
    law12 = scale_law_from_spectrum(parabola_curve(), 12)
    assert abs(law12.cdf[-1] - PARABOLA_MASS_J12) < 1e-4


def test_spectrum_law_cdf_shape():
    law = scale_law_from_spectrum(parabola_curve(), 8)
    assert law.alpha_grid[0] == 0.0
    assert abs(law.alpha_grid[-1] - 1.5) < 1e-12
    assert np.all(np.diff(law.cdf) >= 0)
    assert law.cdf[0] == 0.0
    # no mass below h_min
    below = law.alpha_grid < 0.5
    assert np.all(law.cdf[below] == 0.0)


def test_spectrum_law_rejects_inadmissible():
    bump = curve_from_function(lambda h: 1.0 - ((h - 1.0) / 0.5) ** 2, 0.5, 1.5)
    with pytest.raises(AdmissibilityError):
        generate_coefficients(SynthesisConfig(J=10, source=bump))


def test_flat_top_spectrum_is_refused_at_the_gate():
    # d = 1 on [0.01, 1] breaks d(h_max)/h_max >= d(h)/h; its scale law would have
    # mass j ln2 * 0.99.  Admissibility is judged by check_admissible, not the law.
    flat_top = curve_from_function(lambda h: 1.0, 0.01, 1.0)
    with pytest.raises(AdmissibilityError, match="not non-decreasing"):
        generate_coefficients(SynthesisConfig(J=10, source=flat_top))


# At the admissible maximum d(h) = h/h_max the trapezoid rule over-integrates
# the convex density: the tabulated mass exceeds 1 by a few 1e-6 at j ~ 18..23
EDGE_CURVES = {
    "h-on-0.1-1": curve_from_function(lambda h: h, 0.1, 1.0),
    "h/3-on-0.01-3": curve_from_function(lambda h: h / 3.0, 0.01, 3.0),
}


@pytest.mark.parametrize("name", list(EDGE_CURVES))
def test_spectrum_law_builds_at_the_admissible_edge(name):
    curve = EDGE_CURVES[name]
    for j in range(1, 24):
        law = scale_law_from_spectrum(curve, j)
        assert np.all(np.diff(law.cdf) >= 0), j
        assert law.cdf[0] >= 0.0 and law.cdf[-1] <= 1.0, j
        assert 0.0 <= 1 - law.cdf[-1] <= 1.0, j


def test_edge_spectrum_synthesizes_at_J21():
    pyramid = generate_coefficients(SynthesisConfig(J=21, source=EDGE_CURVES["h-on-0.1-1"]))
    assert pyramid.J == 21
    assert [level.size for level in pyramid.levels] == [2**j for j in range(21)]


def test_flat_law_is_single_atom():
    law = flat_scale_law(0.7, 12)
    assert law.alpha_grid.tolist() == [0.7, 0.7]
    assert law.cdf[0] == 0.0
    assert abs(law.cdf[-1] - 12 * 2.0**-12) < 1e-18
    assert abs((1 - law.cdf[-1]) - (1.0 - 12 * 2.0**-12)) < 1e-18


def test_kernel_law_requires_positive_scale():
    with pytest.raises(MathValidityError):
        scale_law_from_kernel(GaussianKernel(m=1.0, sigma=0.5), 0)


# ---------------------------------------------------------------------------
# sampling

def _uniform(n, tag):
    gen = np.random.Generator(np.random.Philox(key=np.array([500 + tag, 0], dtype=np.uint64)))
    return gen.random(n)


def test_tabulated_sampling_matches_cdf():
    law = scale_law_from_spectrum(parabola_curve(), 12)
    u = _uniform(100_000, 1)
    alpha = sample_alphas(law, u)
    finite = np.isfinite(alpha)
    # infinite fraction matches p_inf
    p_inf = 1 - law.cdf[-1]
    se = np.sqrt(p_inf * (1 - p_inf) / u.size)
    assert abs((~finite).mean() - p_inf) < 4 * se
    # conditional law matches the tabulated CDF
    cond = lambda x: np.interp(x, law.alpha_grid, law.cdf) / (1.0 - p_inf)
    ks = stats.kstest(alpha[finite], cond).statistic
    assert ks < 0.01
    assert np.all(alpha[finite] >= 0.5 - 1e-12)
    assert np.all(alpha[finite] <= 1.5 + 1e-12)


def test_flat_sampling_hits_single_atom():
    law = flat_scale_law(0.7, 12)
    u = _uniform(200_000, 2)
    alpha = sample_alphas(law, u)
    finite = np.isfinite(alpha)
    assert np.all(alpha[finite] == 0.7)
    mean = 12 * 2.0**-12
    se = np.sqrt(mean * (1 - mean) / u.size)
    assert abs(finite.mean() - mean) < 4 * se


def test_gaussian_law_matches_truncated_normal():
    j, m, sig = 8, 1.0, 0.5
    law = scale_law_from_kernel(GaussianKernel(m=m, sigma=sig), j)
    u = _uniform(100_000, 3)
    alpha = sample_alphas(law, u)
    assert np.all(alpha > 0)
    s = sig / np.sqrt(j)
    ks = stats.kstest(alpha, stats.truncnorm(-m / s, np.inf, loc=m, scale=s).cdf).statistic
    assert ks < 0.01


def test_gaussian_quantile_is_never_negative():
    # m + s * ndtri(z0) rounds below 0 for u under about 1e-17
    alpha = GaussianKernel(m=1.0, sigma=0.5).scale_quantile(1, np.array([0.0, 1e-18, 1e-17]))
    assert np.all(alpha >= 0.0)


def test_gamma_law_matches_scaled_gamma():
    j, a0, nu, beta = 8, 0.1, 1.5, 4.0
    law = scale_law_from_kernel(ShiftedGammaKernel(alpha0=a0, nu=nu, beta=beta), j)
    u = _uniform(100_000, 4)
    alpha = sample_alphas(law, u)
    ks = stats.kstest(alpha, stats.gamma(a=j * nu, loc=a0, scale=1.0 / (beta * j)).cdf).statistic
    assert ks < 0.01


def test_poisson_law_matches_rescaled_poisson():
    j, a0, c = 8, 0.3, 1.0
    law = scale_law_from_kernel(ShiftedPoissonKernel(alpha0=a0, c=c), j)
    u = _uniform(100_000, 5)
    alpha = sample_alphas(law, u)
    k = np.round((alpha - a0) * j).astype(int)
    assert np.max(np.abs(alpha - (a0 + k / j))) < 1e-12
    # chi-square against Poisson(j c) over the bulk
    mu = j * c
    kmax = int(mu + 6 * np.sqrt(mu))
    obs = np.bincount(np.clip(k, 0, kmax), minlength=kmax + 1)
    exp = stats.poisson(mu).pmf(np.arange(kmax + 1))
    exp[-1] += stats.poisson(mu).sf(kmax)
    chi2 = float(np.sum((obs - u.size * exp) ** 2 / (u.size * exp)))
    assert chi2 < stats.chi2(kmax).ppf(0.9999)


def test_dirac_law_is_constant():
    law = scale_law_from_kernel(DiracKernel(H=0.8), 9)
    alpha = sample_alphas(law, _uniform(100, 6))
    assert np.all(alpha == 0.8)


# one law of each type at a scale that spans more than one sampling chunk
CHUNKED_LAWS = {
    "spectrum": scale_law_from_spectrum(parabola_curve(), 17),
    "flat": flat_scale_law(0.7, 17),
    "gaussian": scale_law_from_kernel(GaussianKernel(m=1.0, sigma=0.5), 17),
    "gamma": scale_law_from_kernel(ShiftedGammaKernel(alpha0=0.1, nu=1.5, beta=4.0), 17),
    "poisson": scale_law_from_kernel(ShiftedPoissonKernel(alpha0=0.0, c=1.0), 17),
    "dirac": scale_law_from_kernel(DiracKernel(H=0.8), 17),
}


@pytest.mark.parametrize("name", list(CHUNKED_LAWS))
def test_chunked_sampling_is_bit_identical_to_the_law(name, monkeypatch):
    # three full chunks and a partial one; the bits must not depend on the
    # number of workers either, nor on how often the threads switch
    law = CHUNKED_LAWS[name]
    u = _uniform(3 * synthesis.SAMPLE_CHUNK + 5, 7)
    want = law.sample(u).tobytes()
    assert sample_alphas(law, u).tobytes() == want
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for cpus in (1, 3):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)))
            assert sample_alphas(law, u).tobytes() == want, f"{cpus} workers"
    finally:
        sys.setswitchinterval(interval)


def test_a_worker_exception_reaches_the_caller_and_the_pool_shuts_down(monkeypatch):
    # _map_blocks is the one pool (exponent sampling and the tau ladder); a law
    # that raises on the second of three chunks must surface its own exception
    class _SecondChunkFails(Exception):
        pass

    class FailingLaw:
        def sample(self, u):
            if u[0] == 0.5:
                raise _SecondChunkFails("second chunk")
            return u.copy()

    u = np.repeat([0.25, 0.5, 0.75], synthesis.SAMPLE_CHUNK)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    threads = threading.active_count()
    with pytest.raises(_SecondChunkFails, match="second chunk"):
        sample_alphas(FailingLaw(), u)
    assert threading.active_count() == threads


def test_sampling_respects_alpha_cap():
    law = scale_law_from_kernel(GaussianKernel(m=1.0, sigma=0.5), 4)
    alpha = sample_alphas(law, np.array([0.0, 0.5, 1.0 - 1e-16]))
    assert np.all(alpha <= law.alpha_cap + 1e-15)


# ---------------------------------------------------------------------------
# coefficient pyramids

def test_uniform_field_is_keyed_by_scale_and_seed():
    a = uniform_field(7, 5)
    b = uniform_field(7, 5)
    assert np.array_equal(a, b)
    assert a.shape == (2, 32)
    assert not np.array_equal(a, uniform_field(8, 5))
    assert not np.array_equal(a, uniform_field(7, 6))


def test_uniform_draws_start_no_thread(monkeypatch):
    # a level's matrix is one Philox draw on the calling thread, at any j
    def refuse(*args, **kwargs):
        raise AssertionError("a thread pool was created")

    monkeypatch.setattr(wavelet, "ThreadPoolExecutor", refuse)
    assert uniform_field(5, 20).shape == (2, 2**20)


# as the first kernel call of a fresh process, sampling a two-chunk gamma
# level makes both pool threads import scipy.special at once
FIRST_KERNEL_IMPORT = """
import os, sys
import numpy as np
from rws import ShiftedGammaKernel, sample_alphas, scale_law_from_kernel
os.sched_getaffinity = lambda pid: {0, 1}
sys.setswitchinterval(1e-6)
law = scale_law_from_kernel(ShiftedGammaKernel(alpha0=0.1, nu=1.5, beta=4.0), 17)
u = np.random.Generator(np.random.Philox(key=np.array([3, 17], dtype=np.uint64))).random(2**17)
assert "scipy" not in sys.modules
got = sample_alphas(law, u)
assert got.tobytes() == law.sample(u).tobytes()
"""


def test_first_kernel_import_on_worker_threads():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = {**os.environ, "PYTHONPATH": os.path.join(root, "src")}
    done = subprocess.run([sys.executable, "-c", FIRST_KERNEL_IMPORT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_generation_is_deterministic_and_schedule_free():
    cfg = SynthesisConfig(J=10, source=parabola_curve(), seed=3)
    p1 = generate_coefficients(cfg)
    p2 = generate_coefficients(cfg)
    for l1, l2 in zip(p1.levels, p2.levels):
        assert np.array_equal(l1, l2)
    # levels depend only on (seed, j), not on J
    p3 = generate_coefficients(SynthesisConfig(J=8, source=parabola_curve(), seed=3))
    for j in range(8):
        assert np.array_equal(p1.levels[j], p3.levels[j])


def test_seeds_decorrelate_pyramids():
    a = generate_coefficients(SynthesisConfig(J=10, source=parabola_curve(), seed=0))
    b = generate_coefficients(SynthesisConfig(J=10, source=parabola_curve(), seed=1))
    assert not np.array_equal(a.levels[9], b.levels[9])


def test_coefficient_magnitudes_encode_exponents():
    j = 9
    cfg = SynthesisConfig(J=10, source=parabola_curve(), seed=2)
    pyr = generate_coefficients(cfg)
    u = uniform_field(2, j)
    law = scale_law_from_spectrum(parabola_curve(), j)
    alpha = sample_alphas(law, u[0])
    c = pyr.levels[j]
    finite = np.isfinite(alpha)
    assert np.array_equal(c == 0.0, ~finite)
    back = -np.log2(np.abs(c[finite])) / j
    assert np.max(np.abs(back - alpha[finite])) < 1e-12


def test_signs_are_symmetric_bernoulli():
    pyr = generate_coefficients(SynthesisConfig(J=12, source=DiracKernel(H=0.8), seed=0))
    c = pyr.levels[11]
    assert np.all(np.abs(c) > 0)
    frac = (c < 0).mean()
    assert abs(frac - 0.5) < 4 * np.sqrt(0.25 / c.size)


def test_scale_zero_conventions():
    by_kernel = generate_coefficients(SynthesisConfig(J=6, source=DiracKernel(H=0.8), seed=0))
    assert abs(by_kernel.levels[0][0]) == 1.0
    by_curve = generate_coefficients(SynthesisConfig(J=6, source=parabola_curve(), seed=0))
    assert by_curve.levels[0][0] == 0.0
    by_flat = generate_coefficients(SynthesisConfig(J=6, source=FlatLaw(0.7), seed=0))
    assert by_flat.levels[0][0] == 0.0
    assert by_kernel.coarse_mean == 0.0


def test_synthesize_produces_expected_length():
    x = synthesize(SynthesisConfig(J=8, source=parabola_curve(), seed=0))
    assert x.shape == (256,)
    assert np.all(np.isfinite(x))


@pytest.mark.parametrize("source", [DiracKernel(H=3.5), FlatLaw(3.5)], ids=["dirac", "flat"])
def test_synthesize_warns_when_target_exceeds_wavelet_regularity(source):
    cfg = SynthesisConfig(J=6, source=source, wavelet_order=4, seed=0)
    with pytest.warns(UserWarning, match="regularity"):
        synthesize(cfg)


@pytest.mark.parametrize("source", [
    GaussianKernel(m=1.0, sigma=0.5),
    ShiftedGammaKernel(alpha0=0.1, nu=1.5, beta=4.0),
    ShiftedPoissonKernel(alpha0=0.3, c=1.0),
], ids=["gaussian", "gamma", "poisson"])
def test_kernel_h_max_drives_the_regularity_warning(source):
    with pytest.warns(UserWarning, match="regularity"):
        synthesize(SynthesisConfig(J=6, source=source, wavelet_order=1, seed=0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        synthesize(SynthesisConfig(J=6, source=source, wavelet_order=10, seed=0))


def test_synthesize_rejects_kernel_density_reaching_zero():
    # kernel_validity accepts it, but rho >= 0 arbitrarily close to 0
    with pytest.raises(MathValidityError, match="close to 0"):
        synthesize(SynthesisConfig(J=6, source=ShiftedPoissonKernel(alpha0=0.0, c=0.5)))


def test_flat_rws_counts_and_magnitudes():
    pyr = generate_coefficients(SynthesisConfig(J=13, source=FlatLaw(0.7), seed=5))
    assert pyr.J == 13
    for j in (10, 11, 12):
        c = pyr.levels[j]
        nz = c != 0
        assert np.all(np.abs(c[nz]) == 2.0 ** (-j * 0.7))
        # occupancy j 2^-j: loose 6-sigma bound per level
        mean = j
        assert abs(nz.sum() - mean) < 6 * np.sqrt(mean) + 1
    with pytest.raises(ConfigError, match="alpha0"):
        generate_coefficients(SynthesisConfig(J=10, source=FlatLaw(-0.1)))


# sha256 of synthesize(SynthesisConfig(J=18, source, 10, seed=5)) as float64
# bytes, recorded before exponent sampling was split into chunks: level 17
# spans two chunks, which the J=12 digests of acceptance a12 never reach.
J18_SHA256 = {
    "parabola": "8befb8b0fc90fef2f412ebb771dc53e31cea381eb2bf05893e2f4b53d7aac46a",
    "gaussian": "8a58cd0d4d4f41ffe58d1cba4ec1b39dc0239e6bf055bd55316c9c25fe75ef87",
    "gamma": "7dec59bbb062fb4d860a7e549705ba9d8721279ece8109930a9069065df105df",
    "poisson": "b100a3f2a21fc8f95afa17b9bd8e5859a7fca9578cab54739ff4b6532b5f82d8",
    "flat": "b9ce9eb42845f63aa4bdc56832e8f4d89a16db5874370da8f4da0ea5550b2621",
}

J18_SOURCES = {
    "parabola": parabola_curve(),
    "gaussian": GaussianKernel(m=1.0, sigma=0.5),
    "gamma": ShiftedGammaKernel(alpha0=0.1, nu=1.5, beta=4.0),
    "poisson": ShiftedPoissonKernel(alpha0=0.0, c=1.0),
    "flat": FlatLaw(0.7),
}


@pytest.mark.parametrize("source", list(J18_SHA256))
def test_multi_chunk_synthesis_digest(source):
    threads = threading.active_count()
    x = synthesize(SynthesisConfig(J=18, source=J18_SOURCES[source], wavelet_order=10, seed=5))
    assert hashlib.sha256(x.tobytes()).hexdigest() == J18_SHA256[source]
    assert threading.active_count() == threads  # the sampling pool is shut down


# call, then an input whose levels (ladder) fit one block and one that spans
# several; built when the case runs, before the pool is refused
ONE_BLOCK_CASES = {
    "synthesize": lambda: (
        synthesize,
        SynthesisConfig(J=12, source=ShiftedGammaKernel(alpha0=0.1, nu=1.5, beta=4.0), seed=5),
        SynthesisConfig(J=18, source=FlatLaw(0.7), seed=5),
    ),
    "analyze_pyramid": lambda: (
        analyze_pyramid,
        generate_coefficients(SynthesisConfig(J=12, source=GaussianKernel(m=1.0, sigma=0.5), seed=5)),
        generate_coefficients(SynthesisConfig(J=18, source=GaussianKernel(m=1.0, sigma=0.5), seed=5)),
    ),
}


@pytest.mark.parametrize("case", list(ONE_BLOCK_CASES))
def test_single_chunk_levels_start_no_thread(case, monkeypatch):
    call, small, large = ONE_BLOCK_CASES[case]()

    def refuse(*args, **kwargs):
        raise AssertionError("a thread pool was created")

    monkeypatch.setattr(wavelet, "ThreadPoolExecutor", refuse)
    call(small)
    with pytest.raises(AssertionError, match="thread pool"):
        call(large)
