"""Random wavelet series with prescribed multifractal spectra.

Synthesis draws independent wavelet coefficients whose magnitudes
follow per-scale exponent laws derived from a target spectrum, a
self-similarity kernel, or a flat (constant-exponent) law; estimation
recovers the spectrum of a sampled signal through large-deviation
log-count rates and through Legendre transforms of partition-sum
scaling exponents.
"""

from .errors import (
    AdmissibilityError,
    ConfigError,
    DegenerateLevelError,
    FormatError,
    InsufficientScalesError,
    InvalidLengthError,
    InvalidPyramidError,
    KernelValidityError,
    MathValidityError,
    NonFiniteSampleError,
    RwsError,
    UnsupportedOrderError,
    UnsupportedVariantError,
)
from .estimation import (
    AlphaField,
    AnalysisResult,
    EstimatedSpectrum,
    LambdaCurve,
    TauCurve,
    analyze_pyramid,
    critical_q,
    default_q_grid,
    estimate_lambda,
    large_deviation_spectrum,
    legendre_spectrum,
    structure_function,
    upper_closure,
)
from .spectra import (
    DiracKernel,
    GaussianKernel,
    Kernel,
    ShiftedGammaKernel,
    ShiftedPoissonKernel,
    SpectrumCurve,
    check_admissible,
    curve_from_function,
    curve_from_samples,
    gaussian_threshold,
    kernel_validity,
    spectrum_from_rho,
)
from .synthesis import (
    FlatLaw,
    KernelScaleLaw,
    ScaleLawTable,
    SynthesisConfig,
    flat_scale_law,
    generate_coefficients,
    sample_alphas,
    scale_law_from_kernel,
    scale_law_from_spectrum,
    synthesize,
    uniform_field,
    validate_config,
)
from .wavelet import (
    CoefficientPyramid,
    WaveletFilter,
    daubechies_filter,
    dyadic_exponent,
    forward_dwt,
    inverse_dwt,
    parse_wavelet_name,
)
