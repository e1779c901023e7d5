"""Periodized orthogonal Daubechies wavelet transform on dyadic signals.

Filters are the extremal-phase ("minimum phase") Daubechies family,
orders 1 through 10.  Taps were computed offline by spectral
factorization of the Daubechies polynomial at 80-digit precision and
rounded to float64; the QMF invariants (tap sum sqrt(2), shifted
self-orthonormality) hold to ~2e-16 and are gated by the self-test.

Coefficient normalization
-------------------------
The transform is the standard orthonormal periodized pyramid, but the
stored detail coefficients are rescaled: with ``w[j][k]`` the
orthonormal coefficient of the unit-energy input ``x * 2**(-J/2)``,
level ``j`` stores ``C[j][k] = 2**(j/2) * w[j][k]``.  Under this
convention a signal that is Hoelder-h at a point has coefficients
decaying like ``|C[j][k]| ~ 2**(-j*h)`` near that point, so scaling
exponents can be read off as ``-log2|C| / j`` without a half-power
correction.  ``coarse_mean`` is the signal mean; detail levels
``j = 0 .. J-1`` hold ``2**j`` coefficients each.

Polyphase kernels
-----------------
Each level runs in polyphase form (Strang & Nguyen, "Wavelets and
Filter Banks", 1996).  The forward step reads its input as a row of
even and a row of odd samples and fills the lowpass and highpass
outputs from the same slices; the inverse step sends the even taps to
the even outputs and the odd taps to the odd outputs, so none of its
multiply-adds is by a zero of the upsampled input.  Both keep the tap
order m = 0 .. L-1 for every output and walk the outputs in blocks of
DWT_BLOCK, so their bytes equal those of the textbook stride-2
correlation and zero-filled convolution.  The forward step has one path
for every level: a level of fewer than (L-1)//2 sample pairs is first
extended circularly to (L-1)//2 pairs more, so no window wraps twice.
It makes no BLAS call, and its bytes do not depend on the machine's BLAS
kernel.  The inverse step still computes a level shorter than the filter
(n < L) by a matrix product over explicit circular indices, whose
summation order is the BLAS kernel's own: the db4-db10 synthesis bytes
hold only for the OpenBLAS kernel family they were recorded with.

Each block copies only the window of input it reads, and the circular
wrap and the level's scale are applied to that window: 2**(-J/2) on the
forward transform's signal, 2**(-j/2) on the inverse transform's detail
level j.  A level thus holds its input, its outputs and block-sized
temporaries, and neither transform writes to its argument.  Beyond its
input, the forward transform peaks at about 1.56 times the signal's size
(the pyramid and the top level's approx; the finiteness mask is dropped
once checked), and it holds no reference to its input past the top
level, so a caller that keeps none frees the signal there.  The
inverse peaks at about 1.0 (1.03 at J = 22, 1.11 at J = 20, where its
block-sized temporaries weigh more): it makes only its output, before
the first level, and every level reads its approx from the front of that
buffer and writes its outputs over it, so no level makes or drops a
level-sized array.

``_map_blocks`` is the one worker pool of the package: exponent
sampling (synthesis) and the partition-sum ladder (estimation) hand it
their blocks.  The transforms stay serial: with the blocks of each
forward level on the pool, a J = 22 forward transform on a 2-core VM
took 0.18 s instead of 0.15 s (median of 5).
"""

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    InvalidLengthError,
    InvalidPyramidError,
    NonFiniteSampleError,
    UnsupportedOrderError,
)

# Lowpass taps h[0..2N-1], largest taps first (db3 starts 0.33267...).
DAUBECHIES_LOWPASS = {
    1: (
        0.7071067811865476,
        0.7071067811865476,
    ),
    2: (
        0.48296291314453416,
        0.8365163037378079,
        0.2241438680420134,
        -0.12940952255126037,
    ),
    3: (
        0.33267055295008263,
        0.8068915093110925,
        0.45987750211849154,
        -0.13501102001025458,
        -0.08544127388202666,
        0.03522629188570953,
    ),
    4: (
        0.2303778133088965,
        0.7148465705529157,
        0.6308807679298589,
        -0.027983769416859854,
        -0.18703481171909309,
        0.030841381835560764,
        0.0328830116668852,
        -0.010597401785069032,
    ),
    5: (
        0.16010239797419293,
        0.6038292697971896,
        0.7243085284377729,
        0.13842814590132074,
        -0.24229488706638203,
        -0.032244869584638375,
        0.07757149384004572,
        -0.006241490212798274,
        -0.012580751999081999,
        0.0033357252854737712,
    ),
    6: (
        0.11154074335010947,
        0.49462389039845306,
        0.7511339080210954,
        0.31525035170919763,
        -0.22626469396543983,
        -0.12976686756726194,
        0.09750160558732304,
        0.027522865530305727,
        -0.03158203931748603,
        0.0005538422011614961,
        0.004777257510945511,
        -0.0010773010853084796,
    ),
    7: (
        0.07785205408500918,
        0.3965393194819173,
        0.7291320908462351,
        0.4697822874051931,
        -0.14390600392856498,
        -0.22403618499387498,
        0.07130921926683026,
        0.08061260915108308,
        -0.03802993693501441,
        -0.01657454163066688,
        0.01255099855609984,
        0.0004295779729213665,
        -0.0018016407040474908,
        0.00035371379997452024,
    ),
    8: (
        0.05441584224310401,
        0.31287159091429995,
        0.6756307362972898,
        0.5853546836542067,
        -0.015829105256349306,
        -0.2840155429615469,
        0.0004724845739132828,
        0.12874742662047847,
        -0.017369301001807547,
        -0.044088253930794755,
        0.013981027917398282,
        0.008746094047405777,
        -0.004870352993451574,
        -0.00039174037337694705,
        0.0006754494064505693,
        -0.00011747678412476953,
    ),
    9: (
        0.038077947363878345,
        0.24383467461259034,
        0.6048231236901112,
        0.6572880780513005,
        0.13319738582500756,
        -0.2932737832791749,
        -0.09684078322297646,
        0.14854074933810638,
        0.03072568147933338,
        -0.06763282906132997,
        0.00025094711483145197,
        0.022361662123679096,
        -0.004723204757751397,
        -0.00428150368246343,
        0.0018476468830562265,
        0.00023038576352319597,
        -0.0002519631889427101,
        3.93473203162716e-05,
    ),
    10: (
        0.026670057900555554,
        0.1881768000776915,
        0.5272011889317256,
        0.6884590394536035,
        0.2811723436605775,
        -0.24984642432731538,
        -0.19594627437737705,
        0.12736934033579325,
        0.09305736460357235,
        -0.07139414716639708,
        -0.029457536821875813,
        0.033212674059341,
        0.0036065535669561697,
        -0.010733175483330575,
        0.001395351747052901,
        0.001992405295185056,
        -0.0006858566949597116,
        -0.00011646685512928545,
        9.358867032006959e-05,
        -1.3264202894521244e-05,
    ),
}

SUPPORTED_ORDERS = tuple(sorted(DAUBECHIES_LOWPASS))


@dataclass(frozen=True, eq=False)
class WaveletFilter:
    """Orthonormal filter pair; ``highpass[n] = (-1)^n lowpass[L-1-n]``."""

    order: int
    lowpass: np.ndarray
    highpass: np.ndarray
    name: str


def daubechies_filter(order: int) -> WaveletFilter:
    """Return the extremal-phase Daubechies filter of the given order (1..10)."""
    if order not in DAUBECHIES_LOWPASS:
        raise UnsupportedOrderError(
            f"order {order} not supported; embedded tables cover {SUPPORTED_ORDERS[0]}"
            f"..{SUPPORTED_ORDERS[-1]}"
        )
    lo = np.asarray(DAUBECHIES_LOWPASS[order], dtype=np.float64)
    signs = np.where(np.arange(lo.size) % 2 == 0, 1.0, -1.0)
    hi = signs * lo[::-1]
    return WaveletFilter(order=order, lowpass=lo, highpass=hi, name=f"db{order}")


def parse_wavelet_name(name: str) -> WaveletFilter:
    """The filter named db1..db10 (the CLI and config spelling); any other
    name raises ConfigError."""
    if name not in {f"db{order}" for order in SUPPORTED_ORDERS}:
        raise ConfigError(f"unknown wavelet {name!r}; expected db1..db10")
    return daubechies_filter(int(name[2:]))


@dataclass(eq=False)
class CoefficientPyramid:
    """Full wavelet decomposition of a length-2**J signal.

    ``levels[j]`` holds the 2**j coefficients of scale j in the
    rescaled convention described in the module docstring;
    ``coarse_mean`` is the single remaining scaling coefficient, equal
    to the sample mean of the signal.  Checks its own shape when made
    and stores each level in final form, a 1-D float64 array (a float64
    input is not copied): InvalidPyramidError unless there are J levels
    of those sizes.
    """

    J: int
    levels: list
    coarse_mean: float = 0.0

    def __post_init__(self):
        if len(self.levels) != self.J:
            raise InvalidPyramidError(
                f"expected {self.J} detail levels, found {len(self.levels)}"
            )
        self.levels = [np.asarray(lev, dtype=np.float64) for lev in self.levels]
        for j, lev in enumerate(self.levels):
            if lev.shape != (2**j,):
                raise InvalidPyramidError(f"level {j} must hold {2**j} coefficients in one dimension")


# Outputs per block of the polyphase loops: a block's accumulators and the
# input slices it reads (128 KiB each) stay in cache across all L taps.
# At J = 22 on a 2-core VM, the top db10 level took 0.05 s inverse and
# 0.04 s forward at 2^14, 0.05-0.06 s at 2^12 or 2^16, and 0.15 s and
# 0.10 s unblocked.
DWT_BLOCK = 2**14


def _map_blocks(fn, starts):
    """``[fn(b0) for b0 in starts]``, in order.  More than one block runs on
    one thread per CPU of the process; a single block runs inline and starts
    no thread.  ``fn`` must call no traced package function, since the
    tracer keeps one span stack for the main thread."""
    starts = list(starts)
    if len(starts) < 2:
        return [fn(b0) for b0 in starts]
    with ThreadPoolExecutor(max_workers=_worker_count()) as pool:
        return list(pool.map(fn, starts))


def _worker_count():
    """The CPUs this process may run on: the threads of ``_map_blocks``."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def dyadic_exponent(n: int) -> int:
    """J such that n == 2**J; raises if n is not a power of two >= 2."""
    if n < 2 or n & (n - 1):
        raise InvalidLengthError(f"signal length {n} is not a power of two >= 2")
    return n.bit_length() - 1


def _down_corr(s, lo, hi, scale=1.0):
    # (approx, detail) with y[k] = sum_m taps[m] * (scale * s)[(2k+m) mod n],
    # n even.  Tap m reads the even (m even) or odd row of the block's
    # window of sample pairs at offset m // 2; only the windows, never all
    # of s, are copied and scaled.
    h = s.size // 2
    M = (lo.size - 1) // 2
    if h < M:  # a window would wrap more than once: extend the level circularly
        s = np.resize(s, 2 * (h + M))
    pairs = s.reshape(-1, 2).T  # row 0 the even samples, row 1 the odd
    width = pairs.shape[1]
    approx = np.zeros(h)
    detail = np.zeros(h)
    for b0 in range(0, h, DWT_BLOCK):
        w = min(DWT_BLOCK, h - b0)
        if b0 + w + M > width:  # the window runs past the end and wraps
            halves = np.concatenate([pairs[:, b0:], pairs[:, : b0 + w + M - width]], axis=1)
        else:
            halves = pairs[:, b0 : b0 + w + M].copy()
        halves *= scale
        a = approx[b0 : b0 + w]
        d = detail[b0 : b0 + w]
        for m in range(lo.size):
            x = halves[m % 2, m // 2 : m // 2 + w]
            a += lo[m] * x
            d += hi[m] * x
    return approx, detail


def _up_conv(approx, detail, lo, hi, out, scale=1.0):
    # out[i] = sum_m lo[m]*ua[(i-m) mod n] + hi[m]*ud[(i-m) mod n], with ua
    # and ud the zero-upsampled approx and scale * detail, written into out
    # (n contiguous floats) and returned.  Tap m adds to output 2p + m % 2
    # from approx/detail at p - m // 2, read from the block's window that
    # starts K samples early (circularly).  The terms it skips are exact
    # zeros, and adding a zero never changes a sum that starts at +0.0: the
    # bytes equal the zero-filled form.
    #
    # approx may be the front of out itself (inverse_dwt passes out[:h]).
    # The block at b0 writes outputs 2*b0 and up, and every block below it
    # reads approx below b0, but for its wrap into the last K samples.  So
    # the blocks run from last to first, each sums its window into phases
    # before it writes, and the K samples that wrap are copied before the
    # first write.
    h = approx.size
    n = 2 * h
    L = lo.size
    if n >= L:
        K = (L + 1) // 2 - 1
        tail = approx[h - K :].copy()
        s = out.reshape(h, 2)    # row p holds outputs 2p and 2p + 1
        for b0 in reversed(range(0, h, DWT_BLOCK)):
            w = min(DWT_BLOCK, h - b0)
            if b0 < K:  # the window starts before sample 0 and wraps
                ea = np.concatenate([tail[b0:], approx[: b0 + w]])
                ed = np.concatenate([detail[h - K + b0 :], detail[: b0 + w]])
            else:
                ea = approx[b0 - K : b0 + w]
                ed = detail[b0 - K : b0 + w]
            ed = ed * scale
            phases = np.zeros((2, w))
            for m in range(L):
                k = K - m // 2
                phases[m % 2] += lo[m] * ea[k : k + w] + hi[m] * ed[k : k + w]
            s[b0 : b0 + w] = phases.T
        return out
    ua = np.zeros(n)
    ua[::2] = approx
    ud = np.zeros(n)
    np.multiply(detail, scale, out=ud[::2])
    idx = (np.arange(n)[:, None] - np.arange(L)[None, :]) % n
    out[:] = ua[idx] @ lo + ud[idx] @ hi
    return out


def forward_dwt(signal, filt: WaveletFilter) -> CoefficientPyramid:
    """Decompose a length-2**J sample vector down to a single coarse value.

    Boundary handling is circular at every level, so the transform is
    exactly orthogonal for any order (filters longer than a level wrap).
    A signal that is not one-dimensional with 2**J >= 2 samples raises
    InvalidLengthError, and a NaN or infinite sample NonFiniteSampleError,
    naming the first one's index.

    The finiteness mask is dropped once checked, and the function keeps
    no reference to its input past the top level: a signal that only the
    call holds (a temporary argument) is freed there, so the levels below
    run beside the pyramid alone.  A wrapper that keeps its call's
    arguments (a tracer, say) keeps the signal alive for the whole call.
    """
    # s alone holds the input, until the top level's approx replaces it
    s = np.asarray(signal, dtype=np.float64)
    del signal
    if s.ndim != 1:
        raise InvalidLengthError("signal must be one-dimensional")
    J = dyadic_exponent(s.size)
    if not np.isfinite(s).all():
        i = int(np.argmin(np.isfinite(s)))
        raise NonFiniteSampleError(f"sample {i} is {float(s[i])}; samples must be finite")
    scale = 2.0 ** (-0.5 * J)  # the top level scales its input per block
    levels = [None] * J
    for j in range(J - 1, -1, -1):
        s, det = _down_corr(s, filt.lowpass, filt.highpass, scale)
        det *= 2.0 ** (0.5 * j)
        levels[j] = det
        scale = 1.0
    return CoefficientPyramid(J=J, levels=levels, coarse_mean=float(s[0]))


def inverse_dwt(pyramid: CoefficientPyramid, filt: WaveletFilter) -> np.ndarray:
    """Rebuild the 2**J sample vector from a coefficient pyramid.

    Every level works in the output alone, made before the first level:
    level j reads its approx from the front 2**j samples and writes its
    2**(j+1) samples over them (``_up_conv`` orders its blocks so that
    this is safe), so the last level leaves the signal in place."""
    J = pyramid.J
    out = np.empty(2**J)
    out[0] = pyramid.coarse_mean
    for j in range(J):
        h = 2**j
        _up_conv(out[:h], pyramid.levels[j], filt.lowpass, filt.highpass, out[: 2 * h],
                 2.0 ** (-0.5 * j))
    out *= 2.0 ** (0.5 * J)
    return out
