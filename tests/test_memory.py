"""Memory budgets of the large stages, traced with tracemalloc.

Each stage may hold its input, its output and block-sized temporaries,
but no spare full-size copy.  A budget is a multiple of the signal's
size, 8 * 2**J bytes, set from measurement with a margin; stages that run
blocks on the worker pool also get a fixed number of block-sized arrays
per worker.  numpy reports its array buffers to tracemalloc, from every
thread.
"""

import sys
import tracemalloc

import numpy as np
import pytest

from rws import (
    AlphaField,
    GaussianKernel,
    SynthesisConfig,
    cli,
    curve_from_function,
    daubechies_filter,
    forward_dwt,
    inverse_dwt,
    scale_law_from_spectrum,
    structure_function,
    synthesize,
    uniform_field,
)
from rws.estimation import LADDER_BLOCK
from rws.fileio import read_signal, write_signal
from rws.synthesis import SAMPLE_CHUNK
from rws.wavelet import _worker_count


def _traced_peak(fn, *args):
    """Peak bytes allocated during fn(*args) beyond what was live before it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def _signal(J):
    return np.random.default_rng(J).standard_normal(2**J)


def test_synthesize_memory_budget():
    # measured 2.51 signals at 1 worker and 3.01 at 2 (level 17 spans two
    # sampling chunks): the pyramid, then its inverse transform's output and
    # the approx it reads; 4.32 with a spare copy per stage.  An untraced
    # J=6 call first imports the gaussian law's scipy.special
    J = 18
    source = GaussianKernel(m=1.0, sigma=0.5)
    synthesize(SynthesisConfig(J=6, source=source, seed=5))
    peak = _traced_peak(synthesize, SynthesisConfig(J=J, source=source, seed=5))
    assert peak <= 3.5 * 8 * 2**J


def test_scale_law_table_sample_memory_budget():
    # one sampling chunk of the parabola law at j = 17, where 35% of the
    # uniforms fall below the table's mass: measured 2.87 chunks (the output,
    # the mask and five arrays the size of that 35%); 3.92 when each step of
    # the interpolation made a new temporary
    law = scale_law_from_spectrum(curve_from_function(lambda h: (h - 0.5) ** 2, 0.5, 1.5), 17)
    u = uniform_field(5, 17)[0, :SAMPLE_CHUNK]
    assert _traced_peak(law.sample, u) <= 3.3 * 8 * SAMPLE_CHUNK


@pytest.mark.parametrize("order", [3, 10])
def test_forward_dwt_memory_budget(order):
    # measured 1.56 signals beyond the input: the pyramid and the top
    # level's approx, the finiteness mask being freed once checked; 3.14
    # with a spare copy per level
    J = 20
    x = _signal(J)
    assert _traced_peak(forward_dwt, x, daubechies_filter(order)) <= 1.75 * 8 * 2**J


@pytest.mark.parametrize("order", [3, 10])
def test_inverse_dwt_memory_budget(order):
    # measured 1.11 signals beyond the pyramid: the output, in which every
    # level works, and block-sized temporaries; 1.61 with a spare buffer of
    # half a signal that alternate levels wrote into
    J = 20
    f = daubechies_filter(order)
    pyr = forward_dwt(_signal(J), f)
    assert _traced_peak(inverse_dwt, pyr, f) <= 1.25 * 8 * 2**J


def test_alpha_field_memory_budget():
    # every level nonzero: measured 1.09 signals beyond the pyramid, the
    # field (about one signal) and the top level's nonzero mask; 1.56 when
    # each level took a |C| copy and a second copy of its nonzero entries
    J = 20
    pyr = forward_dwt(_signal(J), daubechies_filter(3))
    assert all(lev.all() for lev in pyr.levels)
    assert _traced_peak(AlphaField.from_pyramid, pyr) <= 1.25 * 8 * 2**J


def test_read_signal_memory_budget(tmp_path):
    # measured 1.13 signals: the payload and the finiteness mask; 3.0 when
    # the file's bytes, their slice and a converted copy were all live
    J = 20
    path = str(tmp_path / "signal.rws")
    write_signal(path, _signal(J))
    assert _traced_peak(read_signal, path) <= 1.25 * 8 * 2**J


@pytest.mark.skipif(sys.version_info < (3, 11), reason="the caller keeps a temporary argument")
@pytest.mark.filterwarnings("ignore:tau\\(q\\) has no sign change:UserWarning")  # white noise
def test_analyze_command_memory_budget(tmp_path):
    # measured 2.09 signals with up to two workers: the top forward level
    # (the signal beside its approx and detail), or the alpha field beside
    # the pyramid.  The fits then hold the field (levels 10..19, about one
    # signal) and the ladder's blocks on each worker, 2.26 signals with
    # four.  The signal and the pyramid are freed early only because no
    # local holds them, which needs CPython >= 3.11: there a frame owns its
    # arguments, so a temporary argument dies when the callee drops it.  An
    # untraced J=10 call first makes the command's lazy imports
    J = 20
    warm, path = str(tmp_path / "warm.rws"), str(tmp_path / "signal.rws")
    write_signal(warm, _signal(10))
    write_signal(path, _signal(J))
    cli.main(["analyze", warm, "--out", str(tmp_path / "warm")])
    peak = _traced_peak(cli.main, ["analyze", path, "--out", str(tmp_path / "out")])
    blocks = -(-(2**J - 2**10) // LADDER_BLOCK)
    fits = 1.1 * 8 * 2**J + min(_worker_count(), blocks) * 8 * (8 * LADDER_BLOCK)
    assert peak <= max(2.25 * 8 * 2**J, fits)


def test_structure_function_memory_budget():
    # beyond the field, the ladder holds block-sized arrays on each worker,
    # measured 6 blocks (3 MB) per worker; a concatenated copy of the fit
    # levels' -j alpha would add a whole signal
    J = 21
    rng = np.random.default_rng(1)
    field = AlphaField(J=J, levels={j: 0.5 + rng.random(2**j) for j in range(J - 10, J)})
    blocks = -(-sum(a.size for a in field.levels.values()) // LADDER_BLOCK)
    per_worker = 8 * (8 * LADDER_BLOCK)
    budget = 0.25 * 8 * 2**J + min(_worker_count(), blocks) * per_worker
    assert _traced_peak(structure_function, field) <= budget
