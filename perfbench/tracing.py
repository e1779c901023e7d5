"""Per-layer spans recorded from outside the program.

``Tracer.installed()`` rebinds the public functions of each ``rws``
module, in the modules that call them, to wrappers that record a span
(name, start, end, parent) and afterwards restores the originals.  A
span's name is ``<layer>.<stage>``; the layers are the modules ``cli``,
``fileio``, ``synthesis``, ``spectra``, ``wavelet`` and ``estimation``.

A span's self time is its duration minus the time its child spans cover
(calls are nested and sequential, so that is the sum of the children).
The self times of one item's spans add up to the duration of its root
``cli.main`` span.  Work counts (rows, bytes, coefficients, MACs) are
computed from a wrapped call's arguments and result after its span has
closed, so their cost lands in the caller's self time and is part of the
tracing overhead the benchmark reports.
"""

import os
import time
from collections import defaultdict
from contextlib import contextmanager

LAYERS = ("cli", "fileio", "synthesis", "spectra", "wavelet", "estimation")


def _fit_nonzero(args, result):
    pyramid = args[0]
    j0, j1 = result.scale_range
    return sum(int((pyramid.levels[j] != 0).sum()) for j in range(j0, j1 + 1))


def _macs(J, filt):
    # multiply-adds of a periodized transform: taps x samples, summed
    # over the levels of length 2^J, 2^(J-1), ..., 2
    return filt.lowpass.size * (2 ** (J + 1) - 2)


def _file_bytes(args):
    return os.path.getsize(args[0])


def _written(rows):
    return lambda a, r: {"csv_rows": rows(a).size, "bytes_written": _file_bytes(a)}


def hook_table():
    """(span name, owner, attribute, counter) for every rebinding.

    A counter maps a call's (args, result) to {count name: increment}.
    """
    from rws import cli, estimation, fileio, spectra, synthesis

    size = lambda a, r: {"bytes_written": _file_bytes(a)}
    return [
        ("fileio.load_config", fileio, "load_synthesis_config", None),
        ("fileio.write_signal", fileio, "write_signal", size),
        ("fileio.read_signal", fileio, "read_signal", None),
        ("fileio.csv_write", fileio, "write_lambda_csv", _written(lambda a: a[1].alpha_grid)),
        ("fileio.csv_write", fileio, "write_tau_csv", _written(lambda a: a[1].q_grid)),
        ("fileio.csv_write", fileio, "write_estimate_csv", _written(lambda a: a[1].h_grid)),
        ("fileio.manifest", fileio, "write_key_values", size),
        ("spectra.curve", fileio, "curve_from_samples", None),
        ("spectra.admissible", synthesis, "check_admissible", None),
        ("spectra.validity", synthesis, "kernel_validity", None),
        ("spectra.rho_map", synthesis, "spectrum_from_rho", None),
        ("spectra.density", spectra.LogDensity, "from_kernel", None),
        ("synthesis.validate", cli, "validate_config", None),
        ("synthesis.validate", synthesis, "validate_config", None),
        ("synthesis.synthesize", cli, "synthesize", None),
        ("synthesis.generate", synthesis, "generate_coefficients", lambda a, r: {
            "coeffs": sum(lev.size for lev in r.levels),
            "nonzero": sum(int((lev != 0).sum()) for lev in r.levels),
        }),
        ("synthesis.law", synthesis, "scale_law_from_spectrum", None),
        ("synthesis.law", synthesis, "flat_scale_law", None),
        ("synthesis.law", synthesis, "scale_law_from_kernel", None),
        ("synthesis.uniform", synthesis, "uniform_field", None),
        ("synthesis.sample", synthesis, "sample_alphas", None),
        ("wavelet.filter", cli, "parse_wavelet_name", None),
        ("wavelet.filter", fileio, "parse_wavelet_name", None),
        ("wavelet.filter", synthesis, "daubechies_filter", None),
        ("wavelet.forward", cli, "forward_dwt", lambda a, r: {"forward_macs": _macs(r.J, a[1])}),
        ("wavelet.inverse", synthesis, "inverse_dwt", lambda a, r: {"inverse_macs": _macs(a[0].J, a[1])}),
        ("estimation.analyze", cli, "analyze_pyramid", None),
        ("estimation.alpha_field", estimation.AlphaField, "from_pyramid", None),
        ("estimation.lambda", estimation, "estimate_lambda", lambda a, r: {
            "lambda_finite": int((r.values == r.values).sum()),  # not NaN
            "lambda_points": r.values.size,
        }),
        ("estimation.closure", estimation, "upper_closure", None),
        ("estimation.closure", estimation, "large_deviation_spectrum", None),
        ("estimation.tau", estimation, "structure_function",
         lambda a, r: {"tau_qcoef": r.q_grid.size * _fit_nonzero(a, r)}),
        ("estimation.q_c", estimation, "critical_q", None),
        ("estimation.legendre", estimation, "legendre_spectrum", None),
    ]


class Tracer:
    """Records spans while installed and folds each item into totals."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index] of the current item
        self._stack = []
        self.self_s = defaultdict(float)   # span name -> summed self time
        self.calls = defaultdict(int)      # span name -> number of spans
        self.counts = defaultdict(int)     # count name -> summed count

    def wrap(self, name, fn, counter=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = time.perf_counter()
                stack.pop()
            if counter is not None:
                for key, n in counter(args, result).items():
                    self.counts[key] += n
            return result

        return traced

    @contextmanager
    def installed(self):
        saved = []
        try:
            for name, owner, attr, counter in hook_table():
                raw = owner.__dict__[attr]
                saved.append((owner, attr, raw))
                if isinstance(raw, classmethod):
                    setattr(owner, attr, classmethod(self.wrap(name, raw.__func__, counter)))
                else:
                    setattr(owner, attr, self.wrap(name, raw, counter))
            yield
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    def end_item(self):
        """Fold the current item's spans into the totals and clear them."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for (name, start, end, _), covered in zip(self.spans, child):
            self.self_s[name] += end - start - covered
            self.calls[name] += 1
        self.spans.clear()

    def layer_self_s(self, layer):
        return sum(v for k, v in self.self_s.items() if k.split(".")[0] == layer)
