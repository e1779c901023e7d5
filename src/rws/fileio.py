"""On-disk formats.

Signals travel either as ``rws-sig`` binary (magic ``RWS1``, three
little-endian uint32 header words: version = 1, J, reserved = 0, then
2**J float64 samples, little-endian, J <= 30) or as plain text with one
sample per line.  Readers sniff the magic, so either format can be
handed to any command.  The writer takes a power of two of at least 2
samples (``dyadic_exponent``), and both readers take only that many
samples; each such refusal is a FormatError starting with the file's
path.  Whether every sample is finite is ``forward_dwt``'s check, which
``rws analyze`` frames with the path.

Tabular outputs are comment-headed CSV: a single ``# col,col`` line
followed by one row per grid point, each number written with 12
significant digits (``%.12g``, -0.0 as ``0``).  A table is formatted in
one ``%`` pass over its stacked columns, which must all have the same
length.  An empty cell means the value is absent at that grid point (NaN
or +-inf in memory); absent cells read back as NaN.

Configs are flat ``key=value`` text; unknown keys are rejected rather
than ignored.  All three text formats share one line grammar
(``_records``): lines are stripped, blank and ``#`` lines are skipped,
and a malformed line is reported as ``path:line``.  Every error in a
config's text or values, ranges and kernel validity included, starts with
the config's path.
"""

import math
import os
import stat
import struct
from dataclasses import asdict, fields

import numpy as np

from .errors import ConfigError, FormatError, MathValidityError
from .spectra import (
    DiracKernel,
    GaussianKernel,
    ShiftedGammaKernel,
    ShiftedPoissonKernel,
    SpectrumCurve,
    curve_from_samples,
)
from .synthesis import FlatLaw, SynthesisConfig
from .wavelet import dyadic_exponent, parse_wavelet_name

_MAGIC = b"RWS1"
_HEADER = struct.Struct("<4sIII")
_VERSION = 1


def _parse_cell(text: str, path: str, line: int) -> float:
    """A number; an empty cell is absent (NaN)."""
    if text == "":
        return math.nan
    try:
        return float(text)
    except ValueError:
        raise FormatError(f"{path}:{line}: not a number: {text!r}") from None


def _records(text: str):
    """(line number, stripped line) of each line that is neither blank nor ``#``."""
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield ln, line


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as f:
            return f.read()
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError:
        raise FormatError(f"{path}: not a text file") from None


# ---------------------------------------------------------------------------
# signals

def _framed(path: str, check, *args):
    """check(*args); a MathValidityError it raises is raised again as a
    FormatError starting with path."""
    try:
        return check(*args)
    except MathValidityError as exc:
        raise FormatError(f"{path}: {exc}") from None


def write_signal(path: str, samples: np.ndarray) -> None:
    x = np.ascontiguousarray(samples, dtype="<f8")
    J = _framed(path, dyadic_exponent, x.size)
    with open(path, "wb") as f:
        f.write(_HEADER.pack(_MAGIC, _VERSION, J, 0))
        f.write(x.data)  # the array's own buffer, not a bytes copy of it


def read_signal(path: str) -> np.ndarray:
    """The samples of a signal file, either format; a binary payload is
    read straight into the returned array.  Both formats are held to the
    transforms' length rule (``dyadic_exponent``)."""
    try:
        with open(path, "rb") as f:
            blob = f.read(_HEADER.size)
            if blob[:4] == _MAGIC:
                x = _read_payload(path, f, blob)
            else:
                blob += f.read()
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc.strerror or exc}") from None
    if blob[:4] != _MAGIC:   # text fallback: one sample per line
        try:
            text = blob.decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError(f"{path}: neither rws-sig binary nor text") from None
        x = np.array([_parse_cell(line, path, ln) for ln, line in _records(text)], dtype=np.float64)
    _framed(path, dyadic_exponent, x.size)
    return x


def _read_payload(path: str, f, header: bytes) -> np.ndarray:
    """The samples after a binary header, read into one new array."""
    if len(header) < _HEADER.size:
        raise FormatError(f"{path}: truncated header")
    _, version, J, _reserved = _HEADER.unpack(header)
    if version != _VERSION:
        raise FormatError(f"{path}: unsupported signal format version {version}")
    if J > 30:
        raise FormatError(f"{path}: implausible J = {J}")
    _framed(path, dyadic_exponent, 2**J)
    want = 8 * 2**J
    st = os.fstat(f.fileno())
    got = st.st_size - _HEADER.size
    # a file of the wrong size is refused before its array is allocated; a
    # pipe has no size and is measured by reading it
    if got == want or not stat.S_ISREG(st.st_mode):
        x = np.empty(2**J, dtype="<f8")
        got = f.readinto(x.data.cast("B")) + len(f.read())
    if got != want:
        raise FormatError(f"{path}: payload is {got} bytes, header promises {want}")
    return x.astype(np.float64, copy=False)  # a copy only on a big-endian machine


# ---------------------------------------------------------------------------
# CSV tables

def write_columns(path: str, header: str, *cols) -> None:
    """Comment-headed CSV with one row per grid point; header is "a,b,...".

    Columns of unequal length raise ValueError before the file is opened.
    Every cell goes through one ``%.12g`` template.  A non-finite value is
    written as ``nan`` and every ``nan`` is then erased, leaving its cell
    empty; no number's text contains that string.
    """
    table = np.stack([np.asarray(c, dtype=np.float64) for c in cols], axis=1)
    table = np.where(np.isfinite(table), table + 0.0, np.nan)  # + 0.0 turns -0.0 into 0.0
    row = ",".join(["%.12g"] * table.shape[1]) + "\n"
    body = (row * table.shape[0]) % tuple(table.ravel().tolist())
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"# {header}\n" + body.replace("nan", ""))


def read_spectrum_csv(path: str) -> SpectrumCurve:
    """Two-column h,d CSV; h must be finite, positive and strictly
    increasing, an empty d cell reads as absent (NaN), and at least one d
    must be present.  The grid and presence rules are the curve's own,
    framed with the path."""
    hs, ds = [], []
    for ln, line in _records(_read_text(path)):
        cells = [c.strip() for c in line.split(",")]
        if len(cells) != 2:
            raise FormatError(f"{path}:{ln}: expected 2 comma-separated fields, got {len(cells)}")
        h = _parse_cell(cells[0], path, ln)
        if not math.isfinite(h):
            raise FormatError(f"{path}:{ln}: h cell must be a finite number")
        hs.append(h)
        ds.append(_parse_cell(cells[1], path, ln))
    if not hs:
        raise FormatError(f"{path}: no data rows")
    return _framed(path, curve_from_samples, hs, ds)


# ---------------------------------------------------------------------------
# estimation bundle

def write_lambda_csv(path: str, raw, closed) -> None:
    write_columns(path, "alpha,lambda,closed_lambda,residual",
                  raw.alpha_grid, raw.values, closed.values, raw.residuals)


def write_tau_csv(path: str, tau) -> None:
    write_columns(path, "q,tau,residual", tau.q_grid, tau.values, tau.residuals)


def write_estimate_csv(path: str, spectrum) -> None:
    write_columns(path, "h,d2,d1", spectrum.h_grid, spectrum.d2, spectrum.d1)


def write_key_values(path: str, items) -> None:
    """key=value lines; floats get 12 significant digits, rest str()."""
    lines = [f"{key}={value:.12g}" if isinstance(value, float) else f"{key}={value}"
             for key, value in items]
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# configs

KERNELS = {
    "gaussian": GaussianKernel,
    "gamma": ShiftedGammaKernel,
    "poisson": ShiftedPoissonKernel,
    "dirac": DiracKernel,
}


def build_kernel(name: str, params: dict):
    """Instantiate a kernel from its variant name and parameter dict
    (numbers or number strings); any mismatch raises ConfigError."""
    if name not in KERNELS:
        known = ", ".join(sorted(KERNELS))
        raise ConfigError(f"unknown kernel variant {name!r} (known: {known})")
    needed = tuple(f.name for f in fields(KERNELS[name]))
    missing = [p for p in needed if p not in params]
    if missing:
        raise ConfigError(f"kernel {name} is missing parameters: {', '.join(missing)}")
    extra = [p for p in params if p not in needed]
    if extra:
        raise ConfigError(f"kernel {name} does not take: {', '.join(extra)}")
    raw = dict(params)   # _take pops
    try:
        return KERNELS[name](**{p: _take(raw, p) for p in needed})
    except ConfigError as exc:
        raise ConfigError(f"kernel {name}: {exc}") from None


def parse_key_values(text: str, path: str = "<config>") -> dict:
    out = {}
    for ln, line in _records(text):
        key, sep, value = line.partition("=")
        key = key.strip()
        if not sep or not key:
            raise ConfigError(f"{path}:{ln}: expected key=value, got {line!r}")
        if key in out:
            raise ConfigError(f"{path}:{ln}: duplicate key {key!r}")
        out[key] = value.strip()
    return out


def _take(raw: dict, key: str, kind=float, default=None):
    """Pop raw[key] parsed as kind (float, int or str), or default; else ConfigError."""
    if key not in raw:
        if default is None:
            raise ConfigError(f"missing required key {key!r}")
        return default
    value = raw.pop(key)
    try:
        return kind(value)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise ConfigError(f"{key} must be {what}, got {value!r}") from None


def load_synthesis_config(path: str):
    """(SynthesisConfig, resolved) of a synth config file, where resolved
    lists the (key, value) pairs in effect, in order, for the manifest.  The
    source and the config check themselves when made; their ConfigError or
    MathValidityError (a kernel's validity) starts with the path."""
    raw = parse_key_values(_read_text(path), path)
    try:
        mode = _take(raw, "mode", str)
        J = _take(raw, "J", int)
        seed = _take(raw, "seed", int, default=SynthesisConfig.seed)
        filt = parse_wavelet_name(raw.pop("wavelet", f"db{SynthesisConfig.wavelet_order}"))
        resolved = [("mode", mode), ("J", J), ("seed", seed), ("wavelet", filt.name)]
        if mode == "spectrum":
            rel = _take(raw, "spectrum_file", str)
            spath = os.path.normpath(os.path.join(os.path.dirname(os.path.abspath(path)), rel))
            source = read_spectrum_csv(spath)
            resolved.append(("spectrum_file", rel))
        elif mode == "kernel":
            name = _take(raw, "kernel", str)
            source = build_kernel(name, raw)   # every key left is a kernel parameter
            raw.clear()
            resolved += [("kernel", name)] + sorted(asdict(source).items())
        elif mode == "flat":
            source = FlatLaw(_take(raw, "alpha0"))
            resolved.append(("alpha0", source.alpha0))
        else:
            raise ConfigError(f"unknown mode {mode!r} (known: spectrum, kernel, flat)")
        if raw:
            raise ConfigError(f"unknown config keys: {', '.join(sorted(raw))}")
        cfg = SynthesisConfig(J=J, source=source, wavelet_order=filt.order, seed=seed)
    except (ConfigError, MathValidityError) as exc:
        raise type(exc)(f"{path}: {exc}") from None
    return cfg, resolved
