"""Workload definitions, generated inputs and output checks.

The benchmark hands the program only what it generates here: config
files and the parabola spectrum CSV, written into a scratch directory of
the checkout, plus seeds on the command line.  Every item is one call of
the ``rws`` command-line entry point (or one synth+analyze pair), and
every item's outputs are checked against ``references.json``, which
holds one reference per (source, J, wavelet, seed) that a run can reach:

  * ``signal.rws`` must match the recorded sha256 -- synthesis output is
    required to stay byte-identical across optimisations;
  * ``manifest.txt``, ``meta.txt`` and the three analysis CSVs must parse
    with their expected headers, column counts and keys, ``tau.csv`` must
    hold a finite value, and ``q_c``, ``h_min``, ``h_max`` and tau on the
    whole q grid must match the recorded estimates within TOLERANCE.

An output with no reference is a failure, not a skipped check.  A run's
seed is taken modulo RECORDED_SEEDS, so every seed reaches recorded
signals; ``run.py --record-references`` rewrites the file.
"""

import hashlib
import json
import math
import os
from dataclasses import dataclass

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_FILE = os.path.join(HERE, "references.json")

WAVELET = "db10"   # synthesis wavelet of every workload (the CLI default)

# Config bodies of the five sources (J and seed are appended per use).
# poisson uses alpha0=0 so that some J=12 seeds hit the q_c fallback.
SOURCES = {
    "parabola": "mode=spectrum\nspectrum_file=parabola.csv\n",
    "gaussian": "mode=kernel\nkernel=gaussian\nm=1.0\nsigma=0.5\n",
    "gamma": "mode=kernel\nkernel=gamma\nalpha0=0.1\nnu=1.5\nbeta=4.0\n",
    "poisson": "mode=kernel\nkernel=poisson\nalpha0=0.0\nc=1.0\n",
    "flat": "mode=flat\nalpha0=0.7\n",
}

# Accuracy window of acceptance check a01 and the parabola target there.
ACC_WINDOW = (0.7, 1.4)

# An estimate passes if it differs from its reference by at most
# TOLERANCE * max(1, |reference|); a reference that is not finite must be
# matched exactly.
TOLERANCE = 1e-6


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    kind is "analyze" (items are ``rws analyze`` of signals synthesized
    during the round's set-up), "synth" (items are ``rws synth``) or
    "pair" (items are synth followed by analyze of the result).
    A round runs one item per source; round r uses seed
    ``seed % RECORDED_SEEDS + r % seed_cycle``.
    """

    name: str
    kind: str
    J: int
    smoke_J: int
    sources: tuple
    seed_cycle: int
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "analyze_large", "analyze", 22, 10, ("parabola", "gaussian"), 4,
            "J=22 rws analyze (db3); tau(q) fit is ~90% of the time, synthesis is set-up only; seeds mod 20, estimates checked",
        ),
        Workload(
            "synth_large", "synth", 22, 10, ("parabola", "gamma"), 4,
            "J=22 rws synth (db10); inverse DWT and exponent sampling, no estimation; seeds mod 20, digests checked",
        ),
        Workload(
            "ensemble_small", "pair", 12, 8, ("parabola", "gaussian", "gamma", "poisson", "flat"), 10,
            "J=12 synth+analyze seed sweep over five sources; fixed per-call costs dominate; seeds mod 20, outputs checked",
        ),
    )
}

RECORDED_SEEDS = 20


def reference_key(source, J, seed):
    return f"{source}/J{J}/{WAVELET}/seed{seed}"


def round_seed(workload, seed, r):
    return seed % RECORDED_SEEDS + r % workload.seed_cycle


def recorded_seeds(workload, smoke):
    """Seeds with references: all a run can reach, or those of a smoke run at seed 0."""
    return range(workload.seed_cycle if smoke else RECORDED_SEEDS + workload.seed_cycle - 1)


def load_references():
    if not os.path.isfile(REFERENCE_FILE):
        raise SystemExit(f"error: {REFERENCE_FILE} not found; record it with run.py --record-references")
    with open(REFERENCE_FILE, encoding="utf-8") as f:
        return json.load(f)


def write_inputs(work, J):
    """Write the parabola spectrum CSV and one config per source into work.

    The parabola is sampled on the grid of
    ``curve_from_function(lambda h: (h - 0.5) ** 2, 0.5, 1.5)`` and written
    with repr, so the CLI reads back exactly the library's curve.
    """
    lines = ["# h,d"]
    for h in np.linspace(0.5, 1.5, 201).tolist():
        lines.append(f"{h!r},{(h - 0.5) ** 2!r}")
    with open(os.path.join(work, "parabola.csv"), "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")
    configs = {}
    for name, body in SOURCES.items():
        path = os.path.join(work, f"{name}.cfg")
        with open(path, "w", encoding="utf-8") as f:
            f.write(f"{body}J={J}\nseed=0\nwavelet={WAVELET}\n")
        configs[name] = path
    return configs


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


class CheckError(Exception):
    """An output that is missing, malformed or differs from its reference."""


def _read_key_values(path, keys):
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except OSError as exc:
        raise CheckError(f"cannot read {os.path.basename(path)}: {exc}") from None
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition("=")
        if not sep:
            raise CheckError(f"{os.path.basename(path)}: not key=value: {line!r}")
        out[key] = value
    missing = [k for k in keys if k not in out]
    if missing:
        raise CheckError(f"{os.path.basename(path)}: missing keys {missing}")
    return out


def _read_csv(path, header):
    """Columns of a comment-headed CSV; empty cells read as NaN."""
    try:
        with open(path, encoding="utf-8") as f:
            lines = f.read().splitlines()
    except OSError as exc:
        raise CheckError(f"cannot read {os.path.basename(path)}: {exc}") from None
    name = os.path.basename(path)
    if not lines or lines[0] != "# " + ",".join(header):
        raise CheckError(f"{name}: header is not '# {','.join(header)}'")
    cols = [[] for _ in header]
    for ln, line in enumerate(lines[1:], 2):
        cells = line.split(",")
        if len(cells) != len(header):
            raise CheckError(f"{name}:{ln}: expected {len(header)} cells, got {len(cells)}")
        for col, cell in zip(cols, cells):
            try:
                col.append(float(cell) if cell else math.nan)
            except ValueError:
                raise CheckError(f"{name}:{ln}: not a number: {cell!r}") from None
    if not cols[0]:
        raise CheckError(f"{name}: no data rows")
    return cols


SYNTH_KEYS = ("command", "J", "seed", "wavelet", "input", "output", "samples", "duration_s")
META_KEYS = ("J", "wavelet", "scales", "q_c", "h_min", "h_max", "grid_step")
ESTIMATES = ("q_c", "h_min", "h_max")


def _reference(refs, kind, source, J, seed):
    key = reference_key(source, J, seed)
    want = refs[kind].get(key)
    if want is None:
        raise CheckError(f"no reference {kind} entry for {key}")
    return want


def check_synth(out_dir, source, J, seed, refs):
    """Check one synth output against its reference digest."""
    man = _read_key_values(os.path.join(out_dir, "manifest.txt"), SYNTH_KEYS)
    if (man["command"], man["J"], man["seed"]) != ("synth", str(J), str(seed)):
        raise CheckError(f"manifest.txt does not describe synth J={J} seed={seed}")
    sig = os.path.join(out_dir, "signal.rws")
    if not os.path.isfile(sig) or os.path.getsize(sig) != 16 + 8 * 2**J:
        raise CheckError(f"signal.rws is missing or not 2^{J} samples")
    want = _reference(refs, "digests", source, J, seed)
    got = sha256_file(sig)
    if got != want:
        raise CheckError(f"signal.rws sha256 {got[:16]}... != reference {want[:16]}...")


def read_analysis(out_dir, J):
    """Parse one analyze output; returns (estimates, (h, d2, d1) columns).

    estimates holds q_c, h_min and h_max of meta.txt and the q and tau
    columns of tau.csv.
    """
    meta = _read_key_values(os.path.join(out_dir, "meta.txt"), META_KEYS)
    if meta["J"] != str(J):
        raise CheckError(f"meta.txt has J={meta['J']}, expected {J}")
    est = {}
    for key in ESTIMATES + ("grid_step",):
        try:
            est[key] = float(meta[key])
        except ValueError:
            raise CheckError(f"meta.txt: {key} is not a number: {meta[key]!r}") from None
    del est["grid_step"]
    lam = _read_csv(os.path.join(out_dir, "lambda.csv"), ("alpha", "lambda", "closed_lambda", "residual"))
    est["q"], est["tau"], _ = _read_csv(os.path.join(out_dir, "tau.csv"), ("q", "tau", "residual"))
    if not any(math.isfinite(t) for t in est["tau"]):
        raise CheckError("tau.csv holds no finite tau")
    spec = _read_csv(os.path.join(out_dir, "spectrum.csv"), ("h", "d2", "d1"))
    if len(spec[0]) != len(lam[0]):
        raise CheckError("spectrum.csv and lambda.csv have different grids")
    return est, spec


def stored(x):
    """A value as references.json keeps it: 9 significant digits, or its
    repr ('nan', 'inf', '-inf') if it is not finite."""
    return float(f"{x:.9g}") if math.isfinite(x) else repr(x)


def _close(got, want):
    if isinstance(want, str):
        return repr(got) == want
    return math.isfinite(got) and abs(got - want) <= TOLERANCE * max(1.0, abs(want))


def check_analyze(out_dir, source, J, seed, refs):
    """Check one analyze output against its reference; returns the (h, d2, d1) columns."""
    est, spec = read_analysis(out_dir, J)
    want = _reference(refs, "analyses", source, J, seed)
    if len(est["q"]) != len(refs["q"]) or not all(map(_close, est["q"], refs["q"])):
        raise CheckError("tau.csv q grid differs from the reference grid")
    for key in ESTIMATES:
        if not _close(est[key], want[key]):
            raise CheckError(f"meta.txt {key}={est[key]!r}, reference {want[key]!r}")
    bad = [(q, t, w) for q, t, w in zip(est["q"], est["tau"], want["tau"]) if not _close(t, w)]
    if bad:
        q, t, w = bad[0]
        raise CheckError(f"tau differs from the reference at {len(bad)} q points, first q={q:g}: {t!r} vs {w!r}")
    return spec


def parabola_accuracy(spec):
    """d2_err, d2_cover and d1_hull_err of one parabola analysis.

    d2_err is the sup of |d2 - (h-1/2)^2| over the window points where d2
    is present (NaN if it is absent on the whole window), d2_cover the
    share of window points where it is present, d1_hull_err the sup of
    |d1 - (h-1/2)| (the concave hull of the target) over the window.
    """
    lo, hi = ACC_WINDOW
    d2_err, d1_err, present, total = -math.inf, -math.inf, 0, 0
    for h, d2, d1 in zip(*spec):
        if not lo - 1e-9 <= h <= hi + 1e-9:
            continue
        total += 1
        d1_err = max(d1_err, abs(d1 - (h - 0.5)))
        if not math.isnan(d2):
            present += 1
            d2_err = max(d2_err, abs(d2 - (h - 0.5) ** 2))
    return {
        "d2_err": d2_err if present else math.nan,
        "d2_cover": present / total if total else math.nan,
        "d1_hull_err": d1_err if total else math.nan,
    }
