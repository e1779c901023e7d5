"""Benchmark of the ``rws`` command line, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --record-references

One process, one core: the workload's items call ``rws.cli.main`` in
process (closed loop, one item at a time) on inputs generated from
``--seed``, one round (one item per source) after another, until
``--seconds`` have passed.  After each item its outputs are checked
against recorded references (see workloads.py); a nonzero exit, an
exception, a digest or estimate mismatch, a missing reference or a
parse failure counts as a failed item.

The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the end-to-end ones, measured untraced:

  item_s.p50      median seconds per item (one CLI command; one
                  synth+analyze pair in ensemble_small)
  msamples_per_s  signal samples (2^J per item) per second of item time
  peak_rss_mb     peak resident set of this process (fresh per run)
  setup_s         median import time of rws.cli in fresh interpreters
                  + input generation + median round set-up
                  (analyze_large synthesizes its signals there)

With ``--trace 1`` every round runs its items untraced and traced (order
alternating), and the metrics are the per-layer ones of tracing.py,
as means per traced item; ``trace.overhead_s`` is the traced minus the
untraced mean item time.  The line before the result is a report with
everything else: p90 (where at least 10 samples lie beyond it), failure
share, number of reference checks, accuracy of the parabola analyses,
q_c fallbacks, set-up breakdown, machine and environment.

``--all`` runs every workload in a fresh process and prints each metric
by name with its unit.  ``--record-references`` reruns every synth and
analyze a run can reach (and those of the smoke test) and rewrites
references.json with their digests and estimates.
"""

import argparse
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from contextlib import redirect_stderr, redirect_stdout

import tracing
import workloads as wk

ROOT = os.path.dirname(wk.HERE)
WORK_DIR = os.path.join(ROOT, ".perfbench_work")

END_TO_END = {
    "item_s.p50": "s",
    "msamples_per_s": "Msample/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# per-layer metric -> unit; times and counts are means per traced item,
# and they read 0 on a workload whose items never enter that stage
PER_LAYER = {
    "cli.self_s": "s",
    "fileio.self_s": "s",
    "synthesis.self_s": "s",
    "spectra.self_s": "s",
    "wavelet.self_s": "s",
    "estimation.self_s": "s",
    "estimation.tau_s": "s",
    "estimation.tau_ns_per_qcoef": "ns",
    "estimation.alpha_field_s": "s",
    "estimation.lambda_s": "s",
    "estimation.q_c_s": "s",
    "estimation.legendre_s": "s",
    "estimation.closure_s": "s",
    "estimation.lambda_fit_ratio": "ratio",
    "estimation.q_c_fallbacks": "count",
    "wavelet.forward_s": "s",
    "wavelet.forward_macs": "MAC",
    "wavelet.inverse_s": "s",
    "wavelet.inverse_macs": "MAC",
    "synthesis.sample_s": "s",
    "synthesis.uniform_s": "s",
    "synthesis.generate_s": "s",
    "synthesis.coeffs": "count",
    "synthesis.nonzero_ratio": "ratio",
    "synthesis.law_s": "s",
    "synthesis.validate_s": "s",
    "spectra.admissible_s": "s",
    "spectra.admissible_calls": "count",
    "spectra.rho_map_s": "s",
    "spectra.rho_map_calls": "count",
    "fileio.csv_write_s": "s",
    "fileio.csv_rows": "count",
    "fileio.manifest_s": "s",
    "fileio.load_config_s": "s",
    "fileio.write_signal_s": "s",
    "fileio.read_signal_s": "s",
    "fileio.bytes_written": "B",
    "trace.item_s": "s",
    "trace.overhead_s": "s",
}

FALLBACK_WARNING = "no sign change"

SRC = os.path.join(ROOT, "src")

# Start-up cost a user of the CLI pays: numpy, scipy and rws imported into
# a fresh interpreter (this process has imported numpy before rws).
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
                "import rws.cli; print(time.perf_counter() - t)")


def load_rws():
    """Import rws.cli from the checkout's src/."""
    if not os.path.isfile(os.path.join(SRC, "rws", "cli.py")):
        raise SystemExit(f"error: {SRC}/rws/cli.py not found; run from a checkout of the repository")
    sys.path.insert(0, SRC)
    import rws.cli

    if not os.path.abspath(rws.cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: imported rws from {rws.cli.__file__}, not from {SRC}")
    return rws.cli


def import_seconds(probes):
    """Median seconds of `import rws.cli` over fresh interpreters."""
    times = []
    for _ in range(probes):
        p = subprocess.run([sys.executable, "-c", IMPORT_PROBE, SRC], capture_output=True,
                           text=True, timeout=120, check=True)
        times.append(float(p.stdout))
    return statistics.median(times)


def _remove_work(work):
    shutil.rmtree(work, ignore_errors=True)
    try:
        os.rmdir(WORK_DIR)
    except OSError:  # another run still uses it
        pass


def call_cli(main, argv):
    """One CLI command: (seconds, exit code or exception text, stderr, warnings)."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("always")
        t0 = time.perf_counter()
        try:
            code = main(argv)
        except Exception as exc:  # an item that raises is a failed item, not an abort
            code = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
    return elapsed, code, err.getvalue().strip(), [str(w.message) for w in caught]


class Run:
    """State of one workload run: items, checks, traces."""

    def __init__(self, cli, workload, J, seed, trace):
        self.cli, self.wl, self.J, self.seed, self.trace = cli, workload, J, seed, trace
        self.refs = wk.load_references()
        self.tracer = tracing.Tracer() if trace else None
        self.times = {False: [], True: []}   # traced? -> item seconds
        self.attempted = self.failed = 0
        self.failures = []
        self.checked = {"digests": 0, "analyses": 0}
        self.fallbacks = {False: 0, True: 0}
        self.other_warnings = set()
        self.accuracy = {}                    # parabola seed -> accuracy dict

    def fail(self, what, detail):
        if len(self.failures) < 5:
            self.failures.append(f"{what}: {detail}")

    def command(self, argv, traced):
        main = self.cli.main
        if traced:
            main = self.tracer.wrap("cli.main", main)
            with self.tracer.installed():
                result = call_cli(main, argv)
        else:
            result = call_cli(main, argv)
        elapsed, code, err, caught = result
        for msg in caught:
            if FALLBACK_WARNING in msg:
                self.fallbacks[traced] += 1
            else:
                self.other_warnings.add(msg)
        if code != 0:
            raise wk.CheckError(f"{argv[0]} exited with {code!r} {err}")
        return elapsed

    def synth(self, src, seed, out, traced=False):
        shutil.rmtree(out, ignore_errors=True)
        argv = ["synth", self.configs[src], "--out", out, "--seed", str(seed)]
        elapsed = self.command(argv, traced)
        wk.check_synth(out, src, self.J, seed, self.refs)
        self.checked["digests"] += 1
        return elapsed

    def analyze(self, src, seed, signal, out, traced=False):
        shutil.rmtree(out, ignore_errors=True)
        elapsed = self.command(["analyze", signal, "--out", out], traced)
        spec = wk.check_analyze(out, src, self.J, seed, self.refs)
        self.checked["analyses"] += 1
        return elapsed, spec

    def prepare(self, r):
        """Round set-up: analyze_large synthesizes (and checks) its signals here."""
        seed = wk.round_seed(self.wl, self.seed, r)
        ready = {}
        for src in self.wl.sources:
            if self.wl.kind != "analyze":
                ready[src] = None
                continue
            sig_dir = os.path.join(self.work, "sig", src)
            try:
                self.synth(src, seed, sig_dir)
                ready[src] = None
            except wk.CheckError as exc:
                ready[src] = f"set-up synth failed: {exc}"
        return seed, ready

    def item(self, src, seed, setup_error, traced):
        """Run one item; returns its seconds (None if it failed)."""
        self.attempted += 1
        sig_dir = os.path.join(self.work, "sig", src)
        out = os.path.join(self.work, "out", src)
        try:
            if setup_error:
                raise wk.CheckError(setup_error)
            if self.wl.kind == "synth":
                elapsed = self.synth(src, seed, sig_dir, traced)
            elif self.wl.kind == "analyze":
                elapsed, spec = self.analyze(src, seed, os.path.join(sig_dir, "signal.rws"), out, traced)
                if src == "parabola" and not traced:
                    self.accuracy[seed] = wk.parabola_accuracy(spec)
            else:
                elapsed = self.synth(src, seed, sig_dir, traced)
                more, _ = self.analyze(src, seed, os.path.join(sig_dir, "signal.rws"), out, traced)
                elapsed += more
        except wk.CheckError as exc:
            self.failed += 1
            self.fail(f"{src} seed {seed}", exc)
            elapsed = None
        finally:
            if traced:
                self.tracer.end_item()
        if elapsed is not None:
            self.times[traced].append(elapsed)
        return elapsed

    def execute(self, seconds, import_probes):
        import_s = import_seconds(import_probes)
        t0 = time.perf_counter()
        self.work = os.path.join(WORK_DIR, f"{self.wl.name}-{os.getpid()}")
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        try:
            self.configs = wk.write_inputs(self.work, self.J)
            one_off_s = time.perf_counter() - t0
            round_setup = []
            start = time.perf_counter()
            rounds = 0
            while rounds == 0 or time.perf_counter() - start < seconds:
                rs = time.perf_counter()
                seed, ready = self.prepare(rounds)
                round_setup.append(time.perf_counter() - rs)
                modes = [False]
                if self.trace:
                    modes = [False, True] if rounds % 2 == 0 else [True, False]
                for traced in modes:
                    for src in self.wl.sources:
                        self.item(src, seed, ready[src], traced)
                rounds += 1
            measured_s = time.perf_counter() - start
        finally:
            _remove_work(self.work)
        self.setup = {
            "import_s": import_s,
            "inputs_s": one_off_s,
            "round_setup_s": statistics.median(round_setup),
            "rounds": rounds,
            "measured_s": measured_s,
        }

    # ------------------------------------------------------------------
    # results

    def end_to_end(self):
        t = self.times[False]
        if not t:
            return None
        s = self.setup
        return {
            "item_s.p50": statistics.median(t),
            "msamples_per_s": len(t) * 2**self.J / sum(t) / 1e6,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": s["import_s"] + s["inputs_s"] + s["round_setup_s"],
        }

    def per_layer(self):
        tr = self.tracer
        n = len(self.times[True])
        if n == 0 or len(self.times[False]) != n:
            return None
        span = lambda name: tr.self_s.get(name, 0.0) / n
        count = lambda name: tr.counts.get(name, 0) / n
        ratio = lambda a, b: a / b if b else 0.0
        m = {f"{layer}.self_s": tr.layer_self_s(layer) / n for layer in tracing.LAYERS}
        for stage in ("tau", "alpha_field", "lambda", "q_c", "legendre", "closure"):
            m[f"estimation.{stage}_s"] = span(f"estimation.{stage}")
        m["estimation.tau_ns_per_qcoef"] = ratio(1e9 * tr.self_s.get("estimation.tau", 0.0),
                                                 tr.counts.get("tau_qcoef", 0))
        m["estimation.lambda_fit_ratio"] = ratio(tr.counts.get("lambda_finite", 0),
                                                 tr.counts.get("lambda_points", 0))
        m["estimation.q_c_fallbacks"] = self.fallbacks[True] / n
        for d in ("forward", "inverse"):
            m[f"wavelet.{d}_s"] = span(f"wavelet.{d}")
            m[f"wavelet.{d}_macs"] = count(f"{d}_macs")
        for stage in ("sample", "uniform", "generate", "law", "validate"):
            m[f"synthesis.{stage}_s"] = span(f"synthesis.{stage}")
        m["synthesis.coeffs"] = count("coeffs")
        m["synthesis.nonzero_ratio"] = ratio(tr.counts.get("nonzero", 0), tr.counts.get("coeffs", 0))
        for stage in ("admissible", "rho_map"):
            m[f"spectra.{stage}_s"] = span(f"spectra.{stage}")
            m[f"spectra.{stage}_calls"] = tr.calls.get(f"spectra.{stage}", 0) / n
        for stage in ("csv_write", "manifest", "load_config", "write_signal", "read_signal"):
            m[f"fileio.{stage}_s"] = span(f"fileio.{stage}")
        m["fileio.csv_rows"] = count("csv_rows")
        m["fileio.bytes_written"] = count("bytes_written")
        m["trace.item_s"] = statistics.fmean(self.times[False])
        m["trace.overhead_s"] = statistics.fmean(self.times[True]) - m["trace.item_s"]
        return m

    def report(self):
        """Everything besides the gated metrics; "metrics" holds the ones
        that are not gated (p90, failure share, accuracy), with units."""
        t = sorted(self.times[False])
        k = math.ceil(0.9 * len(t))
        metrics = {
            "item_s.samples": (len(t), "count"),
            # only where at least 10 samples lie beyond it
            "item_s.p90": (t[k - 1] if t and len(t) - k >= 10 else None, "s"),
            "fail_frac": (self.failed / self.attempted if self.attempted else None, "ratio"),
        }
        rep = {
            "workload": self.wl.name,
            "why": self.wl.why,
            "J": self.J,
            "seed": self.seed,
            "trace": self.trace,
            "metrics": metrics,
            "failures": self.failures,
            "reference_checks": self.checked,
            "q_c_fallbacks": self.fallbacks[False],
            "other_warnings": sorted(self.other_warnings),
            "setup": self.setup,
        }
        if self.accuracy:
            # worst case over the parabola seeds this run analyzed
            seeds = sorted(self.accuracy)
            per = [self.accuracy[s] for s in seeds]
            worst = lambda key, f: f((a[key] for a in per if not math.isnan(a[key])), default=None)
            metrics["d2_err"] = (worst("d2_err", max), "1")
            metrics["d2_cover"] = (worst("d2_cover", min), "ratio")
            metrics["d1_hull_err"] = (worst("d1_hull_err", max), "1")
            rep["accuracy"] = {"window": list(wk.ACC_WINDOW), "seeds": seeds, "per_seed": per}
        rep["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        return rep


def _finite(obj):
    """NaN -> None so the report stays valid JSON."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    if isinstance(obj, dict):
        return {k: _finite(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite(v) for v in obj]
    return obj


def _read_first_line(path):
    try:
        with open(path, encoding="utf-8") as f:
            return f.readline().strip()
    except OSError:
        return None


def environment():
    import numpy
    import scipy

    env = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": platform.processor() or None,
        "ram_mb": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // 2**20,
        "caches": {},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    env["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        d = os.path.join(base, index)
        level, kind, size = (_read_first_line(os.path.join(d, f)) for f in ("level", "type", "size"))
        if level and size:
            env["caches"][f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    env["git_commit"] = env["git_dirty"] = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        def git(*args):
            p = subprocess.run(["git", "-C", ROOT, *args], capture_output=True, text=True, timeout=30)
            return p.stdout.strip() if p.returncode == 0 else None

        env["git_commit"] = git("rev-parse", "HEAD")
        status = git("status", "--porcelain", "--untracked-files=no")
        env["git_dirty"] = None if status is None else bool(status)
    return env


def run_workload(cli, name, seed, seconds, trace, smoke=False):
    """Run one workload; returns (result line dict, report dict)."""
    wl = wk.WORKLOADS[name]
    run = Run(cli, wl, wl.smoke_J if smoke else wl.J, seed, trace)
    run.execute(seconds, 1 if smoke else 5)
    metrics, units = (run.per_layer(), PER_LAYER) if trace else (run.end_to_end(), END_TO_END)
    report = run.report()
    report["environment"] = environment()
    result = {
        "correct": run.failed == 0 and metrics is not None,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units} if metrics else {},
    }
    return result, _finite(report)


def _dump_references(doc):
    """references.json with one entry per line."""
    parts = []
    for key, value in doc.items():
        if isinstance(value, dict):
            body = ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in value.items())
            parts.append(f"{json.dumps(key)}: {{\n{body}\n}}")
        else:
            parts.append(f"{json.dumps(key)}: {json.dumps(value)}")
    return "{\n" + ",\n".join(parts) + "\n}\n"


def record_references():
    """Rerun every synth and analyze a run can reach; rewrite references.json."""
    cli = load_rws()
    digests, analyses, q_grid = {}, {}, None
    work = os.path.join(WORK_DIR, f"record-{os.getpid()}")
    sig, out = os.path.join(work, "sig"), os.path.join(work, "out")
    os.makedirs(work, exist_ok=True)

    def run_cli(argv):
        _, code, err, _ = call_cli(cli.main, argv)
        if code != 0:
            raise SystemExit(f"error: {' '.join(argv)} exited with {code!r} {err}")

    try:
        for wl in wk.WORKLOADS.values():
            for J, smoke in ((wl.smoke_J, True), (wl.J, False)):
                configs = wk.write_inputs(work, J)
                for seed in wk.recorded_seeds(wl, smoke):
                    for src in wl.sources:
                        key = wk.reference_key(src, J, seed)
                        if key not in digests or (wl.kind != "synth" and key not in analyses):
                            run_cli(["synth", configs[src], "--out", sig, "--seed", str(seed)])
                            digests[key] = wk.sha256_file(os.path.join(sig, "signal.rws"))
                        if wl.kind != "synth" and key not in analyses:
                            run_cli(["analyze", os.path.join(sig, "signal.rws"), "--out", out])
                            est, _ = wk.read_analysis(out, J)
                            if q_grid is None:
                                q_grid = est["q"]
                            elif est["q"] != q_grid:
                                raise SystemExit(f"error: {key}: tau.csv has another q grid")
                            analyses[key] = {k: wk.stored(est[k]) for k in wk.ESTIMATES}
                            analyses[key]["tau"] = [wk.stored(t) for t in est["tau"]]
                print(f"{wl.name} J={J}: {len(digests)} digests, {len(analyses)} analyses",
                      file=sys.stderr, flush=True)
    finally:
        _remove_work(work)
    doc = {
        "what": "sha256 of signal.rws written by `rws synth` and the estimates of `rws analyze` "
                "of that signal (meta.txt q_c, h_min, h_max; tau.csv tau on the q grid), "
                "keyed source/J/synthesis wavelet/seed",
        "q": q_grid,
        "digests": dict(sorted(digests.items())),
        "analyses": dict(sorted(analyses.items())),
    }
    with open(wk.REFERENCE_FILE, "w", encoding="utf-8") as f:
        f.write(_dump_references(doc))


def run_all(seed, seconds, trace):
    """Every workload in a fresh process; prints each metric with its unit."""
    ok = True
    for name in wk.WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(trace)]
        p = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        lines = p.stdout.strip().splitlines()
        if p.returncode != 0 or len(lines) < 2:
            print(f"{name}: failed (exit {p.returncode})\n{p.stderr}")
            ok = False
            continue
        report, result = json.loads(lines[-2])["report"], json.loads(lines[-1])
        ok = ok and result["correct"]
        print(f"== {name} (J={report['J']}, seed {seed}, "
              f"correct={result['correct']}, failed {result['failed']}/{result['attempted']})")
        for key, m in result["metrics"].items():
            print(f"  {key:30s} {m['value']:.6g} {m['unit']}")
        for key, m in report["metrics"].items():
            text = "n/a" if m["value"] is None else f"{m['value']:.6g}"
            print(f"  {key:30s} {text} {m['unit']}")
    return 0 if ok else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(wk.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true", help="run every workload, print a table")
    ap.add_argument("--record-references", action="store_true", help="rewrite references.json")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if args.record_references:
        record_references()
        return 0
    if args.all:
        return run_all(args.seed, args.seconds, args.trace)
    if args.workload is None:
        ap.error("--workload is required")
    result, report = run_workload(load_rws(), args.workload, args.seed, args.seconds,
                                  bool(args.trace))
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
