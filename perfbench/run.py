"""End-to-end and per-layer benchmark of the linkvol command line.

Run from the root of a linkvol checkout:

    python3 perfbench/run.py --workload from-rep --seed 0 --seconds 55 \
        --trace 0

Load model: one closed-loop caller in this process. Each operation is one
in-process ``linkvol.cli.main([...])`` call with a ``--json`` report, its
stdout and stderr captured; the report is read back and checked, and an
operation that raises, exits non-zero or fails its check counts as failed.
BLAS is pinned to one thread before numpy is imported.

Workloads (see workloads.py):
  from-rep       from-rep on the three goldens, pinned and random colorings.
  solve-goldens  solve --seeds 64 on figure-eight, Whitehead and trefoil.
  solve-family   solve --seeds 32 on generated braid closures and T(2, n).
solve-family is not listed in BENCHMARK.json: on it the solver converges
on so few seeds that the classes found vary by about 15% between workload
seeds even over eight rounds, more than a bound can absorb.

A workload is a cycle of rounds, a round being one pass over its inputs.
A run passes once over the cycle to count classes, then repeats its first
``timed`` rounds (at least MIN_REPEATS times each) until ``--seconds``
have passed. Each operation's latency is the median of its repetitions.

Times are reported at a reference machine speed: every time is divided by
the run's slowdown, which a calibration kernel measures throughout the run
(see ``Calibration``). A shared virtual machine can change speed by up to
2x between runs (measured on a 2-vCPU x86_64 VM); the raw figures and the
slowdown are in the record.

With ``--trace 0`` the last stdout line reports the end-to-end metrics:
  setup_s             the median over SETUP_REPEATS fresh interpreters of
                      the time to import linkvol.cli, plus the median over
                      SETUP_REPEATS of input generation, file writes and
                      one warm-up operation per input.
  peak_rss_mb         peak resident set size of this process.
  from_rep_ops_per_s  operations per second at those latencies.
  from_rep_p50_ms,    percentiles of the latencies of the repeated rounds'
  from_rep_p99_ms     operations; the count is in the record line.
  solve_s_per_class   mean time of a repeated round divided by the mean
                      classes per round.
  solve_classes       distinct (vol, cs mod pi^2) classes per round,
                      averaged over the cycle.
Every workload reports every metric. On solve-* an operation of the
from_rep_* metrics is one solve call; on from-rep each golden's round
finds one class.

With ``--trace 1`` the run alternates an untraced and a traced pass of
round 0 and reports per-layer metrics per round (see ``layer_metrics``),
plus the tracing overhead (median traced pass against median untraced
pass). Counts come from the first traced pass and repeat exactly for a
fixed seed; times are medians over the passes.

The line before the last is a JSON record of the machine, environment and
sample counts. The exit code is 0 whenever a result is printed, and 2 when
the checkout has no ``src/linkvol`` to benchmark.
"""

import os

# before numpy is imported anywhere in this process
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import time  # noqa: E402

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5
MIN_REPEATS = 3
# The reference speed: the machine at which one calibration sample takes
# this many seconds. Times are reported at this speed (see Calibration).
CALIBRATION_S = 0.0040
CALIBRATE_EVERY_S = 0.5
# the modules this benchmark calls; the CLI imports the rest
LINKVOL_MODULES = ("cli", "numerics", "diagram", "_examples")


def import_linkvol(root):
    """Import linkvol from ``root/src``; None when the checkout has none."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "linkvol", "__init__.py")):
        return None
    sys.path.insert(0, src)
    lv = importlib.import_module("linkvol")
    if not os.path.realpath(lv.__file__).startswith(
            os.path.realpath(src) + os.sep):
        return None
    for name in LINKVOL_MODULES:
        importlib.import_module(f"linkvol.{name}")
    return lv


def fresh_import_s(src):
    """Median over SETUP_REPEATS fresh interpreters of the time to import
    linkvol.cli from ``src``."""
    code = ("import sys, time; t = time.perf_counter(); "
            "sys.path.insert(0, sys.argv[1]); import linkvol.cli; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, "-c", code, src], check=True,
                             capture_output=True, text=True, timeout=60)
        times.append(float(out.stdout))
    return statistics.median(times)


class Runner:
    """Runs operations through the CLI, checks them and keeps the tallies."""

    def __init__(self, lv, tracer):
        self.cli = lv.cli
        self.mod_pi2_equal = lv.numerics.mod_pi2_equal
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def run(self, op, report_path, traced=False):
        """Returns (latency in s, the complex(cs, vol) points reported)."""
        with contextlib.suppress(FileNotFoundError):
            os.remove(report_path)
        sink = io.StringIO()
        error = None
        with contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            if traced:
                self.tracer.open("cli")
            t0 = time.perf_counter()
            try:
                code = self.cli.main(op.argv)
            except SystemExit as exc:
                code = exc.code
            except Exception:  # noqa: BLE001 - an operation failure
                code = None
                error = traceback.format_exc(limit=-3)
            latency = time.perf_counter() - t0
            if traced:
                self.tracer.close()
        points = []
        if error is None and code != 0:
            tail = sink.getvalue().strip().splitlines()[-1:]
            error = f"exit code {code}: {' '.join(tail)}"
        if error is None:
            try:
                with open(report_path, encoding="utf-8") as fh:
                    report = json.load(fh)
                error, points = op.check(report)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                error = f"unreadable report: {exc!r}"
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(f"{op.key} {op.argv[0]}: {error}")
        return latency, points

    def run_round(self, ops, report_path, traced=False):
        """One pass over ``ops``: (round time in s, latencies, classes)."""
        latencies = []
        points = {}
        t0 = time.perf_counter()
        for op in ops:
            latency, found = self.run(op, report_path, traced)
            latencies.append(latency)
            points.setdefault(op.key, []).extend(found)
        elapsed = time.perf_counter() - t0
        classes = sum(workloads.count_classes(p, self.mod_pi2_equal)
                      for p in points.values())
        return elapsed, latencies, classes


def blas_threads():
    import numpy as np
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir,
                          "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(lv):
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = None
    return {"nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": blas,
            "blas_threads": blas_threads(),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "linkvol_use_jit": getattr(getattr(lv, "_kernels", None),
                                       "USE_JIT", None)}


class Calibration:
    """Machine speed, measured while the benchmark runs.

    A shared virtual machine's speed drifts by up to 2x over seconds to
    minutes, for reasons outside the process. ``sample`` times a fixed
    piece of work that does not use linkvol, so a change to the program
    cannot move it: dict stores, sorting, JSON, small Python objects, and
    numpy and LAPACK calls on small and medium arrays, the mix of work the
    program does.
    ``slowdown(t)`` is the median of the samples nearest to time t, over
    CALIBRATION_S; dividing a time measured at t by it gives the time at
    the reference speed.
    """

    NEAREST = 20

    def __init__(self):
        import numpy as np
        self.np = np
        rng = np.random.default_rng(12345)
        self.a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        self.x = rng.standard_normal(80) + 1j * rng.standard_normal(80)
        self.idx = rng.integers(0, 8, 80)
        self.big = rng.standard_normal(1500) + 1j * rng.standard_normal(1500)
        self.doc = {f"k{i}": [float(v) for v in rng.standard_normal(8)]
                    for i in range(100)}
        self.samples = []         # (time, seconds per sample)
        self.last = -math.inf

    def _once(self):
        np = self.np
        t0 = time.perf_counter()
        d = {}
        for i in range(1000):
            d[(i * 7919) % 4099, i & 7] = complex(i, -i) * 0.5
        sorted(d.items(), key=lambda kv: abs(kv[1]))
        json.loads(json.dumps(self.doc))
        [[complex(i, j) for j in range(4)] for i in range(270)]
        for _ in range(8):
            np.linalg.svd(self.a)
            out = np.zeros(8, dtype=complex)
            np.add.at(out, self.idx, np.log(1.0 - self.x))
            np.abs(np.log(1.0 - 0.3 * self.big)).sum()
        t1 = time.perf_counter()
        return (t0 + t1) / 2, t1 - t0

    def sample(self):
        """Takes two samples when CALIBRATE_EVERY_S have passed."""
        if time.perf_counter() - self.last >= CALIBRATE_EVERY_S:
            self.samples.extend(self._once() for _ in range(2))
            self.last = time.perf_counter()

    def slowdown(self, t=None):
        """Slowdown near time t (perf_counter), or over the whole run."""
        samples = self.samples
        if t is not None:
            samples = sorted(samples, key=lambda s: abs(s[0] - t))
            samples = samples[:self.NEAREST]
        return statistics.median(s[1] for s in samples) / CALIBRATION_S


def timed_run(wl, runner, speed, seconds):
    """Untraced closed loop. One pass over the whole cycle counts classes;
    after it, the first ``wl.timed`` rounds repeat, each at least
    MIN_REPEATS times and until ``seconds`` have passed. An operation's
    latency is the median of its repetitions at the reference speed.
    """
    import numpy as np
    runs = {}       # (round, index) -> (midpoint, latency in s) per run
    classes = []                  # classes found per round of the cycle
    t0 = time.perf_counter()
    deadline = t0 + seconds
    i = 0
    while (i < wl.cycle + (MIN_REPEATS - 1) * wl.timed
           or time.perf_counter() < deadline):
        speed.sample()
        r = i if i < wl.cycle else (i - wl.cycle) % wl.timed
        start = time.perf_counter()
        elapsed, latencies, found = runner.run_round(wl.rounds[r],
                                                     wl.report)
        if i < wl.cycle:
            classes.append(found)
        if r < wl.timed:
            for j, latency in enumerate(latencies):
                runs.setdefault((r, j), []).append(
                    (start + elapsed / 2, latency))
        i += 1
    speed.sample()
    raw_ms = np.array(sorted(statistics.median(lat for _t, lat in v)
                             for v in runs.values())) * 1e3
    slowdown = {t: speed.slowdown(t) for v in runs.values() for t, _ in v}
    lat_ms = np.array(sorted(
        statistics.median(lat / slowdown[t] for t, lat in v)
        for v in runs.values())) * 1e3
    round_s = lat_ms.sum() / 1e3 / wl.timed
    classes_per_round = sum(classes) / wl.cycle
    metrics = {
        "from_rep_ops_per_s": (len(lat_ms) / (lat_ms.sum() / 1e3), "1/s"),
        "from_rep_p50_ms": (float(np.percentile(lat_ms, 50)), "ms"),
        "from_rep_p99_ms": (float(np.percentile(lat_ms, 99)), "ms"),
        "solve_s_per_class": (round_s / max(classes_per_round, 1e-9), "s"),
        "solve_classes": (classes_per_round, "classes/round"),
    }
    samples = {"operations": len(lat_ms), "operations_run": runner.attempted,
               "rounds": i, "seconds": time.perf_counter() - t0,
               "classes_per_round": classes,
               "calibrations": len(speed.samples),
               "raw_p50_ms": float(np.percentile(raw_ms, 50)),
               "raw_ops_per_s": len(raw_ms) / (raw_ms.sum() / 1e3)}
    return metrics, samples


def traced_run(wl, runner, speed, seconds):
    """Alternates untraced and traced passes over round 0; every pass is
    taken at the reference speed, as in timed_run."""
    ops = wl.rounds[0]
    tracer = runner.tracer
    plain, traced, snapshots = [], [], []   # (midpoint, ...) per pass
    classes = 0
    deadline = time.perf_counter() + seconds

    def timed(traced_pass):
        speed.sample()
        start = time.perf_counter()
        elapsed, _lat, found = runner.run_round(ops, wl.report, traced_pass)
        return start + elapsed / 2, elapsed, found

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        while not snapshots or time.perf_counter() < deadline:
            plain.append(timed(False)[:2])
            del caught[:]
            tracer.reset()
            tracer.install()
            try:
                mid, elapsed, classes = timed(True)
            finally:
                tracer.restore()
            traced.append((mid, elapsed))
            tracer.count("numpy.runtime_warnings",
                         sum(issubclass(w.category, RuntimeWarning)
                             for w in caught))
            snapshots.append((mid, tracer.snapshot()))
    speed.sample()
    colorings = sum(op.argv[0] == "from-rep" for op in ops)
    scaled = [(snap, speed.slowdown(mid)) for mid, snap in snapshots]
    metrics = layer_metrics(scaled, classes, colorings)
    plain_s = statistics.median(e / speed.slowdown(t) for t, e in plain)
    traced_s = statistics.median(e / speed.slowdown(t) for t, e in traced)
    metrics["trace.overhead_pct"] = (100.0 * (traced_s / plain_s - 1), "%")
    first = snapshots[0][1]
    samples = {"passes": len(snapshots), "plain_round_s": plain_s,
               "traced_round_s": traced_s,
               "counts_repeat": all(s["calls"] == first["calls"]
                                    and s["counters"] == first["counters"]
                                    for _mid, s in snapshots),
               "absent": tracer.absent}
    return metrics, samples


def layer_metrics(scaled, classes, colorings):
    """Per-layer metrics per round from (snapshot, slowdown) per traced
    pass: counts from the first pass, times as the median over the passes
    at the reference speed."""
    first = scaled[0][0]

    def calls(name):
        return first["calls"].get(name, 0)

    def counter(name):
        return first["counters"].get(name, 0)

    def ms(name, kind="busy"):
        return 1e3 * statistics.median(s[kind].get(name, 0.0) / slowdown
                                       for s, slowdown in scaled)

    def ratio(num, den):
        return num / den if den else 0.0

    newton = calls("engine.newton_solve")
    converged = counter("newton.converged")
    out = {
        "kernels.eval_terms_jac.calls":
            (calls("_kernels.eval_terms_jac"), "count"),
        "kernels.eval_terms_jac.busy_ms":
            (ms("_kernels.eval_terms_jac"), "ms"),
        "kernels.eval_terms.calls": (calls("_kernels.eval_terms"), "count"),
        "kernels.eval_terms.busy_ms": (ms("_kernels.eval_terms"), "ms"),
        "kernels.dilog_many.busy_ms": (ms("_kernels.dilog_many"), "ms"),
        "engine.newton_solve.calls": (newton, "count"),
        "engine.newton_solve.converged": (converged, "count"),
    }
    for reason in ("line_search_stall", "iteration_limit",
                   "singular_jacobian", "degenerate_point", "other"):
        out[f"engine.newton_solve.failed.{reason}"] = (
            counter(f"newton.failed.{reason}"), "count")
    out.update({
        "engine.converged_ratio": (ratio(converged, newton), "ratio"),
        "engine.classes_per_converged": (ratio(classes, converged), "ratio"),
        "engine.jac_evals_per_seed":
            (ratio(calls("_kernels.eval_terms_jac"), newton), "ratio"),
        "engine.residual_evals_per_seed":
            (ratio(counter("newton.residual_evals"), newton), "ratio"),
        "engine.newton_solve.self_ms":
            (ms("engine.newton_solve", "self"), "ms"),
        "engine.multi_start.busy_s":
            (ms("engine.multi_start") / 1e3, "s"),
        "engine.solution_report.busy_ms":
            (ms("engine.solution_report"), "ms"),
        "engine.gluing_check.busy_ms": (ms("engine.gluing_check"), "ms"),
        "potential.W0.busy_ms": (ms("potential.W0"), "ms"),
        "potential.total_potential.busy_ms":
            (ms("potential.total_potential"), "ms"),
        "potential.is_nondegenerate.busy_ms":
            (ms("potential.is_nondegenerate"), "ms"),
        "potential.critical_residuals.busy_ms":
            (ms("potential.critical_residuals"), "ms"),
        "coloring.random_generic_coloring.busy_ms":
            (ms("coloring.random_generic_coloring"), "ms"),
        "coloring.propagate.calls": (calls("coloring.propagate"), "count"),
        "coloring.propagate_per_coloring":
            (ratio(calls("coloring.propagate"), colorings), "ratio"),
        "coloring.assemble_solution.busy_ms":
            (ms("coloring.assemble_solution"), "ms"),
        "representation.representation_from_json.busy_ms":
            (ms("representation.representation_from_json"), "ms"),
        "representation.longitude_eigenvalue.busy_ms":
            (ms("representation.longitude_eigenvalue"), "ms"),
        "representation.solve_uv.busy_ms":
            (ms("representation.solve_uv"), "ms"),
        "diagram.load_diagram.busy_ms": (ms("diagram.load_diagram"), "ms"),
        "cli.self_ms": (ms("cli", "self"), "ms"),
        "numpy.runtime_warnings":
            (counter("numpy.runtime_warnings"), "count"),
    })
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = os.getcwd()
    lv = import_linkvol(root)
    if lv is None:
        print(f"error: no linkvol package under {os.path.join(root, 'src')}"
              f"; run from the root of a linkvol checkout", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - T_START
    fresh_s = fresh_import_s(os.path.join(root, "src"))

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    make = workloads.WORKLOADS[args.workload]
    runner = Runner(lv, spans.Tracer())
    speed = Calibration()
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=root)
    try:
        with warnings.catch_warnings(record=True):
            warnings.simplefilter("always")
            setups = []
            speed.sample()
            setup_t = time.perf_counter()
            for k in range(SETUP_REPEATS):
                t0 = time.perf_counter()
                sub = os.path.join(workdir, str(k))
                os.mkdir(sub)
                wl = make(args.seed, sub, lv)
                for op in wl.warmup:
                    runner.run(op, wl.report)
                setups.append(time.perf_counter() - t0)
            setup_s = fresh_s + statistics.median(setups)
            setup_t = (setup_t + time.perf_counter()) / 2

            self_check = None
            if args.workload == "solve-family":
                self_check, op = workloads.generator_self_check(workdir, lv)
                if op is not None:
                    runner.run(op, os.path.join(workdir, "report.json"))

            if args.trace:
                metrics, samples = traced_run(wl, runner, speed, args.seconds)
            else:
                metrics, samples = timed_run(wl, runner, speed, args.seconds)
                metrics["setup_s"] = (setup_s / speed.slowdown(setup_t), "s")
                metrics["peak_rss_mb"] = (
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                    / 1024.0, "MB")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": environment(lv),
              "setup_repeats_s": setups, "fresh_import_s": fresh_s,
              "import_s": import_s,
              "slowdown": speed.slowdown(),
              "samples": samples, "self_check": self_check,
              "failures": runner.failures}
    print(json.dumps({"record": record}, default=str))
    result = {"correct": runner.failed == 0 and self_check is None,
              "attempted": runner.attempted, "failed": runner.failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
