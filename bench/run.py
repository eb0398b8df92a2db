"""Benchmark of qgame's three user jobs, timed end to end and layer by layer.

Workloads (defined in workloads.py):

  phase-diagram  the default 21x32 Bayesian sweep written as JSON, then classify
  fine-row       one gamma row of the 1824-strategy Bayesian phase diagram
  certify        verify on a sampled result file, then full-circuit solves

Run from the repository root:

  python3 bench/run.py --workload fine-row --seed 3 --seconds 32 --trace 0
  python3 bench/run.py --workload all --seed 3 --seconds 32 --trace 0
  python3 bench/run.py --compare-traces bench/out/A-trace.json bench/out/B-trace.json

Every run starts fresh interpreters with ``src`` on the path and one BLAS
thread.  With ``--trace 0`` it times set-up (import and input generation)
in several interpreters, before and after the one that measures; that
one discards a warm-up iteration and repeats the workload as often as
fits in ``--seconds`` (at least once), checking every output against
the results in ``bench/ref``.  A fixed calibration kernel runs after each
set-up and iteration, and the end-to-end times are scaled by it to the
reference host's speed, because a shared host's speed alternates
between levels with the load of other tenants (see README.md).  With
``--trace 1`` the interpreter alternates plain and traced iterations
and reports per-layer metrics.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics; a full
record of the run, with its environment, is written to ``bench/out``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

import reference
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_SAMPLES_EACH_SIDE = 3  # set-up-only interpreters before and after the measured one
RUN_LIMIT_S = 170.0
CLOCK = time.CLOCK_MONOTONIC  # one clock for every process on the machine
# Seconds a calibration pass took on the reference host (2-core VM,
# Python 3.11, numpy 2.4.6, OpenBLAS) in its faster state.
CALIBRATION_REFERENCE_S = 0.022
CALIBRATION_SHARE = 0.1  # calibration seconds after an iteration, per second of it
SETUP_CALIBRATION_S = 0.2  # calibration seconds after a set-up-only interpreter's set-up


class BenchError(Exception):
    pass


# ---------------------------------------------------------------- child side


def _clock() -> float:
    return time.clock_gettime(CLOCK)


def _calibrate(budget_s: float) -> list[float]:
    """Seconds of each pass of a fixed kernel, run for about ``budget_s`` (at least one pass).

    The kernel stands for the machine's speed at the time: it does
    interpreter work, 4x4 matrix work and an 8 MB table, the three kinds
    of work the workloads are made of.  An untimed pass comes first.
    """
    import numpy as np

    small = np.arange(16.0).reshape(4, 4) / 16
    vector = np.linspace(0.0, 1.0, 1024)

    def kernel():
        total, seen = 0, {}
        for i in range(30_000):
            total += i * i % 7
            seen[i & 255] = (total, str(i))
        m = small
        for _ in range(300):
            m = np.kron(m[:2, :2], m[2:, 2:]) @ small
            m = m / (np.abs(m).max() + 1.0)
        for _ in range(3):
            np.multiply.outer(vector, vector).sum()

    kernel()
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < budget_s:
        pass_start = time.perf_counter()
        kernel()
        passes.append(time.perf_counter() - pass_start)
    return passes


def _iteration(wl, ops: list[int]) -> float:
    """Run and check one iteration; add its (attempted, failed) operations to ``ops``."""
    gc.collect()  # garbage of the previous iteration is not this one's cost
    start = time.perf_counter()
    try:
        wl.run()
    except Exception:  # the failure is counted by wl.check()
        traceback.print_exc()
    seconds = time.perf_counter() - start
    attempted, failed = wl.check()
    ops[0] += attempted
    ops[1] += failed
    return seconds


def _blas_threads():
    """Threads of the OpenBLAS library numpy loaded, asked of the library itself."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _child_environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
    }


def _another_fits(start: float, done: int, seconds: float) -> bool:
    """Whether one more iteration, at the mean pace so far, should end within ``seconds``."""
    return (time.perf_counter() - start) * (done + 1) / done <= seconds


def _peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _measure(wl, seconds: float) -> dict:
    """Time iterations, each followed by calibration passes for a share of its time."""
    ops = [0, 0]
    first_run_s = _iteration(wl, ops)
    peak_rss_mb = _peak_rss_mb()  # the workload's own: the calibrations come after
    first_calibration = _calibrate(CALIBRATION_SHARE * first_run_s)
    samples, calibrations = [], list(first_calibration)
    start = time.perf_counter()
    while not samples or _another_fits(start, len(samples), seconds):
        samples.append(_iteration(wl, ops))
        calibrations += _calibrate(CALIBRATION_SHARE * samples[-1])
    return {"samples": samples, "calibrations": calibrations, "first_run_s": first_run_s,
            "setup_calibration_s": statistics.fmean(first_calibration),
            "peak_rss_mb": peak_rss_mb, "attempted": ops[0], "failed": ops[1]}


def _measure_traced(wl, seconds: float, spans_path: str) -> dict:
    import tracing

    tracer = tracing.Tracer()
    ops = [0, 0]
    _iteration(wl, ops)
    plain, traced, per_iteration = [], [], []
    start = time.perf_counter()
    while len(traced) < 2 or _another_fits(start, len(traced), seconds):
        plain.append(_iteration(wl, ops))
        tracer.start_iteration(len(traced))
        tracer.install()
        try:
            traced.append(_iteration(wl, ops))
        finally:
            tracer.uninstall()
        per_iteration.append(tracing.layer_metrics(tracer.spans))
    tracer.write_spans(spans_path)

    layers = {
        name: (statistics.median_low if name in tracing.COUNTS else statistics.median)(
            [m[name] for m in per_iteration]
        )
        for name in tracing.LAYER_UNITS
    }
    layers["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    layers["sweep.jobs2_speedup"] = 0.0
    if hasattr(wl, "time_sweep"):
        one, two = [], []
        for _ in range(2):
            for jobs, times in ((1, one), (2, two)):
                seconds_taken, bad = wl.time_sweep(jobs)
                times.append(seconds_taken)
                ops[0] += wl.cells
                ops[1] += bad
        layers["sweep.jobs2_speedup"] = statistics.median(one) / statistics.median(two)
    return {
        "layers": layers,
        "per_iteration": per_iteration,
        "unstable_counts": tracing.unstable_counts(per_iteration),
        "unpatched": tracer.missing,
        "plain_s": plain,
        "traced_s": traced,
        "attempted": ops[0],
        "failed": ops[1],
    }


def child(args) -> int:
    sys.path.insert(0, SRC)
    import qgame

    if not os.path.abspath(qgame.__file__).startswith(SRC + os.sep):
        print(f"error: imported qgame from {qgame.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    print(f"READY {_clock()!r}", flush=True)
    if args.setup_only:
        passes = _calibrate(SETUP_CALIBRATION_S)
        print(json.dumps({"calibration_s": statistics.fmean(passes)}), flush=True)
        return 0
    wl.load_expected()
    if args.trace:
        spans = os.path.join(OUT, f"{args.workload}-seed{args.seed}-spans.jsonl.gz")
        result = _measure_traced(wl, args.seconds, spans)
        result["spans_file"] = os.path.relpath(spans, ROOT)
    else:
        result = _measure(wl, args.seconds)
    result.setdefault("peak_rss_mb", _peak_rss_mb())
    result.update(
        cells=wl.cells,
        profiles=wl.profiles,
        inputs=wl.inputs,
        environment=_child_environment(),
    )
    print(json.dumps(result), flush=True)
    return 0


# --------------------------------------------------------------- parent side


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("QGAME_THREADS", None)
    env["PYTHONPATH"] = SRC
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _run_child(workload, seed, seconds, trace, workdir, deadline, setup_only=False):
    """Run one fresh interpreter; return its set-up seconds and its result."""
    argv = [sys.executable, os.path.abspath(__file__), "--child",
            "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--workdir", workdir]
    if setup_only:
        argv.append("--setup-only")
    started = _clock()
    with subprocess.Popen(argv, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE, text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except BaseException as exc:
            proc.kill()
            proc.wait()
            if isinstance(exc, subprocess.TimeoutExpired):
                raise BenchError(f"{workload} did not finish within {RUN_LIMIT_S:.0f} s") from None
            raise
    if proc.returncode != 0:
        raise BenchError(f"{workload} exited with code {proc.returncode}")
    lines = out.splitlines()
    ready = [float(line.split()[1]) for line in lines if line.startswith("READY ")]
    if not ready:
        raise BenchError(f"{workload} printed no READY line")
    return ready[0] - started, json.loads(lines[-1])


def _git_commit():
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def _source_digest() -> str:
    digest = hashlib.sha256()
    package = os.path.join(SRC, "qgame")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()[:16]


def _tail(samples: list[float]):
    """The highest nearest-rank percentile with at least ten samples beyond it."""
    n = len(samples)
    if n < 11:
        return None
    rank = n - 10
    return {"percentile": 100.0 * rank / n, "value": sorted(samples)[rank - 1]}


def _scaled(seconds: float, calibration_s: float) -> float:
    """``seconds`` as the reference host would take them, given a calibration at the time."""
    return seconds * CALIBRATION_REFERENCE_S / calibration_s


def _bench_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_workload(workload: str, seed: int, seconds: float, trace: int, problems: list) -> dict:
    os.makedirs(OUT, exist_ok=True)
    deadline = time.monotonic() + RUN_LIMIT_S
    load_start = os.getloadavg()
    workdir = tempfile.mkdtemp(dir=OUT)
    try:
        def setup_only() -> list[tuple[float, float]]:
            runs = (_run_child(workload, seed, seconds, trace, workdir, deadline, True)
                    for _ in range(0 if trace else SETUP_SAMPLES_EACH_SIDE))
            return [(setup_s, child["calibration_s"]) for setup_s, child in runs]

        setup = setup_only()
        setup_s, result = _run_child(workload, seed, seconds, trace, workdir, deadline)
        if not trace:
            setup += [(setup_s, result["setup_calibration_s"])] + setup_only()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if trace:
        import tracing

        n = len(result["traced_s"])
        metrics = {name: (value, tracing.UNITS[name], n) for name, value in result["layers"].items()}
        if result["unstable_counts"]:
            problems.append(f"{workload}: counts differ between traced iterations: "
                            f"{result['unstable_counts']}")
    else:
        # The iterations at the run's mean calibration speed: unscaled, a
        # run's time follows how much of it the shared host spent in its
        # slow state, not the program.  The calibrations spread over the
        # run like the iterations, so means are the figures that match.
        calibration_s = statistics.fmean(result["calibrations"])
        samples = [_scaled(s, calibration_s) for s in result["samples"]]
        wall = statistics.fmean(samples)
        n = len(samples)
        metrics = {
            "wall_s": (wall, "s", n),
            "cells_per_s": (result["cells"] / wall, "1/s", n),
            "profiles_per_s": (result["profiles"] / wall, "1/s", n),
            "setup_s": (statistics.median(_scaled(s, c) for s, c in setup), "s", len(setup)),
            "peak_rss_mb": (result["peak_rss_mb"], "MB", 1),
        }
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "metrics": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in metrics.items()},
        "error_rate": result["failed"] / result["attempted"],
        "wall_s_tail": None if trace else _tail(samples),
        "wall_s_unscaled": None if trace else statistics.fmean(result["samples"]),
        "setup_s_unscaled": None if trace else statistics.median(s for s, _ in setup),
        "setup_samples_s": setup,
        "child": result,
        "environment": {
            **result.pop("environment"),
            "git_commit": _git_commit(),
            "source_digest": _source_digest(),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "nproc": os.cpu_count(),
            "cpu_affinity": sorted(os.sched_getaffinity(0)),
            "loadavg_start": load_start,
            "loadavg_end": os.getloadavg(),
        },
    }
    name = f"{workload}-seed{seed}" + ("-trace" if trace else "")
    with open(os.path.join(OUT, name + ".json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return record


def _print_report(record: dict) -> None:
    env = record["environment"]
    child_result = record["child"]
    print(f"== {record['workload']}  seed={record['seed']}  inputs={child_result['inputs']}  "
          f"commit={env['git_commit'] or 'n/a'}  source={env['source_digest']}")
    print(f"   python {env['python']}  numpy {env['numpy']}  {env['blas']} "
          f"threads={env['blas_threads']}  nproc={env['nproc']}  "
          f"load {env['loadavg_start'][0]:.2f} -> {env['loadavg_end'][0]:.2f}")
    for name, m in record["metrics"].items():
        print(f"   {name:38s} {m['value']:14.6g} {m['unit']:6s} n={m['samples']}")
    tail = record["wall_s_tail"]
    if not record["trace"]:
        print(f"   {'wall_s unscaled':38s} {record['wall_s_unscaled']:14.6g} s")
        print(f"   {'setup_s unscaled':38s} {record['setup_s_unscaled']:14.6g} s")
        print(f"   {'wall_s tail':38s} " + (
            f"p{tail['percentile']:.0f} = {tail['value']:.6g} s" if tail
            else "n/a: fewer than 11 samples"))
    print(f"   {'error_rate':38s} {record['error_rate']:14.6g} "
          f"({child_result['failed']} of {child_result['attempted']} operations)")
    if record["trace"]:
        print(f"   counts stable across {len(child_result['traced_s'])} traced iterations: "
              f"{not child_result['unstable_counts']}; spans in {child_result['spans_file']}")


def compare_traces(a_path: str, b_path: str) -> int:
    """Exit 0 when two traced-run records hold identical counts."""
    import tracing

    records = []
    for path in (a_path, b_path):
        with open(path, encoding="utf-8") as fh:
            records.append(json.load(fh)["metrics"])
    differ = [name for name in tracing.COUNTS
              if records[0][name]["value"] != records[1][name]["value"]]
    for name in differ:
        print(f"{name}: {records[0][name]['value']} != {records[1][name]['value']}")
    print("counts identical" if not differ else f"{len(differ)} counts differ")
    return 1 if differ else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    names = tuple(workloads.WORKLOADS)
    parser.add_argument("--workload", choices=names + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare-traces", nargs=2, metavar="RECORD")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return child(args)
    # Let a termination request unwind through the code that stops the child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.compare_traces:
        return compare_traces(*args.compare_traces)
    if args.workload is None:
        parser.error("--workload is required")
    if not os.path.isfile(os.path.join(SRC, "qgame", "__init__.py")):
        print(f"error: no qgame package under {SRC}", file=sys.stderr)
        return 2

    if not args.trace:
        # One CPU for the calibrations and the iterations they scale; every
        # child inherits it.  The traced run keeps all CPUs for --jobs 2.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    spec = _bench_spec()
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    problems = [f"self-check: {p}" for p in reference.self_check(reference.load_phase_diagram())]
    records = []
    try:
        for workload in names if args.workload == "all" else (args.workload,):
            records.append(run_workload(workload, args.seed, args.seconds, args.trace, problems))
            _print_report(records[-1])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    for problem in problems:
        print(f"problem: {problem}")

    attempted = sum(r["child"]["attempted"] for r in records)
    failed = sum(r["child"]["failed"] for r in records)
    metrics = {}
    for r in records:
        prefix = "" if len(records) == 1 else r["workload"] + "/"
        missing = [name for name in wanted if name not in r["metrics"]]
        if missing:
            print(f"error: {r['workload']} measured no {missing}", file=sys.stderr)
            return 3
        for name in wanted:
            m = r["metrics"][name]
            metrics[prefix + name] = {"value": m["value"], "unit": m["unit"]}
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
