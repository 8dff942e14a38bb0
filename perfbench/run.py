"""mdnn benchmark: one workload, one process, one caller, one BLAS thread.

    python3 perfbench/run.py --workload predict --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; it imports mdnn from ``src/`` there and
nowhere else, and exits with code 2 without a result if that is missing.

``--trace 0`` sets up ``SETUP_REPS`` times, each set-up followed by one
warm-up operation where the workload has one (``setup_s`` is the import time
plus their median), runs operations back to back for ``--seconds`` and
prints the ``end_to_end`` metrics of BENCHMARK.json.  After each operation,
untimed, it runs the reference kernel of ``pace.py``; ``op_p90_ms_norm`` is
the 90th-percentile operation latency scaled to the kernel's nominal speed.
``--trace 1`` spends the first half of ``--seconds`` untraced and the second
half traced, and prints the ``per_layer`` metrics, including the tracing
overhead between the two halves.  Every run prints its environment and its metrics by name
and unit on ``#`` lines and, as its last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Spans of a traced
run are written to ``.perfbench_out/``; inputs live in ``.perfbench_work/``
while the run lasts.
"""

from __future__ import annotations

import os
import time

T_START = time.perf_counter()
BLAS_THREADS = 1  # fixed, so that every commit runs with the same count
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import datetime  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import pace  # noqa: E402
import tracer as tracing  # noqa: E402
from report import LayerReport  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 3
# The highest percentile with >= 10 samples beyond it on every `predict` run of
# 30 s, which held 106 to 210 operations as the machine's speed drifted.
TAIL_PCT = 90


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_program():
    """Import mdnn from this checkout's src/ only; None if it cannot be."""
    src = ROOT / "src"
    if not (src / "mdnn" / "__init__.py").is_file():
        print(f"error: no mdnn package under {src}", file=sys.stderr)
        return None
    sys.path.insert(0, str(src))
    try:
        import mdnn
        import workloads
    except ImportError as e:
        print(f"error: cannot import mdnn: {e}", file=sys.stderr)
        return None
    if Path(mdnn.__file__).resolve().parent != (src / "mdnn").resolve():
        print(f"error: imported mdnn from {mdnn.__file__}, not {src}", file=sys.stderr)
        return None
    return workloads


def blas_info() -> dict:
    """BLAS name, version and thread count in effect, from NumPy and OpenBLAS."""
    info = {"name": "unknown", "version": "unknown", "threads": None,
            "threads_requested": BLAS_THREADS}
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        info.update(name=blas.get("name", "unknown"), version=blas.get("version", "unknown"))
    except (AttributeError, KeyError, TypeError):
        pass
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def environment(args, started) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "cpu_count": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "start_time": started,
    }


# ----- running operations ---------------------------------------------------------

class Phase:
    def __init__(self):
        self.latencies: list[float] = []
        # reference kernel seconds: refs[0] before the first operation,
        # refs[i + 1] just after operation i
        self.refs: list[float] = []
        self.work = 0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, error: str | None):
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(error)

    def p50_ms(self):
        return 1000.0 * statistics.median(self.latencies) if self.latencies else 0.0

    def tail_ms(self):
        return 1000.0 * float(np.percentile(self.latencies, TAIL_PCT)) if self.latencies else 0.0

    def norm_latencies(self) -> list[float]:
        """Each latency scaled by NOMINAL_MS over the mean of the reference
        kernel's times just before and just after it."""
        return [dt * (pace.NOMINAL_MS / 1000.0) / (0.5 * (a + b))
                for dt, a, b in zip(self.latencies, self.refs, self.refs[1:])]

    def p50_norm_ms(self):
        norm = self.norm_latencies()
        return 1000.0 * statistics.median(norm) if norm else 0.0

    def tail_norm_ms(self):
        norm = self.norm_latencies()
        return 1000.0 * float(np.percentile(norm, TAIL_PCT)) if norm else 0.0

    def throughput(self):
        total = sum(self.latencies)
        return self.work / total if total > 0 else 0.0


def attempt(wl, state, i, tracer=None):
    """One operation, then, untimed, the reference kernel and the operation's
    check; (seconds, reference kernel seconds, error or None)."""
    if tracer is not None:
        tracer.op = i
        tracer.active = True
    t0 = time.perf_counter()
    try:
        result, error = wl.op(state, i), None
    except Exception as e:  # an operation that raises is counted as failed
        result, error = None, f"{type(e).__name__}: {e}"
        traceback.print_exc(limit=3, file=sys.stderr)
    dt = time.perf_counter() - t0
    if tracer is not None:
        tracer.active = False
    ref = pace.reference_seconds()
    if error is None:
        error = wl.check(state, i, result)
    return dt, ref, error


def run_phase(wl, state, seconds, tracer=None) -> Phase:
    phase = Phase()
    pace.reference_seconds()  # warm
    phase.refs.append(pace.reference_seconds())
    t_end = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < t_end:
        dt, ref, error = attempt(wl, state, i, tracer)
        phase.latencies.append(dt)
        phase.refs.append(ref)
        phase.work += wl.work(state)
        phase.record(error)
        i += 1
    for error in wl.finish(state):
        phase.record(error)
    return phase


def set_up(wl, seed, workdir, phase) -> tuple:
    """SETUP_REPS fresh set-ups, each followed by the workload's warm-up
    operation, if it has one; (last state, median seconds of a set-up).  The
    warm-up's output check is not timed."""
    times = []
    state = None
    for r in range(SETUP_REPS):
        state = None
        gc.collect()
        t0 = time.perf_counter()
        state = wl.setup(seed, workdir / f"setup{r}")
        seconds = time.perf_counter() - t0
        if wl.warmup:
            dt, _, error = attempt(wl, state, -1)
            seconds += dt
            phase.record(error)
        times.append(seconds)
    return state, statistics.median(times)


# ----- main -------------------------------------------------------------------------

def emit(lines):
    for line in lines:
        print("# " + line)


def main(argv=None) -> int:
    args = parse_args(argv)
    started = datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = import_program()
    if workloads is None:
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - T_START

    wl = workloads.WORKLOADS[args.workload]
    env = environment(args, started)
    emit(["env " + json.dumps(env)])
    workroot = ROOT / ".perfbench_work" / f"{wl.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workroot, ignore_errors=True)
    try:
        setup_phase = Phase()
        state, setup_median = set_up(wl, args.seed, workroot, setup_phase)
        setup_s = import_s + setup_median
        seconds = args.seconds / 2 if args.trace else args.seconds
        main_phase = run_phase(wl, state, seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        phases = [setup_phase, main_phase]
        state = None  # the traced half sets up afresh; free this one first
        if args.trace:
            report, traced = traced_run(workloads, wl, args, workroot, main_phase, env)
            phases.append(traced)
    finally:
        shutil.rmtree(workroot, ignore_errors=True)

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    errors = [e for p in phases for e in p.errors]
    ops = main_phase
    applies = {"predict": "predict", "video_full": "video", "train_tiny": "train",
               "train_audio_full": "train"}[wl.name]
    na = "n/a on " + wl.name
    lines = [
        f"{wl.name}: {len(ops.latencies)} operations in {sum(ops.latencies):.2f} s "
        f"of {seconds:g} s; {SETUP_REPS} set-ups{' with warm-up' if wl.warmup else ''}, "
        f"median {setup_median:.4f} s; import {import_s:.4f} s",
        f"setup_s             {setup_s:.4f} s",
        f"peak_rss_mb         {peak_rss_mb:.1f} MB",
        f"fail_ratio          {failed / max(attempted, 1):.4f} ({failed}/{attempted})",
        f"predict_p50_ms      " + (f"{ops.p50_ms():.3f} ms" if applies == "predict" else na),
        f"predict_tail_ms     " + (f"{ops.tail_ms():.3f} ms (p{TAIL_PCT} of "
                                   f"{len(ops.latencies)} samples)"
                                   if applies == "predict" else na),
        f"video_clips_per_s   " + (f"{ops.throughput():.5f} 1/s"
                                   if applies == "video" else na),
        f"train_samples_per_s " + (f"{ops.throughput():.3f} 1/s"
                                   if applies == "train" else na),
        f"op_p50_ms {ops.p50_ms():.3f} ms, op_p{TAIL_PCT}_ms {ops.tail_ms():.3f} ms, "
        f"throughput {ops.throughput():.5g} {wl.unit}/s",
        f"op_p50_ms_norm {ops.p50_norm_ms():.3f} ms, op_p{TAIL_PCT}_ms_norm "
        f"{ops.tail_norm_ms():.3f} ms (at a reference kernel time of {pace.NOMINAL_MS} ms; "
        f"measured median {1000.0 * statistics.median(ops.refs):.3f} ms)",
    ]
    if ops.latencies:
        q = np.percentile(ops.latencies, [0, 10, 25, 50, 75, 90, 100]) * 1000.0
        lines.append("latency ms min/p10/p25/p50/p75/p90/max " + " ".join(f"{v:.2f}" for v in q))
    if args.trace:
        tp = phases[-1]
        lines.append(f"traced half: {len(tp.latencies)} operations, op_p50_ms {tp.p50_ms():.3f} ms, "
                     f"op_p50_ms_norm {tp.p50_norm_ms():.3f} ms, reference kernel median "
                     f"{1000.0 * statistics.median(tp.refs):.3f} ms")
    lines += [f"failure: {e}" for e in errors]
    emit(lines)

    if args.trace:
        metrics = {}
        for m in spec["per_layer"]:
            metrics[m["name"]] = {"value": report.value(m["name"]), "unit": m["unit"]}
        emit([f"{k:34s} {v['value']:.6g} {v['unit']}" for k, v in metrics.items()])
        emit(["absent (function not in the program): " + ", ".join(report.absent or ["none"])])
    else:
        measured = {
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
            f"op_p{TAIL_PCT}_ms_norm": ops.tail_norm_ms(),
        }
        metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def traced_run(workloads, wl, args, workroot, untraced, env):
    """Second half of a --trace 1 run: traced set-up, operations and tear-down."""
    gc.collect()
    tr = tracing.Tracer()
    tr.install()
    tr.start()
    tr.op = tracing.SETUP_OP
    state = wl.setup(args.seed, workroot / "traced")
    tr.active = False
    phase = run_phase(wl, state, args.seconds / 2, tr)
    cached = workloads.held_bytes(wl.nets(state))
    tr.op = tracing.TEARDOWN_OP
    tr.active = True
    wl.teardown(state, workroot / "traced")
    tr.stop()
    tr.uninstall()
    state = None
    gc.collect()
    op_walls = dict(enumerate(phase.latencies))
    report = LayerReport(tr, op_walls, untraced, phase, cached)
    report.gemm_ref_gflops()  # time the GEMM references while the spans are in memory
    outdir = ROOT / ".perfbench_out"
    outdir.mkdir(exist_ok=True)
    tr.write(outdir / f"trace-{wl.name}-seed{args.seed}.jsonl",
             {"env": env, "op_walls": op_walls})
    return report, phase


if __name__ == "__main__":
    sys.exit(main())
