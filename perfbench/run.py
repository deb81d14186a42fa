"""sphere-mt benchmark: one closed-loop caller per workload.

    python3 perfbench/run.py --workload ladder|hires|quadrature \
        --seed N --seconds S --trace 0|1 [--inject-fault]

Run from the repository root.  The package is imported from ./src; set-up
is timed in fresh interpreters.  The closed loop runs whole passes of
the workload (each operation starts when the previous one returned)
until --seconds have passed and the main operation has its minimum
number of samples (a traced run stops at half of --seconds, since it
runs every operation twice).  Every operation checks its outputs; a missed
gate or an exception counts as a failed operation.

--trace 0 reports the end-to-end metrics.  --trace 1 runs each
operation untraced and then traced, adds a probe pass for layer calls
the loop cannot see, and reports per-layer self times and exact counts.  The
last line of stdout is the JSON result; the lines before it are the
same numbers for people, with the workload's own names and sample
counts.  Spans, samples and provenance go to
.bench_build/perfbench/<workload>-seed<N>-trace<T>.json when the run ends.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
BLAS_THREADS = 1
SETUP_REPEATS = 3
TAIL_BEYOND = 10          # the tail percentile keeps ten samples above it
SETUP_TIMEOUT_S = 120

# end-to-end metrics, reported by --trace 0 on every workload
END_TO_END = (("setup_s", "s"), ("op_s.p50", "s"), ("op_s.tail", "s"),
              ("aux_s.p50", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))

# what op_s and aux_s are on each workload, by the workload's own names
NAMES = {
    "ladder": ("ladder_s", "one eps-ladder with its rung write/read-back",
               "rung_io_s", "rung write/read-back of one ladder"),
    "hires": ("row_s", "one sweep row", "verify_s",
              "one EL+KW verification"),
    "quadrature": ("check_s", "one `check` round at 48x96, 64x128, 256x512",
                   "tall_rule_s",
                   "build_grid(24576, 4), average G on it, write G"),
}

# per-layer self times: (span, label, unit, probe samples, what it moves)
LADDER_OP = "op_s (ladder_s) on ladder"
LAYERS = (
    ("harmonics.synthesize", "64x128_L16", "ms", 5,
     LADDER_OP + "; no change on quadrature"),
    ("harmonics.analyze", "64x128_L16", "ms", 5,
     LADDER_OP + "; no change on quadrature"),
    ("harmonics.synthesize", "256x512_L254", "ms", 3,
     "aux_s (verify_s) and op_s (row_s) on hires"),
    ("harmonics.analyze", "256x512_L254", "ms", 3,
     "aux_s (verify_s) and op_s (row_s) on hires"),
    ("harmonics.first_call", "256x512_L254", "ms", 1, "setup_s on hires"),
    ("functional.el_residual", "64x128", "ms", 5, LADDER_OP),
    ("functional.el_residual", "256x512", "ms", 3, "aux_s (verify_s) on hires"),
    ("functional.kazdan_warner_residual", "256x512", "ms", 3,
     "aux_s (verify_s) on hires, through el_residual"),
    ("functional.evaluate", "64x128", "ms", 5, "wall_s on hires"),
    ("functional.evaluate", "256x512", "ms", 3, "op_s (row_s) on hires"),
    ("grid.build_grid", "24576x4", "s", 1,
     "aux_s (tall_rule_s) on quadrature; no change on ladder and hires"),
    ("grid.build_grid", "48x96", "ms", 5,
     "setup_s, and op_s (check_s) on quadrature"),
    ("grid.build_grid", "64x128", "ms", 5,
     "setup_s, and op_s (check_s) on quadrature"),
    ("grid.build_grid", "256x512", "ms", 5,
     "setup_s, and op_s (check_s) on quadrature"),
    ("conformal.bubble_pair", "256x512", "ms", 3, "op_s (row_s) on hires"),
    ("conformal.mobius_pullback", "64x128", "ms", 3, "wall_s on hires"),
    ("conformal.mobius_pullback", "256x512", "ms", 3, "wall_s on hires"),
    ("optimize.continuation", "", "s", 2, LADDER_OP),
    ("io.write_field", "64x128", "ms", 5, LADDER_OP + " and aux_s (rung_io_s)"),
    ("io.read_field", "64x128", "ms", 5, LADDER_OP + " and aux_s (rung_io_s)"),
    ("io.read_field", "24576x4", "ms", 1, "wall_s on quadrature"),
    ("io.write_report", "", "ms", 5, LADDER_OP + " and aux_s (rung_io_s)"),
    ("cli.check", "48x96", "ms", 3, "op_s (check_s) on quadrature"),
    ("cli.check", "64x128", "ms", 3, "op_s (check_s) on quadrature"),
    ("cli.check", "256x512", "ms", 3, "op_s (check_s) on quadrature"),
)
# per-layer counts and ratios: (name, unit, what it moves)
COUNTED = (
    ("optimize.inner_iters", "count", LADDER_OP),
    ("optimize.outer_iters", "count", LADDER_OP),
    ("optimize.ms_per_inner_iter", "ms", LADDER_OP),
    ("optimize.converged_ratio", "ratio", LADDER_OP),
    ("io.bytes_written", "B", LADDER_OP + " and aux_s (tall_rule_s) on quadrature"),
    ("trace.wall_s", "s", "nothing: the traced pass time"),
    ("trace.overhead_s", "s", "nothing: traced minus untraced wall_s"),
)
# ROADMAP aim-1 layer baselines (2 vCPUs, no pinning), for comparison
BASELINES = {
    "harmonics.synthesize_ms.64x128_L16": 2.8,
    "harmonics.analyze_ms.64x128_L16": 1.0,
    "functional.evaluate_ms.64x128": 1.2,
    "functional.el_residual_ms.64x128": 18.8,
    "harmonics.synthesize_ms.256x512_L254": 127.0,
    "functional.el_residual_ms.256x512": 820.0,
    "grid.build_grid_s.24576x4": 15.6,
}
SCALE = {"s": 1.0, "ms": 1e3}


def layer_metric(name: str, label: str, unit: str) -> str:
    return f"{name}_{unit}" + (f".{label}" if label else "")


def per_layer_names() -> list[tuple[str, str]]:
    """(metric, unit) of every per-layer metric, in output order."""
    return ([(layer_metric(n, lab, u), u) for n, lab, u, _, _ in LAYERS]
            + [(n, u) for n, u, _ in COUNTED])


def pin_threads() -> dict:
    """Run every numerical thread pool with one thread.

    The transforms are matrix-vector products too small to gain from
    BLAS threads (CPU time stays at wall time with two), so one thread
    keeps a run to one busy CPU of a shared host.
    """
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    return {"nproc": len(os.sched_getaffinity(0)),
            **{v: os.environ[v] for v in THREAD_VARS}}


def openblas_threads():
    """Threads the loaded OpenBLAS reports, or None if not found."""
    import ctypes
    import numpy as np
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*")):
        fn = getattr(ctypes.CDLL(str(lib)),
                     "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.restype = ctypes.c_int
            return fn()
    return None


def src_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((SRC / "sphere_mt").glob("*.py")):
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True, timeout=30)
    return out.stdout.strip() or "unknown"


def provenance(args, threads: dict) -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "threads": threads, "openblas_threads": openblas_threads(),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "git_sha": git_sha(), "src_sha256": src_digest(),
    }


def measure_setup(workload: str) -> list[dict]:
    """SETUP_REPEATS cold set-ups, each in a fresh interpreter."""
    out = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
            cwd=ROOT, check=True)
        out.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return out


def tail(xs: list[float]) -> tuple[float, float]:
    """The highest sample with TAIL_BEYOND samples above it, and its
    percentile rank; the median when there are too few samples."""
    s = sorted(xs)
    if len(s) <= 2 * TAIL_BEYOND:
        return statistics.median(s), 50.0
    k = len(s) - TAIL_BEYOND - 1
    return s[k], 100.0 * (k + 1) / len(s)


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, what: str):
        self.failed += 1
        self.errors.append(what)
        if len(self.errors) <= 5:
            print(f"FAILED {what}", file=sys.stderr)


def run_op(kind, fn, wl, tally) -> tuple[float, bool]:
    """Run one operation, count it, and return its duration and
    whether it passed."""
    from workloads import GateFailure
    t0 = time.perf_counter()
    ok = False
    try:
        with wl.tr.op(kind):
            fn()
        ok = True
    except GateFailure as exc:
        tally.fail(f"{kind}: {exc}")
    except Exception:   # a crash is a failed operation; keep measuring
        tally.fail(f"{kind}: {traceback.format_exc()}")
    dt = time.perf_counter() - t0
    tally.attempted += 1
    wl.samples.setdefault(kind, []).append(dt)
    return dt, ok


def closed_loop(wl, seconds: float, trace: bool, tally) -> dict:
    """Run whole passes until `seconds` have passed and the main
    operation has wl.min_ops samples.

    Returns per-pass lists: "wall", the untraced pass time; with
    tracing, "traced", the summed traced operation times, and
    "overhead", traced minus untraced time of the operations run both
    ways.  With tracing, each operation runs untraced and then traced
    on the same inputs, except that wl.cold_kinds only run traced and
    an operation that failed untraced is not repeated.
    """
    passes = {"wall": [], "traced": [], "overhead": []}
    start = time.perf_counter()
    p = 0
    while True:
        t0 = time.perf_counter()
        traced_s = overhead = 0.0
        for kind, fn in wl.pass_ops(p):
            if not trace:
                run_op(kind, fn, wl, tally)
                continue
            plain = None
            if kind not in wl.cold_kinds:
                plain, ok = run_op(kind, fn, wl, tally)
                if not ok:
                    continue
            wl.tr.enabled = True
            dt, _ = run_op(kind, fn, wl, tally)
            wl.tr.enabled = False
            traced_s += dt
            if plain is not None:
                overhead += dt - plain
        if trace:
            passes["traced"].append(traced_s)
            passes["overhead"].append(overhead)
        else:
            passes["wall"].append(time.perf_counter() - t0)
        p += 1
        if (time.perf_counter() - start >= seconds
                and len(wl.samples.get(wl.op_kind, ())) >= wl.min_ops):
            return passes


def self_check(wl, args, tally) -> list[str]:
    """Exact counts must repeat: within the run, where a replayed
    operation reproduces its counts, and across runs of the same seed,
    mode and source, compared with the record the first one left."""
    flags = list(wl.mismatches)
    counts = wl.counts
    if counts:
        tally.attempted += 1
        record = (OUT / "counts" / f"{args.workload}-seed{args.seed}"
                  f"-trace{args.trace}-{src_digest()[:16]}.json")
        if record.exists():
            before = json.loads(record.read_text())
            flags += [f"earlier run {k}: {before.get(k)} now {v}"
                      for k, v in counts.items() if before.get(k) != v]
        else:
            record.parent.mkdir(parents=True, exist_ok=True)
            record.write_text(json.dumps(counts, sort_keys=True))
    if flags:
        tally.fail("exact-count self-check: " + "; ".join(flags))
    return flags


def end_to_end(wl, samples, setups, passes) -> tuple[dict, list[str]]:
    ops = samples[wl.op_kind]
    aux = samples[wl.aux_kind]
    setup = [s["setup_s"] for s in setups]
    t, rank = tail(ops)
    op_name, op_what, aux_name, aux_what = NAMES[wl.name]
    vals = {
        "setup_s": statistics.median(setup),
        "op_s.p50": statistics.median(ops),
        "op_s.tail": t,
        "aux_s.p50": statistics.median(aux),
        "wall_s": statistics.median(passes["wall"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    lines = [
        f"setup_s          {vals['setup_s']:.4f} s   median of {len(setup)} "
        "cold set-ups (import, grids, first-call tables)",
        f"{op_name}.p50{'':<{13 - len(op_name)}}{vals['op_s.p50']:.4f} s   "
        f"op_s.p50, {op_what}, n={len(ops)}",
        f"{op_name}.tail{'':<{12 - len(op_name)}}{t:.4f} s   "
        f"op_s.tail = p{rank:.0f}, n={len(ops)}",
        f"{aux_name}.p50{'':<{13 - len(aux_name)}}{vals['aux_s.p50']:.4f} s   "
        f"aux_s.p50, {aux_what}, n={len(aux)}",
        f"wall_s           {vals['wall_s']:.4f} s   median pass, "
        f"n={len(passes['wall'])}",
        f"peak_rss_mb      {vals['peak_rss_mb']:.1f} MB",
    ]
    return vals, lines


def per_layer(wl, passes) -> tuple[dict, list[str]]:
    selfs = wl.tr.self_times()
    vals, lines = {}, []
    for name, label, unit, _, moves in LAYERS:
        metric = layer_metric(name, label, unit)
        xs = selfs[(name, label)]
        vals[metric] = statistics.median(xs) * SCALE[unit]
        base = BASELINES.get(metric)
        ref = f"  (ROADMAP baseline {base:g} {unit})" if base else ""
        lines.append(f"{metric:42s} {vals[metric]:12.4f} {unit:5s} "
                     f"n={len(xs):<4d} moves {moves}{ref}")
    c = wl.counts
    ladders = c["optimize.ladders"]
    cont_ms = vals["optimize.continuation_s"] * 1e3
    vals.update({
        "optimize.inner_iters": c["optimize.inner_iters"],
        "optimize.outer_iters": c["optimize.outer_iters"],
        "optimize.ms_per_inner_iter":
            cont_ms * ladders / c["optimize.inner_iters"],
        "optimize.converged_ratio": c["optimize.converged"] / c["optimize.rungs"],
        "io.bytes_written": c["io.bytes_written"],
        "trace.wall_s": statistics.median(passes["traced"]),
        "trace.overhead_s": statistics.median(passes["overhead"]),
    })
    bases = {
        "optimize.inner_iters": f"over {ladders} ladders",
        "optimize.outer_iters": f"over {ladders} ladders",
        "optimize.ms_per_inner_iter":
            "median ladder time / mean inner iterations per ladder",
        "optimize.converged_ratio":
            f"{c['optimize.converged']} converged of {c['optimize.rungs']} rungs",
        "io.bytes_written": "bytes the counted operations wrote",
        "trace.wall_s": f"median traced pass, n={len(passes['traced'])}",
        "trace.overhead_s":
            "median per pass of traced minus untraced time of the same "
            f"operations, n={len(passes['overhead'])}",
    }
    for name, unit, moves in COUNTED:
        lines.append(f"{name:42s} {vals[name]:12.4f} {unit:5s} "
                     f"{bases[name]}; moves {moves}")
    return vals, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("ladder", "hires", "quadrature"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inject-fault", action="store_true",
                    help="corrupt one output, to test the correctness gates")
    args = ap.parse_args(argv)

    if not (SRC / "sphere_mt" / "__init__.py").is_file():
        print(f"no sphere_mt package under {SRC}", file=sys.stderr)
        return 2
    threads = pin_threads()     # before numpy is imported
    sys.path.insert(0, str(SRC))
    import workloads
    from tracer import Tracer

    prov = provenance(args, threads)
    print("provenance " + json.dumps(prov, sort_keys=True))
    setups = measure_setup(args.workload)
    grids, _ = workloads.warm(args.workload)

    tracer = Tracer()
    tally = Tally()
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](
        args.seed, tracer, workdir, grids, inject_fault=args.inject_fault)
    try:
        for fn in wl.warmup_ops():
            run_op("warmup", fn, wl, tally)
        wl.samples.clear()
        passes = closed_loop(wl, args.seconds / (1 + args.trace),
                             bool(args.trace), tally)
        samples = {k: list(v) for k, v in wl.samples.items()}
        if args.trace:
            for s in setups:
                for label, secs in s["first_call"].items():
                    tracer.add("harmonics.first_call", label, secs)
            target = {(n, lab): k for n, lab, _, k, _ in LAYERS}
            tracer.enabled = True
            ops = workloads.probe_ops(wl, lambda n, lab: max(
                0, target.get((n, lab), 0) - tracer.count(n, lab)))
            for kind, fn in ops:
                run_op(kind, fn, wl, tally)
            tracer.enabled = False
        for fn in wl.replay_ops():
            run_op("replay", fn, wl, tally)
        flags = self_check(wl, args, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        metrics, lines = per_layer(wl, passes)
        units = dict(per_layer_names())
    else:
        metrics, lines = end_to_end(wl, samples, setups, passes)
        units = dict(END_TO_END)
    for line in lines:
        print(line)
    print(f"failed_frac      {tally.failed / tally.attempted:.4f}     "
          f"{tally.failed} failed of {tally.attempted} operations"
          + (f"; self-check flags: {flags}" if flags else ""))

    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"provenance": prov, "setups": setups,
                    "samples": samples, "passes": passes,
                    "counts": wl.counts, "errors": tally.errors,
                    "spans": tracer.spans}, default=str))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
