#!/usr/bin/env python3
"""Benchmark of the cyclospeech enhancer.

Run from the repository root:

    python3 perfbench/run.py --workload modset-scan --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with the library untouched.
``--trace 1`` runs one fixed pass over the inputs untraced, then the same
pass with spans recorded around calls into each module, checks that both
passes give bit-identical outputs, and prints the per-layer metrics. Metric
names, units and directions come from BENCHMARK.json at the repository root.
``--smoke`` shrinks every input so that a run takes seconds.

Standard output ends with a run record line and then the result line,
``{"correct", "attempted", "failed", "metrics"}``. The exit code is 0 only
when a result was printed.
"""

from __future__ import annotations

import os

# One BLAS thread per process: eval-batch runs nproc pool workers, which
# keeps the benchmark's busy threads at or below nproc. Set before numpy loads.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import ctypes
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
SCHEMA_VERSION = 1
SETUP_REPEATS = 3
QUALITY_KEYS = ("modset.correct_frac", "metrics.si_sdr_gain_db", "metrics.stoi_mean")


@dataclass
class Book:
    """Operation counts and the first output of every unit, by label."""

    attempted: int = 0
    failed: int = 0
    digests: dict = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's own tests")
    return p.parse_args(argv)


def fresh_import_s() -> float:
    """Wall time of a new interpreter that imports cyclospeech and exits."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import cyclospeech"], env=env, cwd=ROOT, check=True)
    return time.perf_counter() - start


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def blas_record() -> dict:
    import numpy as np

    config = np.show_config(mode="dicts")
    name = config.get("Build Dependencies", {}).get("blas", {}).get("name", "unknown")
    threads = {}
    # wheels bundle their BLAS next to the package, in <package>.libs
    site = Path(np.__file__).resolve().parent.parent
    for path in sorted(site.glob("*.libs/*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads[Path(path).name] = fn()
                break
    return {"name": name, "threads_requested": BLAS_THREADS, "threads_reported": threads}


def run_unit(workload, unit, book: Book) -> tuple[float, float]:
    """Run one unit call, check it, and return (wall seconds, audio seconds)."""
    book.attempted += 1
    start = time.perf_counter()
    try:
        out = workload.run(unit)
    except Exception:  # noqa: BLE001 - a failed operation is counted, not fatal
        wall = time.perf_counter() - start
        book.failed += 1
        print(f"{unit.label}: raised\n{traceback.format_exc()}", file=sys.stderr)
        return wall, unit.audio_s
    wall = time.perf_counter() - start
    problems = workload.check(unit, out)
    digest = workload.digest(out)
    if book.digests.setdefault(unit.label, digest) != digest:
        problems.append("output differs from an earlier run of the same input")
    book.outputs.setdefault(unit.label, out)
    if problems:
        book.failed += 1
        print(f"{unit.label}: " + "; ".join(problems), file=sys.stderr)
    return wall, unit.audio_s


def measure_untraced(workload, units, seconds: float, book: Book) -> tuple[dict, dict]:
    """Whole passes over the inputs until ``seconds`` have been measured."""
    samples = []
    cpu_start = os.times()
    start = time.perf_counter()
    while True:
        samples.extend(run_unit(workload, u, book) for u in units)
        if time.perf_counter() - start >= seconds:
            break
    cpu = [b - a for a, b in zip(cpu_start, os.times())]
    walls = [w for w, _ in samples]
    rtfs = [w / a for w, a in samples]
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics = {
        "xrt": sum(a for _, a in samples) / sum(walls),
        "rtf_p50": statistics.median(rtfs),
        "peak_rss_mb": max(own, children) / 1024.0,
    }
    return metrics, {"unit_calls": len(samples), "rtf_samples": len(rtfs), "timed_s": sum(walls), "timed_cpu_s": sum(cpu[:4])}


def measure_traced(workload, units, book: Book) -> tuple[dict, dict]:
    """One untraced pass, then the same pass traced; outputs must match bit for bit."""
    import spans

    untraced_s = sum(run_unit(workload, u, book)[0] for u in units)
    tracer = spans.Tracer()
    with tracer.installed():
        traced_s = sum(run_unit(workload, u, book)[0] for u in units)
    metrics, bases = spans.layer_metrics(tracer, files=sum(u.files for u in units))
    record = {
        "ratio_bases": bases,
        "spans": len(tracer.spans),
        "untraced_pass_s": untraced_s,
        "traced_pass_s": traced_s,
        "trace_overhead_s": traced_s - untraced_s,
        "trace_overhead_frac": (traced_s - untraced_s) / untraced_s,
    }
    return metrics, record


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cyclospeech" / "__init__.py").is_file():
        print(f"error: no library sources at {SRC / 'cyclospeech'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import cyclospeech

    if Path(cyclospeech.__file__).resolve().parent != (SRC / "cyclospeech").resolve():
        print(f"error: cyclospeech imported from {cyclospeech.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import numpy as np
    import scipy

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    nproc = len(os.sched_getaffinity(0))
    # The traced run keeps eval_dataset in this process: spans recorded in
    # forked pool workers would stay in the workers' memory.
    eval_workers = 1 if args.trace else nproc
    workdir = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload = workloads.WORKLOADS[args.workload](workdir, args.smoke, eval_workers)
        book = Book()
        setup_samples, fingerprints = [], set()
        for _ in range(1 if args.smoke else SETUP_REPEATS):
            import_s = fresh_import_s()
            start = time.perf_counter()
            units = workload.prepare(args.seed)
            workload.warm_up()
            setup_samples.append(import_s + time.perf_counter() - start)
            fingerprints.add(tuple(u.fingerprint for u in units))
        if len(fingerprints) != 1:
            print("error: the same seed generated different inputs", file=sys.stderr)
            return 1

        if args.trace:
            values, extra = measure_traced(workload, units, book)
        else:
            values, extra = measure_untraced(workload, units, args.seconds, book)
            values["setup_s"] = statistics.median(setup_samples)
        # a unit that raised left no output to score
        quality = workload.quality(units, book.outputs) if len(book.outputs) == len(units) else {}
        if args.trace:
            values.update({k: quality.get(k, 0.0) for k in QUALITY_KEYS})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass

    missing = [m["name"] for m in wanted if m["name"] not in values]
    bad = [k for k, v in values.items() if not math.isfinite(v)]
    if missing or bad:
        print(f"error: metrics missing {missing}, non-finite {bad}", file=sys.stderr)
        return 1

    record = {
        "schema_version": SCHEMA_VERSION,
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": nproc,
        "blas": blas_record(),
        "eval_workers": eval_workers,
        "trace_worker_spans": "not collected: traced runs use eval workers=1" if args.trace else None,
        "setup_s_samples": setup_samples,
        "quality": quality,
        **extra,
    }
    for m in wanted:
        print(f"{m['name']:32s} {values[m['name']]:>14.6g} {m['unit']:8s} {m['better']}", file=sys.stderr)
    print(json.dumps({"record": record}))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    failed = book.failed
    print(json.dumps({"correct": failed == 0, "attempted": book.attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
