"""Batch benchmark for concentra.

Usage (from the repository root):

    python3 bench/run.py --workload distances --seed 1 --seconds 30 --trace 0

Workloads are `distances`, `certify` and `chains` (see bench/README.md).
One client runs the jobs of a batch one at a time in this process (a
closed loop). Each job's output is checked against a reference route
outside the timed region. With `--trace 0` the last line of standard
output carries the end-to-end metrics; with `--trace 1` it carries the
per-module metrics from a traced run of the same batch.
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
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
TRACE_DIR = ROOT / ".bench_trace"
SETUP_REPEATS = 3

NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1)
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    if not os.environ.get(_var, "").isdigit() or int(os.environ[_var]) > NPROC:
        os.environ[_var] = str(NPROC)


def _import_library():
    """Import concentra from this checkout's src/, or exit without a result."""
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    try:
        import concentra
    except ImportError as exc:
        sys.exit(f"bench: cannot import concentra from {ROOT / 'src'}: {exc}")
    if not Path(concentra.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"bench: concentra resolved outside this checkout ({concentra.__file__})")


def _setup_probe(workload: str, seed: int, seconds: float) -> None:
    """Fresh-interpreter set-up: import the library and build the inputs."""
    _import_library()
    import workloads

    workdir = WORK / f"probe-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workloads.build(workload, seed, seconds, str(workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _setup_seconds(workload: str, seed: int, seconds: float) -> list[float]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT, timeout=120)
        samples.append(time.perf_counter() - t0)
    return samples


def _stamp(seed: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
        commit = res.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "concentra").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": NPROC,
        "cpu": cpu,
        "loadavg_at_start": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "seed": seed,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def _run_jobs(jobs, tracer, records, first_index):
    """Run jobs in order; time each run(), check it untimed."""
    from checks import CheckFailed

    for i, job in enumerate(jobs, start=first_index):
        if tracer is not None:
            tracer.job = i
            run = lambda job=job: tracer.span(f"job.{job.kind}", "bench", job.run)
        else:
            run = job.run
        error = defect = None
        t0 = time.perf_counter()
        try:
            out = run()
        except Exception as exc:  # a raising job is a failed job; the batch goes on
            elapsed = time.perf_counter() - t0
            error = f"{type(exc).__name__}: {exc}"
            defect = getattr(exc, "defect", None) or job.known_errors.get(type(exc).__name__)
        else:
            elapsed = time.perf_counter() - t0
            if tracer is not None:
                tracer.active = False
                if job.cli_out and os.path.exists(job.cli_out):
                    tracer.counts["cli.bytes_out"] += os.path.getsize(job.cli_out)
            try:
                job.check(out)
            except CheckFailed as exc:
                error, defect = str(exc), exc.defect
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
            if error is not None and tracer is not None and job.kind.startswith(("couple", "audit")):
                tracer.counts["coupling.failed"] += 1
            if tracer is not None:
                tracer.active = True
        records.append({"index": i, "kind": job.kind, "seconds": elapsed, "error": error, "defect": defect})


def _percentile(values, q):
    import numpy as np

    return float(np.percentile(values, q))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("distances", "certify", "chains"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        _setup_probe(args.workload, args.seed, args.seconds)
        return 0

    t_setup = time.perf_counter()
    _import_library()
    import workloads

    stamp = _stamp(args.seed)
    tracer = None
    if args.trace:
        from tracing import REPEAT_COUNTS, Tracer

        tracer = Tracer()
        tracer.install()
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    records = []
    reference = []
    try:
        if tracer is not None:
            tracer.active = True  # the input build is traced too
        prologue, decks = workloads.build(args.workload, args.seed, args.seconds, str(workdir))
        setup_in_process = time.perf_counter() - t_setup
        if tracer is not None:
            # the same first deck untraced, to measure the tracing overhead
            tracer.active = False
            tracer.uninstall()
            _run_jobs(decks[0], None, reference, 0)
            tracer.install()
            tracer.active = True
        setup = _setup_seconds(args.workload, args.seed, args.seconds) if tracer is None else []
        _run_jobs(prologue + [job for deck in decks for job in deck], tracer, records, 0)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        if tracer is not None:
            tracer.active = False
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    failures = [r for r in records if r["error"] is not None]
    unexpected = [r for r in failures if r["defect"] not in workloads.KNOWN_DEFECTS]
    attempted = len(records)
    passed = attempted - len(failures)
    lat = [r["seconds"] for r in records]
    busy = sum(lat)
    beyond_p90 = sum(1 for v in lat if v > _percentile(lat, 90))
    e2e = {
        "jobs_per_s": (passed / busy, "jobs/s", attempted),
        "job_p50_ms": (_percentile(lat, 50) * 1e3, "ms", attempted),
        "job_p90_ms": (_percentile(lat, 90) * 1e3, "ms", attempted),
        "failed_frac": (len(failures) / attempted, "ratio", attempted),
        "setup_s": (statistics.median(setup) if setup else setup_in_process, "s", len(setup) or 1),
        "peak_rss_mb": (peak_rss_mb, "MB", 1),
    }

    print(f"concentra bench: workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} decks={len(decks)} jobs={attempted}")
    if tracer is not None:
        print("  (traced batch: the figures below include tracing overhead; setup_s is this process's build)")
    print("stamp: " + json.dumps(stamp, sort_keys=True))
    for name, (value, unit, count) in e2e.items():
        print(f"  {name:<12} {value:14.6f} {unit:<7} (n={count})")
    print(f"  p90 has {beyond_p90} jobs beyond it; set-up samples {[round(v, 4) for v in setup]}, "
          f"in-process set-up {setup_in_process:.4f} s")
    for r in failures:
        tag = f" [known defect: {r['defect']}]" if r["defect"] in workloads.KNOWN_DEFECTS else " [UNEXPECTED]"
        print(f"  FAIL job {r['index']} {r['kind']}: {r['error']}{tag}")
    slowest = sorted(records, key=lambda r: r["seconds"], reverse=True)[:beyond_p90 + 3]
    print("  slowest: " + ", ".join(f"{r['kind']} {r['seconds'] * 1e3:.0f}" for r in slowest) + " (ms)")
    by_kind = {}
    for r in records:
        by_kind.setdefault(r["kind"], []).append(r["seconds"])
    print("  per kind: " + ", ".join(
        f"{k} n={len(v)} sum={sum(v):.2f}s p50={statistics.median(v) * 1e3:.1f}ms" for k, v in by_kind.items()))

    if tracer is not None:
        per_layer = tracer.metrics()
        ref_s = sum(r["seconds"] for r in reference)
        traced_s = sum(r["seconds"] for r in records[len(prologue):len(prologue) + len(decks[0])])
        per_layer["trace.overhead_frac"] = (traced_s / ref_s - 1.0, "ratio")
        print(f"  tracing overhead on deck 0: untraced {len(reference) / ref_s:.4f} jobs/s, "
              f"traced {len(reference) / traced_s:.4f} jobs/s ({100 * (traced_s / ref_s - 1):.1f} %); "
              f"{len(tracer.spans)} spans")
        TRACE_DIR.mkdir(exist_ok=True)
        key = f"{args.workload}-s{args.seed}-t{args.seconds:g}"
        tracer.write_spans(TRACE_DIR / f"{key}.spans.jsonl")
        counts = {k: per_layer[k][0] for k in REPEAT_COUNTS}
        record = TRACE_DIR / f"{key}.counts.json"
        if record.exists():
            before = json.loads(record.read_text())
            differ = sorted(k for k in counts if before.get(k) != counts[k])
            print("  count repeat vs previous traced run: " +
                  ("identical" if not differ else "DIFFER " + ", ".join(f"{k} {before.get(k)} -> {counts[k]}" for k in differ)))
        record.write_text(json.dumps(counts, sort_keys=True))
        for name, (value, unit) in per_layer.items():
            print(f"  {name:<42} {value:16.6f} {unit}")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in per_layer.items()}
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u, _) in e2e.items() if k != "failed_frac"}

    print(json.dumps({
        "correct": not unexpected,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
