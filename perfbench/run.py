"""Benchmark for mebench: three pipeline workloads, end to end or traced per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload loso-desk --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

--trace 0 measures end-to-end metrics with nothing wrapped, in seconds
scaled to a reference machine speed (speed.py); --trace 1 runs one
untraced and one traced pass and reports per-layer metrics plus the
tracing overhead. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics. See README.md.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("flow-128", "loso-desk", "primafacie-16")
SETUP_REPEATS = 3  # set-ups per untraced run; setup_s reports their median
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="time budget for the timed passes")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", help="append each workload's full result as one JSON line to this file")
    return p.parse_args(argv)


def pin_blas_threads() -> tuple[int, int]:
    """Cap BLAS threads at the cores this process may use; must run before numpy loads."""
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1)
    try:
        requested = int(os.environ.get("OPENBLAS_NUM_THREADS", cores))
    except ValueError:
        requested = cores
    threads = max(1, min(requested, cores))
    for var in BLAS_VARS:
        os.environ[var] = str(threads)
    return cores, threads


# ------------------------------------------------------------------ environment


def git_commit() -> str:
    """HEAD of the checkout when it is a git working tree, else "unknown"."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return proc.stdout.strip()


def source_digest() -> str:
    """Hash of every file under src/, which identifies the code in a checkout without git."""
    hasher = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        hasher.update(str(path.relative_to(ROOT)).encode())
        hasher.update(path.read_bytes())
    return hasher.hexdigest()[:16]


def blas_info(np) -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except Exception:  # the config layout differs across numpy releases
        return "unknown"


def calibration_ms(np) -> float:
    """Median time of a fixed numpy kernel; explains machine drift, not gated."""
    rng = np.random.Generator(np.random.PCG64(0))
    a = rng.random((192, 192))
    v = rng.random(200_000)
    times = []
    for _ in range(7):
        t = time.perf_counter()
        for _ in range(10):
            a = (a @ a) / 192.0
        np.sort(np.exp(v))
        times.append(time.perf_counter() - t)
    return 1e3 * statistics.median(times)


def environment(np, scipy, cores: int, threads: int) -> dict:
    return {
        "nproc": cores,
        "blas": blas_info(np),
        "blas_threads": threads,
        "mebench_workers": 1,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
        "source_digest": source_digest(),
        "calibration_ms": calibration_ms(np),
    }


# ------------------------------------------------------------------ one workload


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_pass(workload, state):
    t = time.perf_counter()
    try:
        out = workload.run(state)
    except Exception as exc:  # a failed pass counts against error_rate; the run goes on to report
        return time.perf_counter() - t, None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t, out, None


def checked(workload, state, out, error):
    """Outcome of one pass; a pass that raised fails every operation it planned."""
    from perfbench.workloads import Outcome

    if error is not None:
        planned = workload.planned(state)
        return Outcome(planned=planned, failed=planned, checks={"pass_completed": False})
    return workload.check(state, out)


def run_untraced(workload, work: Path, seed: int, seconds: float, import_s: float) -> dict:
    from perfbench.speed import PROBES, SpeedClock

    setup_clock = SpeedClock(PROBES["jacobi"])  # set-up is corpus synthesis and 64 px flows
    setups = []
    for i in range(SETUP_REPEATS):
        state, timing = setup_clock.time(workload.setup, work / f"setup{i}", seed)
        setups.append(timing)

    clock = SpeedClock(PROBES[workload.probe])
    passes, outcomes, errors = [], [], []
    while True:
        (_, out, error), timing = clock.time(timed_pass, workload, state)
        passes.append(timing)
        outcomes.append(checked(workload, state, out, error))
        if error is not None:
            errors.append(error)
            break
        walls = [p.wall_s for p in passes]
        if sum(walls) + statistics.median(walls) > seconds:
            break

    digests = {o.digest for o in outcomes}
    repeatable = len(digests) == 1
    planned = sum(o.planned for o in outcomes)
    failed = sum(o.failed for o in outcomes) + (0 if repeatable else outcomes[-1].planned)
    checks = {name: all(o.checks.get(name, False) for o in outcomes) for name in outcomes[0].checks}
    checks["passes_bit_identical"] = repeatable
    return {
        "metrics": spec_metrics(
            "end_to_end",
            {
                "setup_s": import_s * statistics.median(t.speed for t in setups)
                + statistics.median(t.scaled_s for t in setups),
                "run_s": statistics.median(p.scaled_s for p in passes),
                "peak_rss_mb": peak_rss_mb(),
            },
        ),
        "report": {
            "error_rate": {"value": failed / planned if planned else 1.0, "unit": "ratio"},
            **outcomes[-1].quality,
            "digest": outcomes[-1].digest,
            "checks": checks,
            "import_s": import_s,
            "setup_wall_s": [t.wall_s for t in setups],
            "setup_speed": [t.speed for t in setups],
            "pass_wall_s": [p.wall_s for p in passes],
            "pass_speed": [p.speed for p in passes],
            "probe_samples": [p.samples for p in passes],
            "errors": errors,
        },
        "attempted": planned,
        "failed": failed,
    }


def run_traced(workload, work: Path, seed: int) -> dict:
    from perfbench.tracer import Tracer, layer_metrics

    tracer = Tracer()
    with tracer:
        state = workload.setup(work / "setup0", seed)
    plain_s, plain_out, plain_error = timed_pass(workload, state)
    plain = checked(workload, state, plain_out, plain_error)
    with tracer:
        traced_s, traced_out, traced_error = timed_pass(workload, state)
    traced = checked(workload, state, traced_out, traced_error)

    unchanged = plain.digest == traced.digest
    failed = plain.failed + traced.failed + (0 if unchanged else traced.planned)
    values = layer_metrics(tracer)
    values["trace.run_s"] = traced_s
    values["trace.untraced_run_s"] = plain_s
    values["trace.overhead_s"] = traced_s - plain_s
    values["trace.overhead_ratio"] = (traced_s - plain_s) / plain_s
    return {
        "metrics": spec_metrics("per_layer", values),
        "report": {
            "digest": traced.digest,
            "checks": {**traced.checks, "trace_leaves_outputs_unchanged": unchanged},
            "errors": [e for e in (plain_error, traced_error) if e],
        },
        "attempted": plain.planned + traced.planned,
        "failed": failed,
    }


def spec_metrics(kind: str, values: dict) -> dict:
    """Exactly the metrics BENCHMARK.json lists under `kind`, with its units."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    missing = [m["name"] for m in spec[kind] if m["name"] not in values]
    if missing:
        raise KeyError(f"BENCHMARK.json {kind} metrics not measured: {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[kind]}


def run_one(args, cores: int, threads: int) -> int:
    try:
        import numpy as np
        import scipy

        sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
        import mebench
        from perfbench.workloads import WORKLOADS
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if not Path(mebench.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"perfbench: mebench was imported from {mebench.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - T0

    env = environment(np, scipy, cores, threads)
    print("env " + json.dumps(env, sort_keys=True), flush=True)
    workload = WORKLOADS[args.workload]
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        if args.trace:
            result = run_traced(workload, work, args.seed)
        else:
            result = run_untraced(workload, work, args.seed, args.seconds, import_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run is still using it

    report = result["report"]
    correct = result["failed"] == 0 and all(report["checks"].values())
    shown = dict(result["metrics"])
    shown.update({k: v for k, v in report.items() if isinstance(v, dict) and "unit" in v})
    for metric, entry in shown.items():
        print(f"{args.workload:14s} {metric:42s} {entry['value']:>14.6g} {entry['unit']}")
    print("report " + json.dumps({"workload": args.workload, "seed": args.seed, **report}, sort_keys=True))
    line = {"correct": correct, "attempted": result["attempted"], "failed": result["failed"],
            "metrics": result["metrics"]}
    if args.record:
        with open(args.record, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                                 "seconds": args.seconds, "env": env, "report": report, **line},
                                sort_keys=True) + "\n")
    print(json.dumps(line, sort_keys=True), flush=True)
    return 0


def run_all(args) -> int:
    """Each workload in its own child process, so peak memory is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.record:
            cmd += ["--record", args.record]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"perfbench: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
    print(json.dumps(combined, sort_keys=True), flush=True)
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.pop("MEBENCH_THREADS", None)  # the tracer cannot see into worker processes
    cores, threads = pin_blas_threads()
    if args.workload == "all":
        return run_all(args)
    return run_one(args, cores, threads)


if __name__ == "__main__":
    sys.exit(main())
