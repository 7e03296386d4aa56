#!/usr/bin/env python3
"""periflow benchmark: end-to-end metrics per workload, or per-layer metrics
from a traced run.

    python3 perfbench/run.py --workload reference-solve --seed 0 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one table

One process drives the library through the public functions the CLI and
scripts call, one op after another (a closed loop with one client), for
about --seconds; every op is checked against the stored reference.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The environment, every op and (when
traced) every span are written under .perfbench_out/ in the checkout.
See perfbench/README.md.
"""

import os

# Fixed before numpy is first imported, here and in every set-up probe; the
# imports below stay after this block.
BLAS_THREADS = "1"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = BLAS_THREADS

import argparse
import hashlib
import importlib
import json
import pkgutil
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

WORKLOAD_NAMES = ("reference-solve", "period-sweep", "homotopy-sweep")
SETUP_SAMPLES = 3
END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
# per-layer metrics measured by this script rather than from spans
EXTRA_PER_LAYER = {"cli.bytes_written": "B", "trace.overhead_s": "s"}


def work_dir():
    path = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(path, exist_ok=True)
    return path


def set_up(workload_name, seed):
    """Import numpy, scipy and every periflow module, build the workload's
    config and load its reference: everything before the first op."""
    import numpy  # noqa: F401
    import scipy  # noqa: F401
    import periflow

    for mod in pkgutil.iter_modules(periflow.__path__):
        importlib.import_module(f"periflow.{mod.name}")
    import workloads

    return workloads.make_workload(workload_name, seed)


def measure_setup(workload_name, seed):
    """Wall seconds of SETUP_SAMPLES fresh interpreters running `set_up`."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", workload_name, "--seed", str(seed)]
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        samples.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return samples


def _dir_bytes(path):
    return sum(
        os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(path) for f in files
    )


def run_ops(workload, seconds, tracer):
    """Closed loop: ops back to back for about `seconds`.  Another op starts
    only if, at the median op time so far, it would end within half an op of
    the deadline, so a run overshoots by half an op at most on average.  A
    traced run alternates untraced and traced ops, so it needs at least two."""
    ops = []
    deadline = time.perf_counter() + seconds
    min_ops = 2 if tracer else 1
    while len(ops) < min_ops or (
        time.perf_counter() + statistics.median(op["wall_s"] for op in ops) / 2 < deadline
    ):
        traced = tracer is not None and len(ops) % 2 == 1
        with tempfile.TemporaryDirectory(dir=work_dir()) as out:
            w0, c0 = time.perf_counter(), time.process_time()
            try:
                if tracer:
                    result = tracer.run_op(len(ops), traced, workload.run, out)
                else:
                    result = workload.run(out)
                problems = None
            except Exception as exc:  # a failed op is counted, not fatal
                problems = [f"raised {type(exc).__name__}: {exc}"]
            wall = time.perf_counter() - w0
            cpu = time.process_time() - c0
            if problems is None:
                try:
                    problems = workload.check(result, out)
                except (OSError, KeyError, ValueError, IndexError) as exc:
                    problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
            ops.append({
                "wall_s": wall,
                "cpu_s": cpu,
                "traced": traced,
                "ok": not problems,
                "problems": problems,
                "bytes_written": _dir_bytes(out),
            })
    return ops


def _median(ops, key):
    """Median over the ops that passed their check (all ops if none did)."""
    passed = [op for op in ops if op["ok"]] or ops
    return statistics.median(op[key] for op in passed), len(passed)


def environment(workload, seed):
    import numpy
    import scipy

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "periflow")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + fh.read())
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "workload": workload.name,
        "seed": seed,
        "phase_rad": workload.theta,
    }


def run_one(args):
    workload = set_up(args.workload, args.seed)
    setup_samples = measure_setup(args.workload, args.seed)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    ops = run_ops(workload, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failed = sum(not op["ok"] for op in ops)
    plain = [op for op in ops if not op["traced"]]
    wall, n_passed = _median(plain, "wall_s")
    cpu, _ = _median(plain, "cpu_s")
    end_to_end = {
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(setup_samples),
    }
    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"ops {len(ops)}  passed {len(ops) - failed}")
    for name, unit in END_TO_END.items():
        note = (f"median of {SETUP_SAMPLES} set-ups" if name == "setup_s"
                else "process peak" if name == "peak_rss_mb"
                else f"median of {n_passed} passing untraced ops")
        print(f"  {name:<12s} {end_to_end[name]:12.6f} {unit:<5s} {note}")
    print(f"  {'fail_rate':<12s} {failed / len(ops):12.6f} {'1':<5s} {failed} of {len(ops)} ops")
    for i, op in enumerate(ops):
        if not op["ok"]:
            print(f"  op {i} failed: {'; '.join(op['problems'])}")

    record = {"environment": environment(workload, args.seed), "ops": ops,
              "setup_samples_s": setup_samples, "end_to_end": end_to_end}
    if tracer:
        tracer.uninstall()
        metrics = per_layer_metrics(tracer, ops)
        record["per_layer"] = metrics
        spans_path = os.path.join(work_dir(), f"spans-{workload.name}-seed{args.seed}.json")
        with open(spans_path, "w") as fh:
            json.dump([s.to_json() for s in tracer.spans], fh)
        print(f"  per-layer metrics (median over traced ops); spans in {spans_path}")
        for name, m in metrics.items():
            print(f"  {name:<40s} {m['value']:16.6f} {m['unit']}")
    else:
        metrics = {name: {"value": end_to_end[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    print("env " + json.dumps(record["environment"], sort_keys=True))
    result_path = os.path.join(
        work_dir(), f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json")
    with open(result_path, "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0


def per_layer_metrics(tracer, ops):
    """Median per-layer values over the traced ops, plus the tracing overhead
    (median traced wall_s minus median untraced wall_s of the same run)."""
    traced = [i for i, op in enumerate(ops) if op["traced"] and op["ok"]] or [
        i for i, op in enumerate(ops) if op["traced"]]
    values = [tracing.layer_values(tracer.op_spans(i)) for i in traced]
    metrics = {
        name: {"value": statistics.median(v[name] for v in values), "unit": unit}
        for name, (unit, _) in tracing.PER_LAYER.items()
    }
    plain = [op for op in ops if not op["traced"]]
    extra = {
        "cli.bytes_written": statistics.median(ops[i]["bytes_written"] for i in traced),
        "trace.overhead_s": statistics.median(ops[i]["wall_s"] for i in traced)
        - statistics.median(op["wall_s"] for op in plain),
    }
    for name, unit in EXTRA_PER_LAYER.items():
        metrics[name] = {"value": extra[name], "unit": unit}
    return metrics


def run_all(args):
    """Run every workload in its own process and print one table."""
    failed = False
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            failed = True
            continue
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        failed |= not result["correct"]
    return 1 if failed else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isdir(os.path.join(SRC, "periflow")):
        print(f"perfbench: no periflow sources under {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        set_up(args.workload, args.seed)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
