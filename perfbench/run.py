"""End-to-end benchmark of ``surfspec run``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; the program is imported from
``src/``.  The load is a closed loop with one client: each ``surfspec run``
happens in its own fresh interpreter (``worker.py``), and the next starts
only after the previous one has finished.  Runs are started until the next
one would end after ``--seconds``; there is always at least one.  Before
them, one discarded set-up warms the file cache and bytecode, and
``SETUP_ONLY`` more processes only set up, so ``setup_s`` is a median of
several.

``--trace 0`` reports the end-to-end metrics (medians over the runs).
``--trace 1`` alternates untraced and traced runs and reports the
per-layer metrics of the traced ones, plus the tracing overhead; it also
requires each traced report to equal its untraced twin outside
``metadata``.  Every report goes through the correctness gate (``gate.py``).
The seed only sets ``solver.seed`` in the generated config.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--workload all``
runs every workload in turn and prefixes each metric with its workload.
A failed run (non-zero exit, exception, false pass flag, gate problem)
counts against ``attempted``; with no successful run, ``run_s`` is
unbounded and reported as null.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import (  # noqa: E402
    EXACT_METRICS, LAYER_METRICS, check_coverage, layer_metrics, self_times,
)
from workloads import WORKLOADS, make_config  # noqa: E402

END_TO_END = {"run_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
SETUP_ONLY = 3  # set-up-only processes per invocation, after the warm-up
TIME_LIMIT_S = 170.0  # every process of one invocation ends within this
WORK_DIR = ROOT / ".perfbench"


# ---------------------------------------------------------------------------
# one process


def spawn(workload, config, tmp, index, deadline, traced=False, setup_only=False):
    """Run ``worker.py`` once and return its result, or a failed result."""
    report, result = tmp / f"report-{index}.json", tmp / f"result-{index}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(config),
           str(report), str(result)]
    cmd += ["--trace"] * traced + ["--setup-only"] * setup_only
    try:
        proc = subprocess.run(
            cmd, cwd=tmp, capture_output=True, text=True,
            timeout=max(deadline - time.monotonic(), 1.0),
        )
    except subprocess.TimeoutExpired:
        return {"problems": ["worker timed out"], "timed_out": True}
    if proc.returncode != 0 or not result.exists():
        tail = (proc.stderr or proc.stdout).strip().splitlines()[-3:]
        return {"problems": [f"worker exited {proc.returncode}: {' | '.join(tail)}"]}
    out = json.loads(result.read_text())
    out["report"] = report if report.exists() else None
    out["traced"] = traced
    return out


def failed(sample) -> bool:
    return bool(sample.get("problems")) or sample.get("exit_code") != 0


def payload(sample):
    """The report minus ``metadata``, as write_report lays it out, or the error."""
    if sample.get("report") is None:
        return sample.get("error")
    data = json.loads(sample["report"].read_text())
    data.pop("metadata", None)
    return json.dumps(data, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# one invocation


def measure(workload: str, seed: int, seconds: float, trace: bool):
    WORK_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_DIR))
    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        config = tmp / "config.json"
        config.write_text(json.dumps(make_config(workload, seed), indent=2))
        count = itertools.count()

        def one(**kw):
            return spawn(workload, config, tmp, next(count), deadline, **kw)

        one(setup_only=True)  # warm-up, discarded
        setups = [one(setup_only=True) for _ in range(SETUP_ONLY)]
        samples, start = [], time.monotonic()
        while True:
            unit = [one()] + ([one(traced=True)] if trace else [])
            samples += unit
            if trace:
                twin, traced = unit
                if not traced.get("timed_out") and payload(traced) != payload(twin):
                    traced.setdefault("problems", []).append(
                        "traced report differs from the untraced one outside metadata"
                    )
            elapsed = time.monotonic() - start
            per_unit = elapsed / (len(samples) // len(unit))
            if any(s.get("timed_out") for s in unit) or elapsed + per_unit > seconds:
                break
        return setups, samples
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


# ---------------------------------------------------------------------------
# summaries


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def end_to_end(setups, samples):
    ok = [s for s in samples if not failed(s)]
    setup_values = [s["setup_s"] for s in setups + samples if "setup_s" in s]
    out = {}
    for name in END_TO_END:
        values = setup_values if name == "setup_s" else [s[name] for s in ok]
        out[name] = quartiles(values) + (len(values),) if values else None
    return out


def per_layer(samples):
    traced = [s for s in samples if s.get("traced") and not s.get("timed_out")]
    untraced = [s for s in samples if not s.get("traced") and "run_s" in s]
    if not traced:
        raise SystemExit("error: no traced run finished in time")
    runs = [layer_metrics(s["spans"]) for s in traced]
    out = {
        name: (runs[0][name] if name in EXACT_METRICS
               else statistics.median(r[name] for r in runs))
        for name in LAYER_METRICS if name != "trace.overhead_ratio"
    }
    out["trace.overhead_ratio"] = (
        statistics.median(s["run_s"] for s in traced)
        / statistics.median(s["run_s"] for s in untraced) - 1.0
    )
    repeat = all(r[n] == runs[0][n] for r in runs for n in EXACT_METRICS)
    return out, repeat, traced


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.blake2b(digest_size=8)
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "num_threads_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "commit": commit(),
        "source_digest": digest.hexdigest(),
        "seed": seed,
    }


def commit():
    """HEAD of the checkout if it is a git work tree, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def report_workload(workload, seed, seconds, trace):
    """Measure one workload, print its human-readable block, return its result."""
    print(f"== {workload}  seed {seed}  trace {int(trace)}  "
          "(closed loop, 1 client, one fresh process per run)")
    setups, samples = measure(workload, seed, seconds, trace)
    for i, s in enumerate(samples, 1):
        kind = "traced" if s.get("traced") else "run"
        times = (f"setup {s['setup_s']:.3f} s  run {s['run_s']:.3f} s  "
                 f"cpu {s['cpu_s']:.2f} s  rss {s['peak_rss_mb']:.0f} MB"
                 if "run_s" in s else "no timings")
        status = f"exit {s.get('exit_code')}"
        if s.get("error"):
            status += f": {s['error']}"
        if s.get("problems"):
            status += "  GATE: " + "; ".join(s["problems"])
        print(f"  {kind} {i}: {times}  {status}")

    n_failed = sum(failed(s) for s in samples)
    correct = not any(s.get("problems") for s in samples)
    print(f"  fail_share  {n_failed}/{len(samples)} = {n_failed / len(samples):.3g} ratio")
    if trace:
        metrics, repeat, traced = per_layer(samples)
        for name, (unit, _) in LAYER_METRICS.items():
            print(f"  {name:32s} {metrics[name]:.6g} {unit}")
        m = metrics

        def counted(what, calls, ratio):
            return f"{calls} {what}, {round(calls * ratio)} distinct"

        print("  redundancy: " + "; ".join([
            counted("solves", m["eigen.sparse_calls"] + m["eigen.dense_calls"],
                    m["eigen.solve_unique_ratio"]),
            counted("scalar assemblies", m["assembly.scalar_calls"],
                    m["assembly.scalar_unique_ratio"]),
            counted("refines", m["mesh.refine_calls"], m["mesh.refine_unique_ratio"]),
        ]))
        print(f"  counts repeat exactly across {len(traced)} traced runs: {repeat}")
        spans = traced[0]["spans"]
        for name, wall, share in check_coverage(spans, self_times(spans)):
            print(f"  {name:20s} {wall:9.4f} s, {100 * share:.2f} % in named layers")
        units = {n: u for n, (u, _) in LAYER_METRICS.items()}
    else:
        summary = end_to_end(setups, samples)
        metrics = {}
        for name, unit in END_TO_END.items():
            stats = summary[name]
            if stats is None:
                print(f"  {name:12s} unbounded {unit} (no successful run)")
                metrics[name] = None
            else:
                q1, med, q3, n = stats
                print(f"  {name:12s} {med:.4f} {unit}  (q1 {q1:.4g}, q3 {q3:.4g}, n={n})")
                metrics[name] = med
        units = END_TO_END
    return {
        "correct": correct,
        "attempted": len(samples),
        "failed": n_failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "surfspec" / "cli.py").is_file():
        print(f"error: no surfspec sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    print("environment " + json.dumps(environment(args.seed), sort_keys=True))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {w: report_workload(w, args.seed, args.seconds, bool(args.trace))
               for w in names}
    if len(results) == 1:
        final = results[args.workload]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
