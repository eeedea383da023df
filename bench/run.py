"""Benchmark of the ``sqgreen`` command line, end to end and per layer.

Usage, from the root of a checkout:

    python3 bench/run.py --workload {grid,limit,scan,verify} --seed N \
        --seconds S --trace {0,1} [--size {full,smoke}]

The inputs of a workload are generated from ``--seed`` (see workloads.py).
Each pass runs in a fresh interpreter (child.py), one at a time: it times
``import sqgreen.cli``, runs the workload's command lines through
``sqgreen.cli.main`` and reports its peak RSS; outputs are checked after the
timed window.  Passes repeat for ``--seconds`` (at least MIN_PASSES).

``--trace 0`` reports the end-to-end metrics as medians over the passes:
``wall_s``, the wall time of the command list, and ``setup_s``, the time of
the import (extra import-only children make up MIN_SETUPS samples), both
rescaled to a fixed CPU speed by clock.py, because a CPU shared with other
tenants switches speed for minutes at a time; and ``peak_rss_mb``, the child's peak RSS.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of tracing.py, plus ``trace.overhead_s``, the traced minus
the untraced raw wall time.

The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``.  The line before it records
the environment (commit, Python and numpy versions, CPUs, load average before
and after, CPU time of the passes, the failure ratio) and every sample, raw
and calibrated.  Both are also kept under ``.bench_out/``, with the raw spans
of the last traced pass.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from tracing import metric_units

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
MIN_PASSES = 3
MIN_SETUPS = 7
#: every run must end well inside the 180 s a benchmark run may take
DEADLINE_S = 170.0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class ChildFailed(RuntimeError):
    """A measuring child crashed, timed out or printed no record."""


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def _loadavg() -> list[float] | None:
    try:
        return [float(x) for x in Path("/proc/loadavg").read_text().split()[:3]]
    except OSError:
        return None


class Runner:
    """Starts the children of one run, one at a time, and reads their records."""

    def __init__(self, plan_path: Path, workdir: Path):
        self.plan_path = plan_path
        self.workdir = workdir
        self.t0 = time.perf_counter()
        self.env = dict(os.environ, PYTHONHASHSEED="0", **{v: "1" for v in THREAD_VARS})

    def elapsed(self) -> float:
        return time.perf_counter() - self.t0

    def child(self, mode: str) -> dict:
        timeout = DEADLINE_S - self.elapsed()
        if timeout <= 0:
            raise ChildFailed("out of time before a child could start")
        argv = [sys.executable, str(HERE / "child.py"), mode, str(self.plan_path),
                str(self.workdir)]
        try:
            proc = subprocess.run(argv, cwd=ROOT, env=self.env, capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            raise ChildFailed(f"{mode} child exceeded {timeout:.0f} s") from exc
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise ChildFailed(f"{mode} child exited {proc.returncode}: {proc.stderr[-2000:]}")
        for out in self.workdir.glob("cmd*"):
            out.unlink()
        return json.loads(lines[-1])


def _median(records: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in records)


def measure(runner: Runner, seconds: float, trace: bool) -> tuple[list[dict], list[dict], list[dict]]:
    """(untraced passes, traced passes, import-only samples) of one run.

    Another pass starts only while one more of the last one's length still
    ends within ``seconds``, once the minimum number of passes is done."""
    runner.child("import")  # warm-up: fills the bytecode and file caches
    runs: list[dict] = []
    traced: list[dict] = []
    imports: list[dict] = []
    while True:
        t0 = runner.elapsed()
        runs.append(runner.child("run"))
        if trace:
            traced.append(runner.child("trace"))
        enough = bool(traced) if trace else len(runs) >= MIN_PASSES
        if enough and 2.0 * runner.elapsed() - t0 > seconds:
            break
    while not trace and len(runs) + len(imports) < MIN_SETUPS:
        imports.append(runner.child("import"))
    return runs, traced, imports


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.PLANS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "sqgreen" / "cli.py").is_file():
        print(f"error: no sqgreen sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.size}"
    workdir = OUT / f"{tag}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    plan_path = workdir / "plan.json"
    plan_path.write_text(json.dumps(workloads.plan(args.workload, args.seed, args.size == "smoke")))

    load_before = _loadavg()
    runner = Runner(plan_path, workdir)
    try:
        runs, traced, imports = measure(runner, args.seconds, bool(args.trace))
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if (workdir / "spans.npz").exists():
            (workdir / "spans.npz").replace(OUT / f"{tag}-spans.npz")
        shutil.rmtree(workdir, ignore_errors=True)

    passes = runs + traced
    attempted = sum(r["attempted"] for r in passes)
    failed = sum(r["failed"] for r in passes)
    if args.trace:
        units = metric_units()
        # every layer from one traced pass, the one of median wall time, so
        # that the layers' self times add up to its trace.wall_s
        middle = sorted(traced, key=lambda r: r["raw_wall_s"])[(len(traced) - 1) // 2]
        values = dict(middle["layers"])
        values["trace.overhead_s"] = _median(traced, "raw_wall_s") - _median(runs, "raw_wall_s")
    else:
        units = END_TO_END_UNITS
        values = {
            "wall_s": _median(runs, "wall_s"),
            "setup_s": _median(runs + imports, "setup_s"),
            "peak_rss_mb": _median(runs, "peak_rss_mb"),
        }

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "size": args.size,
        "commit": _commit(),
        "python": platform.python_version(),
        "numpy": passes[0]["numpy"],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_before": load_before,
        "loadavg_after": _loadavg(),
        "elapsed_s": runner.elapsed(),
        "fail_ratio": failed / attempted,
        "cpu_s": _median(runs, "cpu_s"),
        "wall_s_samples": [r["wall_s"] for r in runs],
        "raw_wall_s_samples": [r["raw_wall_s"] for r in runs],
        "cpu_s_samples": [r["cpu_s"] for r in runs],
        "setup_s_samples": [r["setup_s"] for r in runs + imports],
        "raw_setup_s_samples": [r["raw_setup_s"] for r in runs + imports],
        "traced_raw_wall_s_samples": [r["raw_wall_s"] for r in traced],
        "absent": traced[0]["absent"] if traced else [],
        "failures": [f for r in passes for f in r["failures"]][:10],
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    (OUT / f"{tag}.json").write_text(json.dumps({"record": record, "result": result}, indent=1))
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
