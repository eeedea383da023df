"""One measured pass of a workload in a fresh interpreter.

Usage: python3 bench/child.py MODE PLAN WORKDIR, with MODE one of ``import``
(time the import only), ``run`` (one untraced pass) or ``trace`` (one traced
pass).  The child times ``import sqgreen.cli``, then runs the planned command
lines in-process through ``sqgreen.cli.main`` and records its peak RSS.  The
output checks run after that, outside the timed window.  The last line of
standard output is a JSON record of what was measured.

Untraced passes are timed with clock.CalibratedTimer, which rescales wall
time to a fixed CPU speed; the import time is rescaled the same way.  Raw
times are reported beside the calibrated ones.  Traced passes report raw
times only, so that no probe runs inside a traced span.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

from clock import CalibratedTimer, calibrate

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_cli():
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import sqgreen.cli as cli

    setup_s = time.perf_counter() - t0
    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"sqgreen was imported from {cli.__file__}, not from {SRC}")
    return cli, setup_s


def _output_path(workdir: Path, j: int, cmd: dict) -> Path:
    return workdir / f"cmd{j:04d}.{'json' if cmd['kind'] == 'verify' else 'csv'}"


def _output_size(path: Path) -> tuple[int, int]:
    """(data rows, bytes) of one output file."""
    if not path.exists():
        return 0, 0
    text = path.read_text()
    if path.suffix == ".json":
        rows = len(json.loads(text).get("rows", []))
    else:
        rows = max(text.count("\n") - 1, 0)
    return rows, len(text.encode())


def _run_commands(cli, plan: list[dict], outputs: list[Path]) -> list:
    """Exit code of each command; a command that raises gets the exception's repr."""
    codes = []
    for cmd, out in zip(plan, outputs):
        try:
            codes.append(cli.main(cmd["argv"] + ["--out", str(out)]))
        except SystemExit as exc:
            codes.append(exc.code)
        except Exception as exc:  # a crashing command is a failed command
            codes.append(repr(exc))
    return codes


def main(argv: list[str]) -> int:
    mode, plan_path, workdir = argv[0], Path(argv[1]), Path(argv[2])
    cli, setup_s = _import_cli()
    record: dict = {"raw_setup_s": setup_s, "setup_s": calibrate(setup_s)}
    if mode == "import":
        print(json.dumps(record))
        return 0

    import numpy

    from checks import check
    from tracing import Tracer

    plan = json.loads(plan_path.read_text())
    outputs = [_output_path(workdir, j, cmd) for j, cmd in enumerate(plan)]
    if mode == "trace":
        tracer = Tracer()
        tracer.install()
        t0 = time.perf_counter()
        codes = _run_commands(cli, plan, outputs)
        record["raw_wall_s"] = time.perf_counter() - t0
        tracer.uninstall()
    else:
        with CalibratedTimer() as timer:
            codes = _run_commands(cli, plan, outputs)
        record.update(wall_s=timer.calibrated_s, raw_wall_s=timer.raw_s, cpu_s=timer.cpu_s)
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures = []
    for j, (cmd, rc, out) in enumerate(zip(plan, codes, outputs)):
        reason = check(cmd, rc, out)
        if reason is not None:
            failures.append(f"command {j} ({' '.join(cmd['argv'])}): {reason}")
    record.update(
        attempted=len(plan), failed=len(failures), failures=failures[:5], numpy=numpy.__version__
    )
    if mode == "trace":
        layers = tracer.metrics(record["raw_wall_s"])
        sizes = [_output_size(out) for out in outputs]
        layers["cli.rows_out"] = sum(rows for rows, _ in sizes)
        layers["cli.bytes_out"] = sum(size for _, size in sizes)
        record.update(layers=layers, absent=tracer.absent)
        tracer.save(workdir / "spans.npz")
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
