"""The golden CLI corpus: a fixed command set, its regeneration and a drift report.

Every case runs ``sqgreen.cli.main`` in-process on one command line.  The
corpus directory holds, per case, the command's output file (``NAME.csv`` or
``NAME.json``; none when the command writes nothing), its standard error
(``NAME.err``, only when not empty) and, in ``exit_codes.json``, its exit code.
``tests/test_golden.py`` requires byte identity with the checked-in corpus.

A change that moves the printed digits on purpose regenerates the corpus and
records the drift between the two trees::

    PYTHONPATH=src python tests/golden_corpus.py regen /tmp/new
    PYTHONPATH=src python tests/golden_corpus.py drift tests/golden /tmp/new
    PYTHONPATH=src python tests/golden_corpus.py regen          # rewrite tests/golden

``drift`` compares the two trees field by field.  For every column (a CSV
header, a JSON row key, or the path of a leaf in a nested JSON report) it
prints the largest relative drift and the largest distance in units in the
last place (ULP) over the values that differ, and it lists the cases whose exit
code, standard error, row count or text fields changed, and the cases that one
corpus holds and the other lacks.  It exits 1 when it lists any such case,
since a re-baseline on purpose moves digits only, and 0 otherwise.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import shutil
import struct
import sys
import tempfile
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"
EXIT_CODES = "exit_codes.json"

_BARRIER = ["--v0=5", "--a=1", "--b=2"]
_STAIRCASE = ["--breakpoints=1,2,3", "--heights=0,4,-1,0"]
_GRID = ["--r-grid=0:2.5:0.5", "--s-grid=0:2.5:0.5"]
_STAIR_GRID = ["--r-grid=0:4:0.8", "--s-grid=0.5:4:0.8"]

#: name -> command line without ``--out``; each subcommand, a barrier and a
#: 3-step staircase, real and complex energies, exit codes 0, 1 and 2
CASES: dict[str, list[str]] = {
    "eval_barrier_complex": ["eval", *_BARRIER, "--energy=1.5+0.2i", *_GRID],
    "eval_barrier_lower_json": ["eval", *_BARRIER, "--energy=3-0.4i", *_GRID, "--format=json"],
    "eval_barrier_real_both": ["eval", *_BARRIER, "--energy=1.5", "--direction=both", *_GRID],
    "eval_staircase_complex": ["eval", *_STAIRCASE, "--energy=2-0.5i", *_STAIR_GRID],
    "eval_staircase_real_both": [
        "eval", *_STAIRCASE, "--energy=1.5", "--direction=both", *_STAIR_GRID,
    ],
    # a square grid whose axis crosses every step: each entry below the diagonal
    # prints its mirror's digits, and chi mixes its sin and plane-wave regions
    "eval_staircase_square_json": [
        "eval", *_STAIRCASE, "--energy=1.5", "--direction=both", "--r-grid=0:4:0.5",
        "--s-grid=0:4:0.5", "--format=json",
    ],
    "eval_branch_point": ["eval", *_BARRIER, "--energy=5", "--r=1", "--s=1"],
    "eval_barrier_invalid": ["eval", "--v0=5", "--a=2", "--b=1", "--energy=1.5", "--r=1", "--s=1"],
    "limit_barrier": ["limit-study", *_BARRIER, "--energy=1", "--r=0.7", "--s=1.8"],
    "limit_staircase": ["limit-study", *_STAIRCASE, "--energy=1.5", "--r=0.7", "--s=2.5"],
    # one limit study per radius of a grid, both directions, at one energy
    "limit_barrier_grid": [
        "limit-study", *_BARRIER, "--energy=1", "--r-grid=0.5:2.5:0.5", "--s=1.8",
    ],
    # a minus study alone, whose inner region is evanescent at E = 1.5
    "limit_well_minus": [
        "limit-study", "--breakpoints=1,2", "--heights=3,-2,0", "--energy=1.5", "--r=0.5",
        "--s=2.5", "--direction=minus", "--mu0=0.01",
    ],
    "limit_staircase_json": [
        "limit-study", *_STAIRCASE, "--energy=1.5", "--r=0.7", "--s=2.5", "--format=json",
    ],
    # the real part of a resonance of width 1.4e-6: no row settles within 40 halvings
    "limit_resonance": [
        "limit-study", "--v0=20", "--a=1", "--b=3", "--energy=6.44187942446349",
        "--r=0.5", "--s=0.5",
    ],
    "verify_barrier": ["verify", *_BARRIER, "--energy=1", "--seed=7", "--n-random=1"],
    "verify_barrier_corrupt": [
        "verify", *_BARRIER, "--energy=1", "--seed=7", "--n-random=1",
        "--corrupt-wronskian=1.01",
    ],
    "verify_staircase": ["verify", *_STAIRCASE, "--energy=1.5"],
    # the limit_resonance instance: the report is written, limit_equivalence fails
    "verify_resonance": [
        "verify", "--v0=20", "--a=1", "--b=3", "--energy=6.44187942446349",
        "--seed=7", "--n-random=1",
    ],
    "poles_barrier": ["pole-scan", *_BARRIER, "--box=3:6:-1:-0.01"],
    "poles_well_json": [
        "pole-scan", "--v0=-5", "--a=1", "--b=2", "--box=-5:-0.5:-0.5:0.5", "--format=json",
    ],
    "poles_staircase": ["pole-scan", *_STAIRCASE, "--box=0.5:8:-2:-0.01"],
    "poles_staircase_wide": ["pole-scan", *_STAIRCASE, "--box=0.5:40:-6:-0.01"],
    # a box holding no root: the header alone, and no rows
    "poles_empty": ["pole-scan", *_BARRIER, "--box=0.5:0.6:-0.02:-0.01"],
    "poles_empty_json": ["pole-scan", *_BARRIER, "--box=0.5:0.6:-0.02:-0.01", "--format=json"],
}


def _suffix(argv: list[str]) -> str:
    return ".json" if argv[0] == "verify" or "--format=json" in argv else ".csv"


def run_case(name: str, outdir: Path) -> tuple[int, bytes | None, str]:
    """Run one case; returns (exit code, output bytes or None, stderr text)."""
    from sqgreen.cli import main

    argv = CASES[name]
    out = outdir / f"{name}{_suffix(argv)}"
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main([*argv, f"--out={out}"])
    return rc, (out.read_bytes() if out.exists() else None), err.getvalue()


def read_case(corpus: Path, name: str) -> tuple[int, bytes | None, str]:
    """The recorded (exit code, output bytes or None, stderr text) of one case."""
    rc = json.loads((corpus / EXIT_CODES).read_text())[name]
    out = corpus / f"{name}{_suffix(CASES[name])}"
    err = corpus / f"{name}.err"
    return (
        rc,
        out.read_bytes() if out.exists() else None,
        err.read_text() if err.exists() else "",
    )


def regen(corpus: Path) -> None:
    """Run every case, then write the corpus into ``corpus``.

    The cases run in a scratch directory first, so a case that raises leaves
    ``corpus`` as it was, and the error names that case.
    """
    with tempfile.TemporaryDirectory() as scratch:
        staged = Path(scratch)
        codes = {}
        for name in CASES:
            try:
                codes[name], _, err = run_case(name, staged)
            except (Exception, SystemExit) as exc:
                raise RuntimeError(f"golden case {name!r} raised {exc!r}") from exc
            if err:
                (staged / f"{name}.err").write_text(err)
        (staged / EXIT_CODES).write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n")
        corpus.mkdir(parents=True, exist_ok=True)
        for stale in corpus.iterdir():
            if stale.name == EXIT_CODES or stale.stem in CASES:
                stale.unlink()
        for path in staged.iterdir():
            shutil.copyfile(path, corpus / path.name)


# -- drift between two corpora ------------------------------------------------


def _ordered(x: float) -> int:
    """The bits of a double as an integer that is monotonic in the value."""
    bits = struct.unpack("<q", struct.pack("<d", x))[0]
    return bits if bits >= 0 else -(2**63) - bits


def ulp_distance(x: float, y: float) -> int:
    return abs(_ordered(float(x)) - _ordered(float(y)))


def relative_drift(x: float, y: float) -> float:
    if x == y:
        return 0.0
    return abs(x - y) / max(abs(x), abs(y))


def _number(v):
    """A float for a numeric field, None for anything else."""
    if isinstance(v, bool):
        return None
    try:
        return float(v)
    except (TypeError, ValueError):
        return None


def _leaves(node, path: str, out: list[tuple[str, object]]) -> None:
    if isinstance(node, dict):
        for key in sorted(node):
            _leaves(node[key], f"{path}.{key}" if path else key, out)
    elif isinstance(node, list):
        for j, item in enumerate(node):
            label = item["name"] if isinstance(item, dict) and "name" in item else str(j)
            _leaves(item, f"{path}[{label}]", out)
    else:
        out.append((path, node))


def _records(text: bytes, suffix: str) -> list[list[tuple[str, object]]]:
    """The output as rows of (column, value) pairs."""
    if suffix == ".csv":
        header, *rows = list(csv.reader(io.StringIO(text.decode())))
        return [list(zip(header, row)) for row in rows]
    payload = json.loads(text)
    if set(payload) == {"rows"}:
        return [sorted(row.items()) for row in payload["rows"]]
    leaves: list[tuple[str, object]] = []
    _leaves(payload, "", leaves)
    return [leaves]


def _recorded(corpus: Path) -> set[str]:
    """The cases whose exit codes ``corpus`` holds."""
    return set(json.loads((corpus / EXIT_CODES).read_text()))


def drift(old: Path, new: Path) -> tuple[list[dict], list[str]]:
    """Per (case, column) drift of the numeric fields, and notes on other changes.

    Only columns with at least one differing value get a row; each row counts
    the values compared and the values that differ.  A case of the case list
    that OLD lacks is noted as added; one that NEW lacks, or that is no longer
    in the case list, as removed.
    """
    table, notes = [], []
    in_old, in_new = _recorded(old), _recorded(new)
    for name in [*CASES, *sorted((in_old | in_new) - CASES.keys())]:
        if not (name in CASES and name in in_old and name in in_new):
            notes.append(f"{name}: case {'removed' if name in in_old else 'added'}")
            continue
        rc_old, out_old, err_old = read_case(old, name)
        rc_new, out_new, err_new = read_case(new, name)
        if rc_old != rc_new:
            notes.append(f"{name}: exit code {rc_old} -> {rc_new}")
        if err_old != err_new:
            notes.append(f"{name}: stderr {err_old.strip()!r} -> {err_new.strip()!r}")
        if out_old is None or out_new is None:
            if (out_old is None) != (out_new is None):
                notes.append(f"{name}: output {'added' if out_old is None else 'removed'}")
            continue
        if out_old == out_new:
            continue
        suffix = _suffix(CASES[name])
        rows_old, rows_new = _records(out_old, suffix), _records(out_new, suffix)
        if len(rows_old) != len(rows_new):
            notes.append(f"{name}: {len(rows_old)} -> {len(rows_new)} rows (common prefix compared)")
        columns: dict[str, dict] = {}
        for row_old, row_new in zip(rows_old, rows_new):
            new_fields = dict(row_new)
            for column, v_old in row_old:
                stat = columns.setdefault(
                    column, {"values": 0, "differ": 0, "rel": 0.0, "ulp": 0, "text": 0}
                )
                v_new = new_fields.get(column)
                stat["values"] += 1
                if v_old == v_new:
                    continue
                stat["differ"] += 1
                x, y = _number(v_old), _number(v_new)
                if x is None or y is None:
                    stat["text"] += 1
                    continue
                stat["rel"] = max(stat["rel"], relative_drift(x, y))
                stat["ulp"] = max(stat["ulp"], ulp_distance(x, y))
        for column, stat in columns.items():
            if stat["text"]:
                notes.append(f"{name}: {stat['text']} non-numeric '{column}' fields changed")
            if stat["differ"] > stat["text"]:
                table.append({"case": name, "column": column, **stat})
    return table, notes


def format_drift(old: Path, new: Path) -> str:
    return _format(*drift(old, new))


def _format(table: list[dict], notes: list[str]) -> str:
    changed = {row["case"] for row in table} | {n.split(":")[0] for n in notes}
    lines = [
        "| case | column | values | differ | max rel drift | max ULP |",
        "| --- | --- | ---: | ---: | ---: | ---: |",
    ]
    lines += [
        f"| {row['case']} | {row['column']} | {row['values']} | {row['differ']} "
        f"| {row['rel']:.2e} | {row['ulp']} |"
        for row in table
    ]
    lines += [f"- {note}" for note in notes]
    same = [name for name in CASES if name not in changed]
    lines.append(f"- byte-identical: {', '.join(same) if same else 'none'}")
    return "\n".join(lines)


def main(argv: list[str]) -> int:
    if len(argv) in (1, 2) and argv[0] == "regen":
        regen(Path(argv[1]) if len(argv) == 2 else GOLDEN)
        return 0
    if len(argv) == 3 and argv[0] == "drift":
        table, notes = drift(Path(argv[1]), Path(argv[2]))
        print(_format(table, notes))
        if notes:
            print(f"error: {len(notes)} change(s) beyond digits, listed above", file=sys.stderr)
            return 1
        return 0
    print("usage: golden_corpus.py regen [DIR] | drift OLD NEW", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
