import csv
import importlib.util
import itertools
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sqgreen import (
    PiecewisePotential,
    SquareBarrier,
    boundary_limit,
    boundary_limits,
    find_kernel_poles,
    formal_green,
    kernel_grid,
    kernel_pole_residual,
    resolvent_kernel,
)
import sqgreen.cli as cli_module
import sqgreen.kernel as kernel_module
import sqgreen.piecewise as piecewise_module
from sqgreen.cli import _write_json, main, parse_complex, parse_grid
from sqgreen.verification import MAX_RANDOM_INSTANCES
from sqgreen.errors import ConfigError, PoleError

from golden_corpus import CASES


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class TestParsing:
    def test_complex_forms(self):
        assert parse_complex("1.5+0.2i") == 1.5 + 0.2j
        assert parse_complex("2") == 2 + 0j
        assert parse_complex("-0.5i") == -0.5j
        assert parse_complex(" 1.5-0.2I ") == 1.5 - 0.2j
        for text in ("abc", "1i+2", "infinity", "1e309"):  # only a trailing i is the unit
            with pytest.raises(ConfigError):
                parse_complex(text)

    def test_grid_is_closed_open(self):
        pts = parse_grid("0:1:0.25")
        assert pts == [0.0, 0.25, 0.5, 0.75]
        assert parse_grid("0:1.0000001:0.25")[-1] == 1.0

    def test_grid_by_index_multiplication(self):
        pts = parse_grid("0:5:0.05")
        assert len(pts) == 100
        assert pts[99] == 99 * 0.05  # no accumulation drift

    def test_bad_grids(self):
        for spec in ("0:1", "1:0:0.1", "0:1:-0.1", "a:b:c", "0:inf:1", "nan:1:0.1", "0:1:nan",
                     "0:1:1e-300"):  # about 1e300 points
            with pytest.raises(ConfigError):
                parse_grid(spec)


class TestEval:
    def test_complex_energy_csv(self, tmp_path, barrier):
        out = tmp_path / "kernel.csv"
        rc = main(
            ["eval", "--v0", "5", "--a", "1", "--b", "2", "--energy", "1.5+0.2i",
             "--r-grid", "0:5:0.05", "--s", "2.0", "--out", str(out)]
        )
        assert rc == 0
        header, rows = read_csv(out)
        assert header == ["r", "s", "e_re", "e_im", "g_re", "g_im", "provenance"]
        assert len(rows) == 100
        r17 = rows[17]
        expect = resolvent_kernel(barrier, 1.5 + 0.2j, 17 * 0.05, 2.0)
        assert float(r17[4]) == expect.real and float(r17[5]) == expect.imag
        assert r17[6] == "resolvent_kernel"

    def test_real_energy_directions(self, tmp_path, barrier):
        out = tmp_path / "formal.csv"
        rc = main(
            ["eval", "--v0", "5", "--a", "1", "--b", "2", "--energy", "1.5",
             "--r", "0.8", "--s", "2.0", "--direction", "both", "--out", str(out)]
        )
        assert rc == 0
        _, rows = read_csv(out)
        assert [row[6] for row in rows] == ["formal_plus", "formal_minus"]
        expect = formal_green(barrier, 1.5, 0.8, 2.0, "plus")
        assert float(rows[0][4]) == expect.real

    def test_byte_identical_reruns(self, tmp_path):
        args = ["eval", "--v0", "5", "--a", "1", "--b", "2", "--energy", "1.5+0.2i",
                "--r-grid", "0:3:0.1", "--s", "2.0"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_lf_line_endings(self, tmp_path):
        out = tmp_path / "k.csv"
        main(["eval", "--v0", "5", "--a", "1", "--b", "2", "--energy", "1i",
              "--r", "1.0", "--s", "1.0", "--out", str(out)])
        data = out.read_bytes()
        assert b"\r" not in data

    def test_json_format(self, tmp_path):
        out = tmp_path / "k.json"
        rc = main(["eval", "--v0", "5", "--a", "1", "--b", "2", "--energy", "1i",
                   "--r", "1.0", "--s", "1.5", "--format", "json", "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["rows"][0]["provenance"] == "resolvent_kernel"

    def test_staircase_potential(self, tmp_path):
        out = tmp_path / "pw.csv"
        rc = main(["eval", "--breakpoints", "1,2,3", "--heights", "0,4,-1,0",
                   "--energy", "1+1i", "--r", "0.5", "--s", "2.5", "--out", str(out)])
        assert rc == 0

    def test_config_errors_exit_2(self, tmp_path):
        out = str(tmp_path / "x.csv")
        bad = [
            ["eval", "--v0", "5", "--a", "3", "--b", "2", "--energy", "1i",
             "--r", "1", "--s", "1", "--out", out],
            ["eval", "--v0", "5", "--a", "1", "--b", "2", "--energy", "1i",
             "--out", out],  # no r/s
            ["eval", "--v0", "5", "--a", "1", "--b", "2", "--energy", "-1",
             "--r", "1", "--s", "1", "--out", out],  # real energy must be > 0
            ["eval", "--breakpoints", "1,2", "--heights", "0,4,-1",
             "--energy", "1", "--r", "1", "--s", "1", "--out", out],  # outermost height not 0
        ]
        barrier = ["--v0=5", "--a=1", "--b=2"]
        complex_e = ["eval", *barrier, "--energy=1.5+0.2i"]
        bad += [
            complex_e + ["--r=1", "--s=nan", f"--out={out}"],  # non-finite radii
            complex_e + ["--r=1", "--s=inf", f"--out={out}"],
            complex_e + ["--r-grid=0:inf:1", "--s=1", f"--out={out}"],
            complex_e + ["--r-grid=nan:1:0.1", "--s=1", f"--out={out}"],
            complex_e + ["--r-grid=0:1:nan", "--s=1", f"--out={out}"],
            complex_e + ["--r-grid=-1:1:0.5", "--s=1", f"--out={out}"],  # DomainError
            ["eval", *barrier, "--energy=5", "--r=1", "--s=1", f"--out={out}"],  # BranchPointError
            ["limit-study", *barrier, "--energy=5", "--r=1", "--s=1", f"--out={out}"],
            # chi overflows at r = 600; the kernel would be nan
            ["eval", *barrier, "--energy=1.5+5i", "--r=600", "--s=600", f"--out={out}"],
            # the tail at complex E follows Im E, so a direction cannot be honoured
            ["eval", *barrier, "--energy=1+1i", "--direction=minus", "--r=1", "--s=1",
             f"--out={out}"],
        ]
        for argv in bad:
            assert main(argv) == 2, argv

    def test_real_energy_default_direction_is_plus(self, tmp_path):
        out = tmp_path / "plus.csv"
        assert main(["eval", "--v0=5", "--a=1", "--b=2", "--energy=1.5", "--r=0.8", "--s=2",
                     f"--out={out}"]) == 0
        _, rows = read_csv(out)
        assert [row[6] for row in rows] == ["formal_plus"]

    def test_pole_error_exits_2(self, tmp_path, monkeypatch, capsys):
        def vanishing(*args):
            raise PoleError("kernel denominator vanishes")

        monkeypatch.setattr("sqgreen.cli.kernel_grid", vanishing)
        rc = main(["eval", "--v0=5", "--a=1", "--b=2", "--energy=1.5", "--r=1", "--s=1",
                   f"--out={tmp_path / 'x.csv'}"])
        assert rc == 2
        assert capsys.readouterr().err == "error: kernel denominator vanishes\n"

    def test_overflowing_waves_exit_2(self, tmp_path, capsys):
        # exp at the outer edge 1e308 raised a bare ValueError: a traceback and exit 1
        rc = main(["eval", "--v0=5", "--a=1", "--b=1e308", "--energy=7", "--r=0.5", "--s=0.7",
                   f"--out={tmp_path / 'x.csv'}"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "overflow" in err

    def test_values_with_leading_minus(self, tmp_path):
        out = tmp_path / "neg.csv"
        rc = main(["eval", "--breakpoints", "1,2", "--heights", "-0.7,1,0",
                   "--energy", "-1.5+0.2i", "--r", "0.5", "--s", "1.5", "--out", str(out)])
        assert rc == 0
        _, rows = read_csv(out)
        expect = resolvent_kernel(PiecewisePotential((1, 2), (-0.7, 1, 0)), -1.5 + 0.2j, 0.5, 1.5)
        assert rows == [["0.5", "1.5", "-1.5", "0.20000000000000001",
                         format(expect.real, ".17g"), format(expect.imag, ".17g"),
                         "resolvent_kernel"]]


def _fmt(x):
    return format(float(x), ".17g")


GRID_CASES = {
    # r and s cross the barrier edges 1 and 2 and meet on the diagonal
    "barrier_complex": (
        ["--v0", "5", "--a", "1", "--b", "2", "--energy", "1.5+0.2i",
         "--r-grid", "0:3:0.25", "--s-grid", "0:3:0.5"],
        SquareBarrier(5.0, 1.0, 2.0), 1.5 + 0.2j, None,
    ),
    "staircase_complex": (
        ["--breakpoints", "1,2,3", "--heights", "0,4,-1,0", "--energy", "2-0.5i",
         "--r-grid", "0:4:0.2", "--s-grid", "0.5:4:0.5"],
        PiecewisePotential((1.0, 2.0, 3.0), (0.0, 4.0, -1.0, 0.0)), 2.0 - 0.5j, None,
    ),
    "barrier_real_both": (
        ["--v0", "5", "--a", "1", "--b", "2", "--energy", "1.5", "--direction", "both",
         "--r-grid", "0:3:0.25", "--s-grid", "0:3:0.5"],
        SquareBarrier(5.0, 1.0, 2.0), 1.5, ("plus", "minus"),
    ),
}


@pytest.mark.parametrize("case", sorted(GRID_CASES))
def test_eval_grid_matches_per_sample_rows(tmp_path, case):
    """A whole eval grid, byte for byte, against rows built from scalar kernel calls."""
    argv, p, e, directions = GRID_CASES[case]
    out = tmp_path / "grid.csv"
    assert main(["eval", *argv, "--out", str(out)]) == 0
    rs = parse_grid(argv[argv.index("--r-grid") + 1])
    ss = parse_grid(argv[argv.index("--s-grid") + 1])
    lines = ["r,s,e_re,e_im,g_re,g_im,provenance"]
    for r in rs:
        for s in ss:
            if directions is None:
                samples = [(resolvent_kernel(p, e, r, s), "resolvent_kernel")]
            else:
                samples = [(formal_green(p, e, r, s, d), f"formal_{d}") for d in directions]
            for g, provenance in samples:
                lines.append(",".join([_fmt(r), _fmt(s), _fmt(e.real), _fmt(e.imag),
                                       _fmt(g.real), _fmt(g.imag), provenance]))
    assert out.read_bytes() == ("\n".join(lines) + "\n").encode()


def _reference_eval(p, e, rs, ss, directions, fmt) -> bytes:
    """The eval output of a per-entry loop that prints every entry's own digits."""
    grids = [
        (kernel_grid(p, e, rs, ss, d).tolist(), "resolvent_kernel" if d is None else f"formal_{d}")
        for d in directions
    ]
    header = ["r", "s", "e_re", "e_im", "g_re", "g_im", "provenance"]
    e_fields = "%.17g,%.17g" % (e.real, e.imag)
    lines = []
    for i, r in enumerate(rs):
        for j, s in enumerate(ss):
            for values, provenance in grids:
                g = values[i][j]
                lines.append(
                    "%s,%s,%s,%.17g,%.17g,%s"
                    % ("%.17g" % r, "%.17g" % s, e_fields, g.real, g.imag, provenance)
                )
    if fmt == "csv":
        return "".join(line + "\n" for line in [",".join(header), *lines]).encode()
    rows = [dict(zip(header, line.split(","))) for line in lines]
    return (json.dumps({"rows": rows}, indent=2, sort_keys=True) + "\n").encode()


_STAIR = PiecewisePotential((1.0, 2.0, 3.0), (0.0, 4.0, -1.0, 0.0))
_STAIR_ARGS = ["--breakpoints=1,2,3", "--heights=0,4,-1,0"]
REFERENCE_CASES = {
    # the axes print the same fields: entries below the diagonal reuse their mirror's
    "square_complex": (_STAIR_ARGS + ["--energy=2-0.5i", "--r-grid=0:4:0.25", "--s-grid=0:4:0.25"],
                       _STAIR, 2.0 - 0.5j, [None]),
    "square_both": (_STAIR_ARGS + ["--energy=1.5", "--direction=both",
                                   "--r-grid=0:4:0.25", "--s-grid=0:4:0.25"],
                    _STAIR, 1.5, ["plus", "minus"]),
    "square_one_point": (["--v0=5", "--a=1", "--b=2", "--energy=1.5+0.2i", "--r=1.5", "--s=1.5"],
                         SquareBarrier(5.0, 1.0, 2.0), 1.5 + 0.2j, [None]),
    "non_square": (_STAIR_ARGS + ["--energy=2+0.5i", "--r-grid=0:4:0.25", "--s-grid=0:4:0.5"],
                   _STAIR, 2.0 + 0.5j, [None]),
    # as long as each other and partly the same radii, but not the same axis
    "overlapping": (_STAIR_ARGS + ["--energy=1.5", "--direction=both",
                                   "--r-grid=0:3:0.25", "--s-grid=1:4:0.25"],
                    _STAIR, 1.5, ["plus", "minus"]),
    # -0.0 and 0.0 are equal radii that print differently
    "signed_zeros": (_STAIR_ARGS + ["--energy=1.5", "--direction=both", "--r=-0.0", "--s=0.0"],
                     _STAIR, 1.5, ["plus", "minus"]),
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
def test_eval_matches_the_per_entry_reference_loop(tmp_path, case, fmt):
    argv, p, e, directions = REFERENCE_CASES[case]
    out = tmp_path / f"grid.{fmt}"
    assert main(["eval", *argv, f"--format={fmt}", f"--out={out}"]) == 0
    args = cli_module.build_parser().parse_args(["eval", *argv, "--out=x"])
    _, _, rs, ss = cli_module._request(args)
    assert out.read_bytes() == _reference_eval(p, e, rs, ss, directions, fmt)


class TestLimitStudy:
    def test_rows_and_convergence(self, tmp_path, barrier):
        out = tmp_path / "limit.csv"
        rc = main(["limit-study", "--v0", "5", "--a", "1", "--b", "2", "--energy", "1",
                   "--r", "0.7", "--s", "1.8", "--direction", "both", "--out", str(out)])
        assert rc == 0
        header, rows = read_csv(out)
        directions = {row[3] for row in rows}
        assert directions == {"plus", "minus"}
        plus_rows = [row for row in rows if row[3] == "plus"]
        # trajectory rows are the halving sequence: index column counts them
        assert [int(row[4]) for row in plus_rows] == list(range(len(plus_rows)))
        mus = [float(row[5]) for row in plus_rows]
        assert all(m1 > m2 for m1, m2 in zip(mus, mus[1:]))
        assert mus[-1] < 1e-8
        for row in rows:
            assert float(row[12]) <= 1e-8  # |extrapolated - formal|
            assert row[13] == "true"

    def test_a_grid_study_sweeps_the_engine_once(self, tmp_path, monkeypatch):
        # five radii in both directions at one energy: the minus rows are the
        # conjugate of the one sweep above the axis, so one numpy matching runs
        libs = []
        regions = piecewise_module._chi_regions

        def counted(ks, breakpoints, lib):
            libs.append(lib.__name__)
            return regions(ks, breakpoints, lib)

        for module in (kernel_module, piecewise_module):
            monkeypatch.setattr(module, "_chi_regions", counted)
        assert main([*CASES["limit_barrier_grid"], f"--out={tmp_path / 'grid.csv'}"]) == 0
        assert libs.count("numpy") == 1

    @pytest.mark.parametrize("case", ["limit_barrier_grid", "eval_barrier_real_both"])
    def test_both_directions_match_chi_once(self, tmp_path, monkeypatch, case):
        # both directions (limit-study's default): the formal plus and minus
        # kernels of the one real energy share chi; each direction matched its own
        libs = []
        matching = piecewise_module._chi_amplitudes

        def counted(ks, breakpoints, lib):
            libs.append(lib.__name__)
            return matching(ks, breakpoints, lib)

        monkeypatch.setattr(piecewise_module, "_chi_amplitudes", counted)
        assert main([*CASES[case], f"--out={tmp_path / 'out.csv'}"]) == 0
        assert libs.count("cmath") == 1

    def test_overflowing_energy_exits_2(self, tmp_path, capsys):
        rc = main(["limit-study", "--v0=5", "--a=1", "--b=2", "--energy=1e300", "--r=1",
                   "--s=1", f"--out={tmp_path / 'x.csv'}"])
        assert rc == 2
        assert "overflow" in capsys.readouterr().err

    def test_complex_energy_rejected(self, tmp_path, capsys):
        rc = main(["limit-study", "--v0", "5", "--a", "1", "--b", "2",
                   "--energy", "1+1i", "--r", "1", "--s", "1", "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestStaircases:
    STAIR = ["--breakpoints=1,3", "--heights=0,2,0"]
    PW = PiecewisePotential((1.0, 3.0), (0.0, 2.0, 0.0))

    def test_real_energy_eval(self, tmp_path):
        out = tmp_path / "formal.csv"
        assert main(["eval", *self.STAIR, "--energy=1.5", "--direction", "both",
                     "--r=0.5", "--s=2.5", f"--out={out}"]) == 0
        _, rows = read_csv(out)
        assert [row[6] for row in rows] == ["formal_plus", "formal_minus"]
        for row, direction in zip(rows, ("plus", "minus")):
            g = formal_green(self.PW, 1.5, 0.5, 2.5, direction)
            assert row[4:6] == [_fmt(g.real), _fmt(g.imag)]

    def test_limit_study(self, tmp_path):
        out = tmp_path / "limit.csv"
        assert main(["limit-study", *self.STAIR, "--energy=1.5", "--r=0.7", "--s=2.5",
                     f"--out={out}"]) == 0
        _, rows = read_csv(out)
        assert {row[3] for row in rows} == {"plus", "minus"}
        assert all(float(row[12]) <= 1e-8 and row[13] == "true" for row in rows)

    def test_pole_scan(self, tmp_path):
        out = tmp_path / "poles.csv"
        assert main(["pole-scan", *self.STAIR, "--box=0.5:8:-2:-0.01", f"--out={out}"]) == 0
        _, rows = read_csv(out)
        assert len(rows) == 2
        assert all(float(row[2]) < 1e-10 for row in rows)

    def test_verify(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert main(["verify", *self.STAIR, "--energy=1.5", f"--out={out}"]) == 0
        assert capsys.readouterr().err == ""
        report = json.loads(out.read_text())
        assert report["pass"] is True
        assert report["instance"]["breakpoints"] == [1.0, 3.0]
        assert report["instance"]["heights"] == [0.0, 2.0, 0.0]

    def test_verify_corrupted_wronskian_fails(self, tmp_path):
        out = tmp_path / "r.json"
        for argv in (
            ["verify", "--breakpoints=1,2,3", "--heights=0,4,-2,0", "--energy=1.5"],
            ["verify", "--v0=5", "--a=1.0005", "--b=2.0003", "--energy=1"],  # off a 1e-3 lattice
        ):
            assert main([*argv, f"--out={out}"]) == 0
            assert main([*argv, "--corrupt-wronskian=1.001", f"--out={out}"]) == 1
            failed = {c["name"] for c in json.loads(out.read_text())["checks"] if not c["pass"]}
            assert "derivative_jump_plus" in failed


class TestVerify:
    def test_default_instance_passes(self, tmp_path):
        out = tmp_path / "report.json"
        rc = main(["verify", "--v0", "5", "--a", "1", "--b", "2", "--energy", "1",
                   "--seed", "7", "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["pass"] is True
        assert report["instance"] == {
            "breakpoints": [1.0, 2.0], "heights": [0.0, 5.0, 0.0],
            "energy": {"re": 1.0, "im": 0.0}, "seed": 7,
        }
        for check in report["checks"]:
            assert set(check) >= {"name", "max_residual", "tolerance", "pass", "samples"}
            assert check["pass"] == (check["max_residual"] <= check["tolerance"])

    def test_corrupted_coefficient_fails_jump(self, tmp_path):
        out = tmp_path / "report.json"
        rc = main(["verify", "--v0", "5", "--a", "1", "--b", "2", "--energy", "1",
                   "--corrupt-wronskian", "1.01", "--out", str(out)])
        assert rc == 1
        report = json.loads(out.read_text())
        assert report["pass"] is False
        failed = {c["name"] for c in report["checks"] if not c["pass"]}
        assert "derivative_jump_plus" in failed

    def test_bad_requests_exit_2(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        base = ["verify", "--v0=5", "--a=1", "--b=2", "--energy=1"]
        bad = [
            # a zero scale divided by zero; nan and inf wrote NaN tokens into the JSON
            base + ["--corrupt-wronskian=0"],
            base + ["--corrupt-wronskian=nan"],
            base + ["--corrupt-wronskian=inf"],
            base + ["--n-random=-3"],
            # numpy refused the seed with a ValueError traceback (exit 1)
            base + ["--seed=-1"],
            # 1e20 instances ran until killed; the bound is checked before any draw
            base + [f"--n-random={MAX_RANDOM_INSTANCES + 1}"],
            base + ["--n-random=100000000000000000000"],
            # RK4 runs of far more than a million steps
            ["verify", "--v0=5", "--a=1", "--b=2", "--energy=1e300"],
            # the wave amplitudes overflow in cmath
            ["verify", "--v0=1e6", "--a=1", "--b=2", "--energy=1"],
            # a last region so thin that the jump check's probes at its midpoint
            # would sit within 1e-3 of a breakpoint: a ContractError traceback (exit 1)
            ["verify", "--v0=5", "--a=1", "--b=1.001", "--energy=1"],
            # energies off the positive real axis, refused by run_verification itself
            ["verify", "--v0=5", "--a=1", "--b=2", "--energy=1+1i"],
            ["verify", "--v0=5", "--a=1", "--b=2", "--energy=-1"],
        ]
        for argv in bad:
            assert main(argv + [f"--out={out}"]) == 2, argv
            assert capsys.readouterr().err.startswith("error: "), argv
        assert not out.exists()

    def test_narrow_resonance_writes_a_failing_report(self, tmp_path, capsys):
        # the limit check's NonConvergenceError ended the run in a traceback
        out = tmp_path / "report.json"
        rc = main(["verify", "--v0=20", "--a=1", "--b=3", "--energy=6.44187942446349",
                   "--seed=7", "--n-random=1", f"--out={out}"])
        assert rc == 1
        assert capsys.readouterr().err == ""
        report = json.loads(out.read_text())
        assert report["pass"] is False
        limit = next(c for c in report["checks"] if c["name"] == "limit_equivalence")
        assert limit["pass"] is False
        assert limit["max_residual"] > limit["tolerance"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["--v0=5", "--a=1.0005", "--b=2.0003", "--energy=1"],
            ["--breakpoints=0.7071,1.4142,2.2361", "--heights=3,-2,5,0", "--energy=7.3"],
            ["--v0=5", "--a=1", "--b=2", "--energy=300"],
            ["--v0=5", "--a=1", "--b=2", "--energy=400"],
            ["--v0=5", "--a=1", "--b=2", "--energy=3000"],
        ],
        ids=["barrier-off-lattice", "staircase-off-lattice", "E300", "E400", "E3000"],
    )
    def test_runs_off_the_lattice_and_at_high_energy(self, tmp_path, capsys, argv):
        # each but E = 300 exited 2: edges off a 1e-3 lattice, or waves too fast for its RK4 steps
        out = tmp_path / "report.json"
        assert main(["verify", *argv, f"--out={out}"]) == 0
        assert capsys.readouterr().err == ""
        checks = json.loads(out.read_text())["checks"]
        assert all(c["pass"] for c in checks)
        rk4 = [c["max_residual"] for c in checks if c["name"].startswith("offdiagonal_radial")]
        assert len(rk4) == 2 and max(rk4) < 5e-8

    @pytest.mark.parametrize(
        "argv",
        [
            ["--v0=-100", "--a=1", "--b=2", "--energy=1"],
            ["--v0=-300", "--a=1", "--b=2", "--energy=1"],
            ["--v0=-2e4", "--a=1", "--b=1.05", "--energy=1"],
            ["--v0=30", "--a=2", "--b=2.0031", "--energy=1"],
            ["--v0=5", "--a=1", "--b=1.004", "--energy=1"],
            ["--v0=5", "--a=0.001", "--b=2", "--energy=1"],
        ],
        ids=["well-100", "well-300", "well-2e4", "thin-barrier", "thin-last", "thin-first"],
    )
    def test_deep_wells_and_thin_regions_pass(self, tmp_path, capsys, argv):
        # the wells read 1.1e-4, 3.0e-4 and 0.15 on the resolvent check's one
        # 1e-3 grid (exit 1), and the thin regions were refused (exit 2)
        out = tmp_path / "report.json"
        assert main(["verify", *argv, f"--out={out}"]) == 0
        assert capsys.readouterr().err == ""
        checks = json.loads(out.read_text())["checks"]
        assert all(c["pass"] for c in checks)
        resolvent = next(c for c in checks if c["name"] == "resolvent_identity")
        assert resolvent["max_residual"] <= 2.5e-5
        assert main(["verify", *argv, "--corrupt-wronskian=1.001", f"--out={out}"]) == 1
        failed = {c["name"] for c in json.loads(out.read_text())["checks"] if not c["pass"]}
        assert "derivative_jump_plus" in failed

    def test_slow_region_beside_a_very_fast_one_runs(self, tmp_path, capsys):
        # RK4's stability bound read the momentum of the whole potential, so a
        # 0.01 step where k = 1 was refused for the 3.162 rad it would take in
        # the well (exit 2), after the waves and the first checks had run.
        # The resolvent check then failed this correct kernel at 2.56e-3: its
        # stencil divided by the declared step squared the rounding of the
        # node positions, which stopped the step short in the well.  On the
        # nodes' own spacings it reads about 5.5e-5 on 55 734 nodes
        out = tmp_path / "report.json"
        assert main(["verify", "--v0=-1e5", "--a=1", "--b=1.05", "--energy=1", f"--out={out}"]) == 0
        assert capsys.readouterr().err == ""
        checks = json.loads(out.read_text())["checks"]
        assert all(c["pass"] for c in checks)
        resolvent = next(c for c in checks if c["name"] == "resolvent_identity")
        assert resolvent["max_residual"] <= 1e-4 and resolvent["samples"] > 5e4

    def test_seed_changes_random_draws_not_outcome(self, tmp_path):
        outs = []
        for seed in ("1", "2"):
            out = tmp_path / f"r{seed}.json"
            assert main(["verify", "--v0", "5", "--a", "1", "--b", "2", "--energy", "1",
                         "--seed", seed, "--n-random", "1", "--out", str(out)]) == 0
            outs.append(json.loads(out.read_text()))
        assert outs[0]["pass"] and outs[1]["pass"]
        assert outs[0]["instance"]["seed"] != outs[1]["instance"]["seed"]


class TestPoleScan:
    def test_free_box_is_empty(self, tmp_path):
        out = tmp_path / "poles.csv"
        rc = main(["pole-scan", "--v0", "0", "--a", "1", "--b", "2",
                   "--box=-5:5:-5:5", "--seed-density", "0.5", "--out", str(out)])
        assert rc == 0
        _, rows = read_csv(out)
        assert rows == []

    def test_barrier_resonance_row(self, tmp_path):
        out = tmp_path / "poles.csv"
        rc = main(["pole-scan", "--v0", "5", "--a", "1", "--b", "2",
                   "--box=3:6:-1:-0.01", "--out", str(out)])
        assert rc == 0
        _, rows = read_csv(out)
        assert len(rows) == 1
        assert abs(complex(float(rows[0][0]), float(rows[0][1])) - (4.2029 - 0.2556j)) < 1e-3
        assert float(rows[0][2]) < 1e-10

    def test_crowded_wide_barrier_gets_every_root(self, tmp_path, capsys):
        # 89 zeros closer together than the seed spacing: quadrisection and the moments
        out = tmp_path / "poles.csv"
        rc = main(["pole-scan", "--v0=2", "--a=1", "--b=80", "--box=0.5:20:-8:-0.01",
                   f"--out={out}"])
        assert (rc, capsys.readouterr().err) == (0, "")
        _, rows = read_csv(out)
        assert len(rows) == 89

    def test_count_mismatch_exits_1(self, tmp_path, monkeypatch, capsys):
        # one zero more than the scan can find: the rows are still written; only
        # the whole box's count is inflated, its quadrants keep theirs
        contour = kernel_module._contour

        def inflated(p, bounds):
            count, *rest = contour(p, bounds)
            return (count + 1, *rest) if bounds == (3.0, 6.0, -1.0, -0.01) else (count, *rest)

        monkeypatch.setattr(kernel_module, "_contour", inflated)
        out = tmp_path / "poles.csv"
        rc = main(["pole-scan", "--v0=5", "--a=1", "--b=2", "--box=3:6:-1:-0.01", f"--out={out}"])
        assert rc == 1
        _, rows = read_csv(out)
        assert len(rows) == 1
        assert capsys.readouterr().err == (
            "error: zero count mismatch: the argument principle counts 2 zeros of c- in the "
            "box, the scan accepted 1\n"
        )

    def test_bad_box_exits_2(self, tmp_path):
        rc = main(["pole-scan", "--v0", "5", "--a", "1", "--b", "2",
                   "--box", "1:2:3", "--out", str(tmp_path / "p.csv")])
        assert rc == 2
        for flags in (
            ["--box=0:inf:-1:0"],
            ["--box=3:6:-1:-0.01", "--seed-density=nan"],
            ["--box=3:6:-1:-0.01", "--seed-density=inf"],
            ["--box=1:1e300:-1:0"],  # about 4e300 seeds
        ):
            argv = ["pole-scan", "--v0=5", "--a=1", "--b=2", *flags,
                    f"--out={tmp_path / 'p.csv'}"]
            assert main(argv) == 2, flags


@pytest.mark.parametrize(
    "argv, line",
    [
        (["eval", "--breakpoints=1,2", "--energy=1+1i", "--r=1", "--s=1"],
         "error: staircase potentials need both --breakpoints and --heights"),
        (["eval", "--breakpoints=1,x", "--heights=0,4,0", "--energy=1+1i", "--r=1", "--s=1"],
         "error: non-numeric entry in --breakpoints/--heights"),
        (["eval", "--a=1", "--b=2", "--energy=1+1i", "--r=1", "--s=1"],
         "error: square barriers need --v0, --a and --b"),
        (["pole-scan", "--v0=5", "--a=1", "--b=2", "--box=3:6:x:-0.01"],
         "error: non-numeric --box entry in '3:6:x:-0.01'"),
        # the barrier flags were dropped silently once a staircase was given
        *(
            ([*argv, "--breakpoints=1,2", "--heights=0,5,0"],
             "error: give either --v0/--a/--b or --breakpoints/--heights, not both")
            for argv in (
                ["eval", "--v0=3", "--energy=1.5+0.2i", "--r=1", "--s=1"],
                ["limit-study", "--a=0.5", "--b=1", "--energy=1.5", "--r=1", "--s=1"],
                ["verify", "--v0=3", "--a=0.5", "--b=1", "--energy=1.5"],
                ["pole-scan", "--b=1", "--box=3:6:-1:-0.01"],
            )
        ),
    ],
)
def test_potential_and_box_refusals_exit_2_with_their_line(tmp_path, capsys, argv, line):
    assert main([*argv, f"--out={tmp_path / 'x.csv'}"]) == 2
    assert capsys.readouterr().err == line + "\n"
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("energy", ["inf", "-inf+0.5i", "nan+1i", "1e400+1i"])
@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--r=1", "--s=1"],
        ["limit-study", "--r=1", "--s=1"],
        ["verify"],
    ],
    ids=["eval", "limit-study", "verify"],
)
def test_non_finite_energy_exits_2_with_one_line(tmp_path, capsys, argv, energy):
    # "inf" read as "jnf", and eval named branch_sqrt for nan and 1e400
    out = tmp_path / "x.csv"
    assert main([*argv, "--v0=5", "--a=1", "--b=2", f"--energy={energy}", f"--out={out}"]) == 2
    assert capsys.readouterr().err == f"error: complex number {energy!r} is not finite\n"
    assert not out.exists()


_EDGES = [-0.0, 5e-324, 1e-300, 1e16, 1.5e17, -1e300, 0.1, -2.5]


def _edge_grid(rows, cols, shift):
    """A complex grid of shape (rows, cols) whose parts cycle through _EDGES."""
    n = len(_EDGES)
    return np.array(
        [
            [complex(_EDGES[(i * cols + j + shift) % n], _EDGES[(i + 3 * j + shift) % n])
             for j in range(cols)]
            for i in range(rows)
        ]
    )


@pytest.mark.parametrize("transposed", [False, True], ids=["contiguous", "transposed"])
@pytest.mark.parametrize("shape", [(1, 1), (1, 5), (4, 1), (3, 7), (6, 6), (9, 9)])
def test_value_fields_match_per_entry_formatting(shape, transposed):
    # one % per row must print what one % per entry prints, -0 and subnormals
    # included; a square grid's entries below the diagonal take their mirror's.
    # A transposed grid is not C-contiguous, so a bare float view would misread it
    rows, cols = shape
    values = _edge_grid(cols, rows, rows).T if transposed else _edge_grid(rows, cols, cols)
    assert values.flags.c_contiguous == (not transposed or 1 in shape)
    for square in (False, True) if rows == cols else (False,):
        want = [
            [
                "%.17g,%.17g" % (g.real, g.imag)
                for g in (values[j, i] if square and j < i else values[i, j] for j in range(cols))
            ]
            for i in range(rows)
        ]
        assert cli_module._value_fields(values, square) == want
        assert cli_module._value_fields(np.ascontiguousarray(values), square) == want


def test_verify_help_states_no_lattice_bounds(capsys):
    # the help stated a 1e-3 lattice for every breakpoint, |E - v| <= 324 and a last
    # breakpoint of at most 995, bounds that the RK4 oracle no longer has
    with pytest.raises(SystemExit) as done:
        main(["verify", "--help"])
    assert done.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    assert "oracle steps region by region" in text
    for gone in ("lattice", "multiple of", "324", "995"):
        assert gone not in text


def test_main_runs_a_command_rebound_after_the_parser_is_cached(tmp_path, monkeypatch):
    # the parser is built once per process; the subcommand is looked up when main runs
    argv = ["eval", "--v0=5", "--a=1", "--b=2", "--energy=1.5+0.2i", "--r=0.8", "--s=2"]
    assert main(argv + [f"--out={tmp_path / 'first.csv'}"]) == 0
    ran = []
    monkeypatch.setattr(cli_module, "cmd_eval", lambda args: ran.append(args.out) or 0)
    second = str(tmp_path / "second.csv")
    assert main(argv + [f"--out={second}"]) == 0
    assert ran == [second]
    assert not Path(second).exists()


def test_write_json_refuses_non_finite_values(tmp_path):
    with pytest.raises(ValueError):
        _write_json(str(tmp_path / "x.json"), {"max_residual": float("nan")})


def test_python_dash_m_runs_the_cli(tmp_path):
    # the package runs as a module from a source checkout, without an install
    src = Path(__file__).resolve().parents[1] / "src"
    out = tmp_path / "k.csv"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-m", "sqgreen", "eval", "--v0=5", "--a=1", "--b=2",
         "--energy=1.5+0.2i", "--r=0.8", "--s=2", f"--out={out}"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    header, rows = read_csv(out)
    assert header[0] == "r" and len(rows) == 1


def test_no_command_imports_numpy_random():
    # numpy.random costs a process about 6 MB: verify draws its instances
    # without it, and a stray np.random access anywhere would bring it back
    root = Path(__file__).resolve().parents[1]
    code = (
        "import json, sys, tempfile\n"
        "from pathlib import Path\n"
        "import sqgreen.cli\n"
        "from golden_corpus import run_case\n"
        "with tempfile.TemporaryDirectory() as out:\n"
        "    codes = [run_case(name, Path(out))[0] for name in sys.argv[1:]]\n"
        "print(json.dumps([codes, 'numpy.random' in sys.modules]))\n"
    )
    cases = ["eval_barrier_complex", "limit_barrier", "verify_barrier", "poles_barrier"]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(root / "src"), str(root / "tests")])}
    done = subprocess.run(
        [sys.executable, "-c", code, *cases], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    codes, loaded = json.loads(done.stdout)
    assert codes == [0, 0, 0, 0]
    assert not loaded


def test_benchmark_tracer_hooks_the_functions_it_names(tmp_path):
    # the benchmark's tracer reports a renamed function as absent and its
    # metrics as zero, and its wave_pair hook reads (p, e, direction) by position
    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location("bench_tracing", root / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    sys.dont_write_bytecode, saved = True, sys.dont_write_bytecode
    try:
        spec.loader.exec_module(tracing)
    finally:
        sys.dont_write_bytecode = saved
    cases = ["eval_barrier_complex", "limit_barrier", "verify_barrier_corrupt", "poles_barrier"]

    def exit_codes(tag):
        return [cli_module.main([*CASES[c], f"--out={tmp_path / (tag + c)}"]) for c in cases]

    untraced = exit_codes("plain_")
    tracer = tracing.Tracer()
    try:
        tracer.install()
        traced = exit_codes("traced_")
    finally:
        tracer.uninstall()
    stale = ["chi_coefficients", "chi_wave", "omega_wave", "wronskian_closed_form"]
    assert sorted(tracer.absent) == [f"sqgreen.eigenfunctions.{name}" for name in stale]
    assert traced == untraced == [0, 0, 1, 0]
    assert tracer.metrics(0.0)["kernel.wave_pair.distinct"] > 0


@pytest.mark.parametrize("transposed", [False, True], ids=["contiguous", "transposed"])
@pytest.mark.parametrize("shape", [(1, 1), (1, 5), (4, 1), (3, 7), (6, 6), (9, 9)])
def test_reflected_fields_match_the_printed_conjugate(shape, transposed):
    # the minus grid reuses the plus digits, g_im's sign flipped, wherever it is
    # the conjugate bit for bit; a zero whose sign bits differ, or another
    # value, is printed anew
    rows, cols = shape
    plus = _edge_grid(cols, rows, rows).T if transposed else _edge_grid(rows, cols, cols)
    minus = np.conj(plus)
    minus[0, 0] = complex(0.0, -0.0)
    minus[-1, 0] = complex(-0.0, 0.0)
    minus[0, -1] = 1.0 / 3.0 - 0.25j
    def bits(z):
        return np.array([z]).tobytes()

    conjugate = cli_module._conjugates(plus, minus)
    assert conjugate.tolist() == [
        [bits(g.conjugate()) == bits(h) for g, h in zip(*row)]
        for row in zip(plus.tolist(), minus.tolist())
    ]
    assert not conjugate[0, 0] and not conjugate[0, -1]  # no _EDGES value is +0.0 or 1/3
    for square in (False, True) if rows == cols else (False,):
        fields = cli_module._value_fields(plus, square)
        got = cli_module._reflected_fields(fields, minus, conjugate, square)
        assert got == cli_module._value_fields(minus, square)


def test_a_grid_of_a_million_pairs_exits_2_before_any_kernel(tmp_path, monkeypatch, capsys):
    # each axis stayed below MAX_GRID_POINTS, so 5e5 x 5e5 entries (about 4 TB
    # in kernel_grid's broadcasts, or 2.5e11 limit studies) were accepted; then
    # both axes of 5e5 points were listed before the request was refused
    def no_work(*args, **kwargs):
        raise AssertionError("an axis was listed or a kernel value asked for")

    for module, name in ((cli_module, "parse_grid"), (cli_module, "kernel_grid"),
                         (cli_module, "boundary_limits"), (kernel_module, "kernel_grid"),
                         (kernel_module, "boundary_limit")):
        monkeypatch.setattr(module, name, no_work)
    out = tmp_path / "x.csv"
    for command, energy in (("eval", "1.5+0.2i"), ("eval", "1.5"), ("limit-study", "1.5")):
        for grids, pairs in ((["--r-grid=0:1000:0.002", "--s-grid=0:1000:0.002"], 250000000000),
                             (["--r-grid=0:1000:1", "--s-grid=0:1000:1"], 1000000)):
            argv = [command, "--v0=5", "--a=1", "--b=2", f"--energy={energy}", *grids,
                    f"--out={out}"]
            assert main(argv) == 2, argv
            assert capsys.readouterr().err == (
                f"error: --r and --s ask for {pairs} (r, s) points, 1000000 or more\n"
            )
            assert not out.exists()


def test_pole_scan_prints_the_residuals_its_scan_took(tmp_path, monkeypatch):
    # cmd_pole_scan took |c-| once more at every root it printed
    p = PiecewisePotential((1.0, 2.0, 3.0), (0.0, 4.0, -1.0, 0.0))
    box = (0.5, 8.0, -2.0, -0.01)
    calls = []

    def counted(p, z):
        calls.append(z)
        return kernel_pole_residual(p, z)

    monkeypatch.setattr(kernel_module, "kernel_pole_residual", counted)
    out = tmp_path / "poles.csv"
    assert main(["pole-scan", "--breakpoints=1,2,3", "--heights=0,4,-1,0", "--box=0.5:8:-2:-0.01",
                 f"--out={out}"]) == 0
    in_main, calls[:] = list(calls), []
    roots = find_kernel_poles(p, box)
    assert calls == in_main and roots
    residuals = [kernel_pole_residual(p, z) for z in roots]
    assert roots.residuals == residuals
    _, rows = read_csv(out)
    assert rows == [["%.17g" % x for x in (z.real, z.imag, res)]
                    for z, res in zip(roots, residuals)]


def _grouped(lines):
    """The rows of ``lines`` in runs of one (r, s) point."""
    runs = itertools.groupby(lines, key=lambda line: line.split(",", 2)[:2])
    return [list(run) for _, run in runs]


@st.composite
def _reflection_requests(draw):
    """(potential, its flags, real E, r axis, s axis): a barrier or a staircase of
    1-4 steps, E below or above the top step, axes from r = 0 or from inside."""
    if draw(st.booleans()):
        v0 = draw(st.floats(-5.0, 8.0))
        a, width = draw(st.floats(0.3, 1.5)), draw(st.floats(0.3, 1.5))
        p = SquareBarrier(v0, a, a + width)
        flags = [f"--v0={v0!r}", f"--a={a!r}", f"--b={p.b!r}"]
    else:
        steps = draw(st.integers(1, 4))
        widths = draw(st.lists(st.floats(0.3, 1.5), min_size=steps, max_size=steps))
        heights = draw(st.lists(st.floats(-5.0, 8.0), min_size=steps, max_size=steps)) + [0.0]
        p = PiecewisePotential(tuple(itertools.accumulate(widths)), tuple(heights))
        flags = [f"--breakpoints={','.join(map(repr, p.breakpoints))}",
                 f"--heights={','.join(map(repr, p.heights))}"]
    top = max(p.heights)
    if draw(st.booleans()) and top > 0.3:
        e = draw(st.floats(0.1, top - 0.1))
    else:
        e = draw(st.floats(top + 0.1, top + 8.0))
    assume(min(abs(e - v) for v in p.heights) >= 0.05)
    stop = p.breakpoints[-1] + 1.0
    r0, s0 = draw(st.sampled_from([0.0, 0.35])), draw(st.sampled_from([0.0, 0.2]))
    s_axis = (r0, stop) if draw(st.booleans()) else (s0, stop + 0.5)  # square, or not
    return p, flags, e, (r0, stop), s_axis


@given(_reflection_requests())
@settings(derandomize=True, max_examples=25, deadline=None)
def test_both_directions_are_the_two_single_direction_runs(request):
    # limit-study reflects the plus study and eval the plus digits; neither
    # may move a byte from what each direction writes on its own
    p, flags, e, (r0, r1), (s0, s1) = request
    with tempfile.TemporaryDirectory() as tmp:
        def run(command, direction, points):
            out = os.path.join(tmp, f"{command}-{direction}.csv")
            rc = main([command, *flags, f"--energy={e!r}", f"--direction={direction}",
                       *points, f"--out={out}"])
            with open(out) as fh:
                return rc, fh.read().splitlines()

        def axes(points):
            return [f"--r-grid={r0!r}:{r1!r}:{(r1 - r0) / points!r}",
                    f"--s-grid={s0!r}:{s1!r}:{(s1 - s0) / points!r}"]

        (rc, both), (rc_plus, plus), (rc_minus, minus) = (
            run("eval", d, axes(5)) for d in ("both", "plus", "minus")
        )
        assert rc == rc_plus == rc_minus == 0
        assert both[0] == plus[0] == minus[0]
        assert both[1:] == [row for pair in zip(plus[1:], minus[1:]) for row in pair]

        (rc, both), (rc_plus, plus), (rc_minus, minus) = (
            run("limit-study", d, axes(2)) for d in ("both", "plus", "minus")
        )
        assert rc == rc_plus == rc_minus and rc in (0, 1)
        assert both[0] == plus[0] == minus[0]
        pairs = zip(_grouped(plus[1:]), _grouped(minus[1:]))
        assert both[1:] == [row for pair in pairs for run_ in pair for row in run_]

    def bits(study):
        parts = (study.mu_sequence, study.samples, (study.formal,))
        return (*(np.array(x, dtype=complex).tobytes() for x in parts), study.converged)

    for r, s in ((r0, s1), (r1, s0)):
        for directions in (("plus", "minus"), ("minus", "plus")):
            got = boundary_limits(p, e, r, s, directions)
            want = [boundary_limit(p, e, r, s, d) for d in directions]
            assert [bits(x) for x in got] == [bits(x) for x in want]
