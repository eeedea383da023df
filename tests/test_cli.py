import csv
import json

import pytest

from sqgreen import PiecewisePotential, SquareBarrier, formal_green, resolvent_kernel
from sqgreen.cli import main, parse_complex, parse_grid
from sqgreen.errors import ConfigError, PoleError


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class TestParsing:
    def test_complex_forms(self):
        assert parse_complex("1.5+0.2i") == 1.5 + 0.2j
        assert parse_complex("2") == 2 + 0j
        assert parse_complex("-0.5i") == -0.5j
        with pytest.raises(ConfigError):
            parse_complex("abc")

    def test_grid_is_closed_open(self):
        pts = parse_grid("0:1:0.25")
        assert pts == [0.0, 0.25, 0.5, 0.75]
        assert parse_grid("0:1.0000001:0.25")[-1] == 1.0

    def test_grid_by_index_multiplication(self):
        pts = parse_grid("0:5:0.05")
        assert len(pts) == 100
        assert pts[99] == 99 * 0.05  # no accumulation drift

    def test_bad_grids(self):
        for spec in ("0:1", "1:0:0.1", "0:1:-0.1", "a:b:c", "0:inf:1", "nan:1:0.1", "0:1:nan"):
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
        expect = resolvent_kernel(barrier, 1.5 + 0.2j, 17 * 0.05, 2.0).value
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
        expect = formal_green(barrier, 1.5, 0.8, 2.0, "plus").value
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
             "--energy", "1", "--r", "1", "--s", "1", "--out", out],  # real E + staircase
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
        ]
        for argv in bad:
            assert main(argv) == 2, argv

    def test_pole_error_exits_2(self, tmp_path, monkeypatch, capsys):
        def vanishing(*args):
            raise PoleError("kernel denominator vanishes")

        monkeypatch.setattr("sqgreen.cli.kernel_grid", vanishing)
        rc = main(["eval", "--v0=5", "--a=1", "--b=2", "--energy=1.5", "--r=1", "--s=1",
                   f"--out={tmp_path / 'x.csv'}"])
        assert rc == 2
        assert capsys.readouterr().err == "error: kernel denominator vanishes\n"

    def test_values_with_leading_minus(self, tmp_path):
        out = tmp_path / "neg.csv"
        rc = main(["eval", "--breakpoints", "1,2", "--heights", "-0.7,1,0",
                   "--energy", "-1.5+0.2i", "--r", "0.5", "--s", "1.5", "--out", str(out)])
        assert rc == 0
        _, rows = read_csv(out)
        expect = resolvent_kernel(PiecewisePotential((1, 2), (-0.7, 1, 0)), -1.5 + 0.2j, 0.5, 1.5)
        assert rows == [["0.5", "1.5", "-1.5", "0.20000000000000001",
                         format(expect.value.real, ".17g"), format(expect.value.imag, ".17g"),
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
                samples = [resolvent_kernel(p, e, r, s)]
            else:
                samples = [formal_green(p, e, r, s, d) for d in directions]
            for sample in samples:
                g = sample.value
                lines.append(",".join([_fmt(r), _fmt(s), _fmt(e.real), _fmt(e.imag),
                                       _fmt(g.real), _fmt(g.imag), sample.provenance]))
    assert out.read_bytes() == ("\n".join(lines) + "\n").encode()


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

    def test_complex_energy_rejected(self, tmp_path):
        rc = main(["limit-study", "--v0", "5", "--a", "1", "--b", "2",
                   "--energy", "1+1i", "--r", "1", "--s", "1", "--out", str(tmp_path / "x.csv")])
        assert rc == 2


class TestVerify:
    def test_default_instance_passes(self, tmp_path):
        out = tmp_path / "report.json"
        rc = main(["verify", "--v0", "5", "--a", "1", "--b", "2", "--energy", "1",
                   "--seed", "7", "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["pass"] is True
        assert report["instance"] == {
            "v0": 5.0, "a": 1.0, "b": 2.0, "energy": {"re": 1.0, "im": 0.0}, "seed": 7,
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

    def test_bad_box_exits_2(self, tmp_path):
        rc = main(["pole-scan", "--v0", "5", "--a", "1", "--b", "2",
                   "--box", "1:2:3", "--out", str(tmp_path / "p.csv")])
        assert rc == 2
