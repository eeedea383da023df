"""Byte identity of the CLI with the golden corpus in ``tests/golden/``.

A change that moves printed digits on purpose regenerates the corpus with
``tests/golden_corpus.py`` and records the drift table it prints.
"""

import json
import shutil

import pytest

import golden_corpus
from golden_corpus import CASES, GOLDEN, drift, format_drift, read_case, run_case, ulp_distance


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_corpus(tmp_path, name):
    got = run_case(name, tmp_path)
    want = read_case(GOLDEN, name)
    assert got[0] == want[0], f"exit code {want[0]} -> {got[0]}: {got[2]}"
    assert got[2] == want[2]
    assert got[1] == want[1]


def test_corpus_covers_every_exit_code():
    codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    assert set(codes) == set(CASES)
    assert set(codes.values()) == {0, 1, 2}


def test_ulp_distance():
    assert ulp_distance(1.0, 1.0) == 0
    assert ulp_distance(1.0, 1.0000000000000002) == 1
    assert ulp_distance(-0.0, 0.0) == 0
    assert ulp_distance(-5e-324, 5e-324) == 2


def test_drift_report_finds_a_one_ulp_change(tmp_path):
    old, new = tmp_path / "old", tmp_path / "new"
    shutil.copytree(GOLDEN, old)
    shutil.copytree(GOLDEN, new)
    assert drift(old, new) == ([], [])
    path = new / "eval_barrier_complex.csv"
    lines = path.read_text().splitlines()
    fields = lines[-1].split(",")
    bumped = float(fields[4]) * (1.0 + 2.0**-52)
    fields[4] = format(bumped, ".17g")
    lines[-1] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    table, notes = drift(old, new)
    assert notes == []
    assert [(row["case"], row["column"], row["differ"], row["ulp"]) for row in table] == [
        ("eval_barrier_complex", "g_re", 1, 1)
    ]
    assert "| eval_barrier_complex | g_re | 25 | 1 |" in format_drift(old, new)


def test_regen_leaves_the_corpus_alone_when_a_case_raises(tmp_path, monkeypatch):
    # regen deleted the case files and exit_codes.json before running any case
    corpus = tmp_path / "golden"
    shutil.copytree(GOLDEN, corpus)
    before = {path.name: path.read_bytes() for path in corpus.iterdir()}

    def raising(name, outdir):
        if name == "eval_barrier_invalid":
            raise RuntimeError("a case went wrong")
        return run_case(name, outdir)

    cases = {name: CASES[name] for name in ("eval_branch_point", "eval_barrier_invalid")}
    monkeypatch.setattr(golden_corpus, "CASES", cases)
    monkeypatch.setattr(golden_corpus, "run_case", raising)
    with pytest.raises(RuntimeError, match="eval_barrier_invalid"):
        golden_corpus.regen(corpus)
    assert {path.name: path.read_bytes() for path in corpus.iterdir()} == before


def test_drift_exits_1_when_more_than_digits_change(tmp_path, capsys):
    old, new = tmp_path / "old", tmp_path / "new"
    shutil.copytree(GOLDEN, old)
    shutil.copytree(GOLDEN, new)
    assert golden_corpus.main(["drift", str(old), str(new)]) == 0
    codes = json.loads((new / "exit_codes.json").read_text())
    codes["limit_barrier"] += 1
    (new / "exit_codes.json").write_text(json.dumps(codes))
    capsys.readouterr()
    assert golden_corpus.main(["drift", str(old), str(new)]) == 1
    out, err = capsys.readouterr()
    rc = codes["limit_barrier"]
    assert f"- limit_barrier: exit code {rc - 1} -> {rc}" in out
    assert err.startswith("error: 1 change(s) beyond digits")


def test_drift_lists_a_case_one_corpus_lacks(tmp_path, capsys):
    # drift raised KeyError in read_case when OLD's exit codes lacked a case
    old, new = tmp_path / "old", tmp_path / "new"
    shutil.copytree(GOLDEN, old)
    shutil.copytree(GOLDEN, new)
    codes = json.loads((old / "exit_codes.json").read_text())
    del codes["limit_barrier"]
    (old / "exit_codes.json").write_text(json.dumps(codes))
    (old / "limit_barrier.csv").unlink()
    assert drift(old, new) == ([], ["limit_barrier: case added"])
    assert drift(new, old) == ([], ["limit_barrier: case removed"])
    capsys.readouterr()
    assert golden_corpus.main(["drift", str(old), str(new)]) == 1
    out, err = capsys.readouterr()
    assert "- limit_barrier: case added" in out
    assert err.startswith("error: 1 change(s) beyond digits")
    # a case that left the case list is removed too
    codes = json.loads((new / "exit_codes.json").read_text())
    (new / "exit_codes.json").write_text(json.dumps({**codes, "retired_case": 0}))
    assert drift(new, new) == ([], ["retired_case: case removed"])
