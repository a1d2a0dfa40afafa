import json
import subprocess
from importlib import resources

import jsonschema
import pytest

import torusclass.classify as classify
from conftest import fresh_python
from torusclass.cli import main
from torusclass.isosearch import NO_ISO, IsoSearchResult


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


SCHEMA = json.loads(
    resources.files("torusclass").joinpath("schemas/cli_outputs.schema.json").read_text())


def validate(payload, kind):
    jsonschema.validate(
        payload, {"$ref": f"#/$defs/{kind}", "$defs": SCHEMA["$defs"]})


# --- invariants ---------------------------------------------------------------

def test_invariants_output(capsys):
    code, out = run(capsys, "invariants", "B(3,-2,1,3)")
    assert code == 0
    payload = json.loads(out)
    validate(payload, "invariants_report")
    assert payload["dimension"] == 14
    assert payload["pontrjagin"] == "1 + 8*x^2"
    assert payload["cohomology"]["relation"] == "z^2"


def test_invariants_parse_error(capsys):
    code, _ = run(capsys, "invariants", "A(1,0,1,0)")
    assert code == 1
    code, _ = run(capsys, "rigidity", "X(1,1,1,1)")
    assert code == 1
    code, _ = run(capsys, "invariants", "B(0,1,1,1)")
    assert code == 1


# --- compare ---------------------------------------------------------------------

def test_compare_diffeomorphic_pair(capsys):
    code, out = run(capsys, "compare", "B(3,2,1,3)", "B(3,1,4,0)")
    assert code == 0
    payload = json.loads(out)
    validate(payload, "compare_report")
    assert payload["verdict"]["outcome"] == "diffeomorphic"
    assert payload["ring_isomorphic"] is True


def test_compare_verdicts_are_data_not_exit_codes(capsys):
    code, out = run(capsys, "compare", "B(3,2,4,0)", "B(3,1,4,0)")
    assert code == 0
    assert json.loads(out)["verdict"]["outcome"] == "not_diffeomorphic"


def test_compare_oracle_disagreement_exit_code(capsys, monkeypatch):
    # a diffeomorphic pair for which the search says "no" for the
    # p-preserving class (0) or for the w-preserving one (1) is a
    # consistency failure
    real = classify.find_iso_per_class
    monkeypatch.setattr(classify, "_CACHE", classify.CompareCache())
    for failing in (0, 1):
        calls = []

        def find_iso_per_class(search, classes):
            calls.append(classes)
            results = real(search, classes)
            assert results[failing].found
            results[failing] = IsoSearchResult(NO_ISO)
            return results

        monkeypatch.setattr(classify, "find_iso_per_class", find_iso_per_class)
        code = main(["compare", "B(3,2,1,3)", "B(3,1,4,0)"])
        captured = capsys.readouterr()
        assert code == 2, failing
        assert len(calls) == 1 and len(calls[0]) == 2, failing
        assert captured.out == ""
        assert "internal consistency failure" in captured.err


# --- rigidity ----------------------------------------------------------------------

def test_rigidity_output(capsys):
    code, out = run(capsys, "rigidity", "B(2,0,2,0)")
    assert code == 0
    payload = json.loads(out)
    validate(payload, "rigidity_report")
    assert payload["rigidity"] == "R2"


def test_rigidity_internal_error_exit_code(capsys, monkeypatch):
    broken = classify._CLAUSES + (("R2", "duplicate", lambda d: d.family == "A"),)
    monkeypatch.setattr(classify, "_CLAUSES", broken)
    code, _ = run(capsys, "rigidity", "A(1,1,1,1)")
    assert code == 2


# --- dj -----------------------------------------------------------------------------

def test_dj_from_matrix_file(tmp_path, capsys):
    from torusclass.invariants import ManifoldDescriptor, pontrjagin
    from torusclass.quasitoric import char_matrix_for

    d = ManifoldDescriptor("A", 2, 3, 2, 1)
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps(char_matrix_for(d).to_json()))
    code, out = run(capsys, "dj", "--matrix", str(path))
    assert code == 0
    payload = json.loads(out)
    validate(payload, "dj_report")
    assert payload["presentation"]["relation"] == "y^3 + 6*x*y^2 + 9*x^2*y"
    assert payload["pontrjagin"] == pontrjagin(d).text()


def test_dj_rejects_bad_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    for content in (json.dumps({"blocks": [1], "rows": [[1, 1], [0, 1]]}).encode(),
                    b"not json", b"\xff\xfe"):
        path.write_bytes(content)
        code = main(["dj", "--matrix", str(path)])
        captured = capsys.readouterr()
        assert code == 1, content
        assert captured.out == ""
        assert "bad matrix file: " in captured.err


# --- oracle-iso ------------------------------------------------------------------------

def test_oracle_iso_found(capsys):
    code, out = run(capsys, "oracle-iso", "B(3,2,1,3)", "B(3,1,4,0)")
    assert code == 0
    payload = json.loads(out)
    validate(payload, "oracle_report")
    assert payload["status"] == "found"
    assert payload["witness"]


def test_oracle_iso_has_no_mode_option(capsys):
    code = main(["oracle-iso", "B(3,2,1,3)", "B(3,1,4,0)", "--mode", "exact"])
    assert code == 1
    assert capsys.readouterr().out == ""


def test_oracle_iso_rejects_bound_below_one(capsys):
    # the enumeration window is gone; --bound is an unknown option
    code = main(["oracle-iso", "A(2,1,1,1)", "A(2,-1,1,1)", "--bound", "0"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --bound 0" in captured.err


def test_oracle_iso_rejects_bound_above_thirty(capsys):
    # the exact search needs no window, so no value of --bound is accepted
    code = main(["oracle-iso", "A(3,2,2,2)", "A(3,3,2,2)", "--bound", "31"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --bound 31" in captured.err


def test_compare_reads_no_bound_from_the_environment(capsys, monkeypatch):
    # A(2,1,1,1) ~ A(2,-1,1,1) is ring-isomorphic, so both oracle searches
    # run; the variable that once set their window is no longer read
    argv = ["compare", "A(2,1,1,1)", "A(2,-1,1,1)"]
    code, before = run(capsys, *argv)
    assert code == 0
    monkeypatch.setenv("TORUSCLASS_ORACLE_BOUND", "abc")
    code, after = run(capsys, *argv)
    assert code == 0
    assert after == before


# --- table -------------------------------------------------------------------------------

def test_table_two_rows_r3(capsys):
    code, out = run(capsys, "table", "--l", "1..1", "--rho", "0..1",
                    "--k1", "1..1", "--k2", "1..1", "--family", "B")
    assert code == 0
    rows = json.loads(out)
    validate(rows, "table")
    assert len(rows) == 2
    assert all(r["rigidity"] == "R3" for r in rows)


def test_table_empty_grid_is_ok(capsys):
    code, out = run(capsys, "table", "--l", "1..2", "--rho", "0..0",
                    "--k1", "1..1", "--k2", "0..0", "--family", "A")
    assert code == 0
    assert json.loads(out) == []


def test_table_byte_stable(capsys):
    args = ["table", "--l", "1..2", "--rho", "-1..1", "--k1", "1..2", "--k2", "0..1"]
    code1, out1 = run(capsys, *args)
    code2, out2 = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_table_tsv(capsys):
    code, out = run(capsys, "table", "--l", "1..1", "--rho", "1..1",
                    "--k1", "1..1", "--k2", "1..1", "--format", "tsv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].split("\t")[0] == "descriptor"
    assert len(lines) == 3  # header + A row + B row


def test_table_every_row_single_rigidity_tag(capsys):
    code, out = run(capsys, "table", "--l", "1..3", "--rho", "-2..2",
                    "--k1", "1..3", "--k2", "0..2")
    assert code == 0
    rows = json.loads(out)
    assert rows
    assert all(r["rigidity"] in ("R1", "R2", "R3") for r in rows)


def test_bad_range_is_usage_error(capsys):
    code, _ = run(capsys, "table", "--l", "3..1", "--rho", "0..0",
                  "--k1", "1..1", "--k2", "1..1")
    assert code == 1


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    out = " ".join(capsys.readouterr().out.split())
    assert all(text in out for text in ONE_LINE_HELP.values())


def test_closed_stdout_exits_one_quietly():
    # over 64 KiB of rows, more than a pipe holds, into a pipe closed unread
    proc = fresh_python("-m", "torusclass.cli", "table", "--l", "1..2", "--rho", "-9..9",
                   "--k1", "1..2", "--k2", "0..2",
                   stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    assert proc.wait(timeout=60) == 1
    assert proc.stderr.read() == b""
    proc.stderr.close()


def test_runs_without_click():
    # click cannot be imported in this interpreter, not even before the CLI
    code = ("import sys; sys.modules['click'] = None; from torusclass.cli import main; "
            "sys.exit(main(['compare', 'B(3,2,1,3)', 'B(3,1,4,0)']))")
    proc = fresh_python("-c", code, stdout=subprocess.PIPE)
    out, _ = proc.communicate(timeout=60)
    assert proc.returncode == 0
    assert json.loads(out)["verdict"]["outcome"] == "diffeomorphic"

def test_prints_integers_past_the_default_digit_limit():
    # the relation coefficient rho^50 = 10^5000 has 5,001 digits, more than
    # int -> str converts by default
    proc = fresh_python("-m", "torusclass.cli", "invariants", f"B(60,1{'0' * 100},50,0)",
                        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    out, err = proc.communicate(timeout=60)
    assert proc.returncode == 0, err.decode()
    assert json.loads(out)["cohomology"]["relation"] == f"z^2 + 1{'0' * 5000}*x^50*z"

# --- the exit-code contract -----------------------------------------------------------------

# every table invocation below names all four ranges unless the case is about one
_GRID = ["--l", "1..1", "--rho", "0..0", "--k1", "1..1", "--k2", "1..1"]

# (argv, exit code, stdout empty, substrings of stderr); recorded from the
# click front end and kept through the move to argparse
CONTRACT = [
    (["invariants", "X(1,1,1,1)"], 1, True,
     ["cannot parse descriptor 'X(1,1,1,1)'"]),
    (["compare", "B(3,2,1,3)", "nope"], 1, True, ["cannot parse descriptor 'nope'"]),
    (["frobnicate"], 1, True, ["frobnicate"]),
    ([], 1, True, []),
    (["invariants"], 1, True, ["DESCRIPTOR"]),
    (["compare", "B(3,2,1,3)"], 1, True, ["SECOND"]),
    (["invariants", "A(1,1,1,1)", "extra"], 1, True, ["extra"]),
    (["invariants", "--foo", "A(1,1,1,1)"], 1, True, ["--foo"]),
    (["invariants", "-h"], 1, True, ["-h"]),
    (["table", *_GRID[:6]], 1, True, ["--k2"]),
    (["table", *_GRID, "--format", "xml"], 1, True, ["--format", "'xml'"]),
    (["table", *_GRID, "--family", "C"], 1, True, ["--family", "'C'"]),
    (["table", "--l", "x", *_GRID[2:]], 1, True, ["--l", "cannot parse range 'x'"]),
    (["table", "--l", "3..1", *_GRID[2:]], 1, True, ["--l", "empty range '3..1'"]),
    (["table", *_GRID[:2], "--rho", *_GRID[4:]], 1, True,
     ["--rho", "cannot parse range '--k1'"]),
    # oracle-iso has no --bound option: any value, or none, is a usage error
    (["oracle-iso", "A(2,1,1,1)", "A(2,-1,1,1)", "--bound", "0"], 1, True,
     ["usage: torusclass", "unrecognized arguments: --bound 0"]),
    (["oracle-iso", "A(2,1,1,1)", "A(2,-1,1,1)", "--bound", "31"], 1, True,
     ["usage: torusclass", "unrecognized arguments: --bound 31"]),
    (["oracle-iso", "A(2,1,1,1)", "A(2,-1,1,1)", "--bound", "abc"], 1, True,
     ["usage: torusclass", "unrecognized arguments: --bound abc"]),
    (["oracle-iso", "A(2,1,1,1)", "A(2,-1,1,1)", "--bound"], 1, True,
     ["usage: torusclass", "unrecognized arguments: --bound"]),
    (["oracle-iso", "A(2,1,1,1)", "A(2,-1,1,1)", "--bound", "5"], 1, True,
     ["usage: torusclass", "unrecognized arguments: --bound 5"]),
    (["dj"], 1, True, ["--matrix"]),
    (["dj", "--matrix", "no/such/matrix.json"], 1, True,
     ["--matrix", "'no/such/matrix.json' does not exist"]),
    (["dj", "--matrix", "."], 1, True, ["--matrix", "'.' is a directory"]),
    (["table", "--l", "1..1", "--rho", "-1..1", "--k1", "1..1", "--k2", "1..1"], 0, False, []),
    (["table", "--l", "1..1", "--rho", "-1", "--k1", "1..1", "--k2", "1..1"], 0, False, []),
    (["--help"], 0, False, []),
    *[([cmd, "--help"], 0, False, [])
      for cmd in ("invariants", "compare", "rigidity", "dj", "oracle-iso", "table")],
]


@pytest.mark.parametrize("argv,code,out_empty,err_parts", CONTRACT,
                         ids=[" ".join(c[0]) or "(none)" for c in CONTRACT])
def test_exit_code_contract(capsys, argv, code, out_empty, err_parts):
    assert main(argv) == code
    captured = capsys.readouterr()
    assert (captured.out == "") == out_empty
    for part in err_parts:
        assert part in captured.err
    if code == 0:
        assert captured.err == ""


def test_negative_range_is_a_value(capsys):
    # '--rho -1..1' and '--rho=-1..1' read the same range
    rows = []
    for rho in (["--rho", "-1..1"], ["--rho=-1..1"]):
        code, out = run(capsys, "table", "--l", "1..1", *rho, "--k1", "1..1", "--k2", "1..1")
        assert code == 0
        rows.append(json.loads(out))
    assert rows[0] == rows[1]
    assert [r["descriptor"] for r in rows[0]] == [
        f"{fam}(1,{rho},1,1)" for fam in "AB" for rho in (-1, 0, 1)]


# each command's one-line help
ONE_LINE_HELP = {
    "invariants": "Dimension, cohomology ring, Pontrjagin and Stiefel-Whitney classes.",
    "compare": "Pairwise report: ring isomorphism, class preservation, verdict.",
    "rigidity": "Rigidity stratum of a descriptor, with the matching clause.",
    "dj": "Cohomology presentation and characteristic classes from facet data.",
    "oracle-iso": "Exact search for a graded ring isomorphism.",
    "table": "Classification table over a parameter grid, one row per descriptor.",
}


@pytest.mark.parametrize("cmd", ONE_LINE_HELP)
def test_command_help_text(capsys, cmd):
    assert main([cmd, "--help"]) == 0
    assert ONE_LINE_HELP[cmd] in " ".join(capsys.readouterr().out.split())
