import json
from importlib import resources

import jsonschema
import pytest

import torusclass.classify as classify
from torusclass.cli import main


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
    path.write_text(json.dumps({"blocks": [1], "rows": [[1, 1], [0, 1]]}))
    code, _ = run(capsys, "dj", "--matrix", str(path))
    assert code == 1


# --- oracle-iso ------------------------------------------------------------------------

def test_oracle_iso_found(capsys):
    code, out = run(capsys, "oracle-iso", "B(3,2,1,3)", "B(3,1,4,0)")
    assert code == 0
    payload = json.loads(out)
    validate(payload, "oracle_report")
    assert payload["status"] == "found"
    assert payload["witness"]


def test_oracle_iso_enum_mode_and_bound(capsys):
    code, out = run(capsys, "oracle-iso", "B(3,1,2,0)", "B(3,3,2,0)",
                    "--mode", "enum", "--bound", "1")
    assert code == 0
    assert json.loads(out)["status"] == "unknown"


def test_oracle_iso_env_bound(capsys, monkeypatch):
    monkeypatch.setenv("TORUSCLASS_ORACLE_BOUND", "7")
    code, out = run(capsys, "oracle-iso", "A(1,1,1,1)", "A(1,3,1,1)")
    assert code == 0
    payload = json.loads(out)
    assert payload["bound"] == 7
    assert payload["status"] == "found"


def test_oracle_iso_rejects_bound_below_one(capsys):
    code = main(["oracle-iso", "A(2,1,1,1)", "A(2,-1,1,1)", "--bound", "0"])
    assert code == 1
    assert "--bound" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["abc", "0", "-3", "2.5"])
@pytest.mark.parametrize("command", ["compare", "oracle-iso"])
def test_bad_env_bound_is_usage_error(capsys, monkeypatch, command, value):
    monkeypatch.setenv("TORUSCLASS_ORACLE_BOUND", value)
    code = main([command, "A(2,1,1,1)", "A(2,-1,1,1)"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: TORUSCLASS_ORACLE_BOUND must be an integer >= 1, "
                            f"got {value!r}\n")


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
