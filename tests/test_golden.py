"""Byte-stable golden outputs for the worked-example corpus."""

import contextlib
import io
import json
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

from torusclass.cli import main

GOLDEN = Path(__file__).parent / "golden"

SCHEMA = json.loads(
    resources.files("torusclass").joinpath("schemas/cli_outputs.schema.json").read_text())

# (golden file, argv, schema definition of its payload)
CASES = [
    ("compare_B3213_B3140.json", ["compare", "B(3,2,1,3)", "B(3,1,4,0)"], "compare_report"),
    ("compare_B3240_B3140.json", ["compare", "B(3,2,4,0)", "B(3,1,4,0)"], "compare_report"),
    ("compare_B3213_B3240.json", ["compare", "B(3,2,1,3)", "B(3,2,4,0)"], "compare_report"),
    ("compare_A2121_A2112.json", ["compare", "A(2,1,2,1)", "A(2,1,1,2)"], "compare_report"),
    ("compare_A3011_A1022.json", ["compare", "A(3,0,1,1)", "A(1,0,2,2)"], "compare_report"),
    ("invariants_B3213.json", ["invariants", "B(3,2,1,3)"], "invariants_report"),
    ("oracle_B3213_B3140.json", ["oracle-iso", "B(3,2,1,3)", "B(3,1,4,0)"], "oracle_report"),
]
IDS = [c[0] for c in CASES]


@pytest.mark.parametrize("fname,argv,kind", CASES, ids=IDS)
def test_golden_output(fname, argv, kind):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(argv) == 0
    assert buf.getvalue() == (GOLDEN / fname).read_text()


@pytest.mark.parametrize("fname,argv,kind", CASES, ids=IDS)
def test_golden_file_matches_schema(fname, argv, kind):
    payload = json.loads((GOLDEN / fname).read_text())
    jsonschema.validate(payload, {"$ref": f"#/$defs/{kind}", "$defs": SCHEMA["$defs"]})
