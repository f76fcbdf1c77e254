"""The text summary of a report shows per-check seconds; the JSON form does not."""

import json
from pathlib import Path

import qhopf
from qhopf.catalog import load_builtin
from qhopf.cli import main
from qhopf.quasihopf import verify_quasi_bialgebra
from qhopf.report import AxiomCheck, AxiomReport


def test_summary_shows_seconds_and_as_dict_omits_them():
    report = AxiomReport("demo", [AxiomCheck("pentagon", True, seconds=1.23456),
                                  AxiomCheck("unit", False, witness="x", element="g",
                                             seconds=0.0004)])
    lines = report.summary().splitlines()
    assert lines[1] == "  [ok  ] pentagon  (1.235 s)"
    assert lines[2] == "  [FAIL] unit @ g  (0.000 s)"
    text = json.dumps(report.as_dict())
    assert "seconds" not in text and "1.23" not in text


def test_verify_text_output_carries_seconds(capsys):
    path = Path(qhopf.__file__).parent / "data" / "z2-group.qh"
    assert main(["verify", str(path), "--checks", "axioms"]) == 0
    checks = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("  [")]
    assert checks and all(ln.endswith(" s)") for ln in checks)


def test_each_report_gets_its_own_record_of_a_memoised_check():
    """coproduct-homomorphism reads a per-structure memo; a second report
    on the same structure gets a new record, and the first keeps its time."""
    H = load_builtin("sweedler-h4").structure.with_data()
    first = verify_quasi_bialgebra(H).find("coproduct-homomorphism")
    seconds = first.seconds
    second = verify_quasi_bialgebra(H).find("coproduct-homomorphism")
    assert second is not first and first.passed and second.passed
    assert first.seconds == seconds
