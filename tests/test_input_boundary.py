"""Scalar hashing, parser depth, field errors, malformed structure files, and
identity reports that survive a failing u-operator."""

import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import qhopf
from qhopf.cli import main
from qhopf.errors import ScalarSyntaxError, StructureValidationError
from qhopf.scalars import MAX_NESTING, MAX_ORDER, FieldDescriptor, parse_scalar

DATA = Path(qhopf.__file__).parent / "data"
Q = FieldDescriptor.rationals()
FIELDS = (Q, FieldDescriptor.cyclotomic(3), FieldDescriptor.rational_functions("q"))


def corrupt(tmp_path, name, mutate):
    doc = json.loads((DATA / f"{name}.qh").read_text())
    mutate(doc)
    out = tmp_path / f"{name}-corrupt.qh"
    out.write_text(json.dumps(doc))
    return str(out)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_constants_hash_like_the_equal_int_or_fraction(field):
    for n in (0, 1, -3, 7):
        x = field.from_int(n)
        assert x == n and hash(x) == hash(n)
    assert hash(field.parse("1/2")) == hash(Fraction(1, 2))
    assert len({field.one(), 1, field.from_int(2) - field.one()}) == 1
    if field.generator_name:
        g = field.generator()
        assert {g: "g"}[field.generator()] == "g"
        assert hash(g * g) == hash(field.parse(f"{field.generator_name}^2"))


@pytest.mark.parametrize("text", ["(" * 5000 + "1" + ")" * 5000, "-" * 5000 + "1"],
                         ids=["parentheses", "unary-minus"])
def test_deep_nesting_is_a_syntax_error_with_a_position(text):
    with pytest.raises(ScalarSyntaxError) as err:
        parse_scalar(text, Q)
    assert err.value.position == MAX_NESTING


def test_nesting_up_to_the_cap_parses():
    depth = MAX_NESTING
    assert parse_scalar("(" * depth + "3" + ")" * depth, Q) == 3
    assert parse_scalar("-" * depth + "3", Q) == 3
    assert parse_scalar("-" * (depth - 1) + "3", Q) == -3
    assert parse_scalar("-(-(2)) - -1", Q) == 3


@pytest.mark.parametrize("order", [0, "abc"])
def test_bad_cyclotomic_order_exits_2_with_one_error_line(tmp_path, capsys, order):
    def mutate(doc):
        doc["field"]["order"] = order
    assert main(["verify", corrupt(tmp_path, "small-uqsl2", mutate)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


def test_identity_suite_reports_when_u_fails_to_conjugate(tmp_path, capsys):
    def mutate(doc):
        doc["beta"] = {"1": "1", "g": "1"}
    bad = corrupt(tmp_path, "sweedler-twisted", mutate)
    assert main(["verify", bad, "--checks", "axioms,identities", "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    failed = {c["id"] for r in report["reports"] for c in r["checks"] if not c["passed"]}
    assert {"exchange-phi-beta", "exchange-phiinv-beta", "u-conjugation"} <= failed


def _drop_g_matrix(doc):
    del doc["representations"]["regular"]["matrices"]["g"]


@pytest.mark.parametrize("mutate, message", [
    (lambda doc: doc["mul"].__setitem__(0, doc["mul"][0][:3]), "mul[0]: expected 4 items"),
    (lambda doc: doc.__setitem__("mul", "x"), "mul: expected a list"),
    (lambda doc: doc.__setitem__("r", 5), "r: expected a list"),
    (_drop_g_matrix, "representations.regular.matrices: missing 'g'"),
    (lambda doc: doc["mul"][2].__setitem__(1, "h"), "mul[2][1]: unknown label 'h'"),
    (lambda doc: doc["alpha"].__setitem__("1", 1), "alpha.1: expected a string"),
], ids=["short-mul-row", "mul-not-a-list", "r-is-a-number", "missing-matrix",
        "unknown-label", "scalar-not-a-string"])
def test_malformed_shape_exits_2_naming_the_json_path(tmp_path, mutate, message):
    bad = corrupt(tmp_path, "z2-group", mutate)
    env = dict(os.environ, PYTHONPATH=str(Path(qhopf.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-m", "qhopf.cli", "verify", bad],
                         capture_output=True, text=True, env=env)
    assert run.returncode == 2
    assert "Traceback" not in run.stderr
    assert run.stderr.splitlines() == [f"error: {message}"]


def test_cyclotomic_order_above_the_cap_exits_2_at_once(tmp_path, capsys):
    def field(order):
        return lambda doc: doc.update(field={"kind": "cyclotomic", "order": order})
    path = corrupt(tmp_path, "z2-group", field(2310))
    t0 = time.perf_counter()
    assert main(["verify", path, "--json"]) == 2
    assert time.perf_counter() - t0 < 1.0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and str(MAX_ORDER) in err[0]
    with pytest.raises(StructureValidationError):
        FieldDescriptor.cyclotomic(MAX_ORDER + 1)
    assert main(["verify", corrupt(tmp_path, "z2-group", field(105)), "--json"]) == 0


def _empty_carrier(doc):
    doc["representations"]["regular"] = {"parity": [], "matrices": {"1": [], "th": []}}


def _parity_two(doc):
    doc["representations"]["regular"]["parity"] = [2, 1]


@pytest.mark.parametrize("mutate", [_empty_carrier, _parity_two],
                         ids=["empty-carrier", "parity-two"])
@pytest.mark.parametrize("command", [
    ["casimir", "--kind", "cm", "--rep", "regular", "--json"],
    ["twist", "--twistor", "theta-pair", "--verify-invariance", "--json"],
], ids=["casimir-cm", "twist-verify-invariance"])
def test_malformed_carrier_exits_2_naming_the_representation(tmp_path, mutate, command):
    bad = corrupt(tmp_path, "grassmann-theta", mutate)
    env = dict(os.environ, PYTHONPATH=str(Path(qhopf.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-m", "qhopf.cli", command[0], bad, *command[1:]],
                         capture_output=True, text=True, env=env)
    assert run.returncode == 2
    assert "Traceback" not in run.stderr
    err = run.stderr.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "regular" in err[0]
