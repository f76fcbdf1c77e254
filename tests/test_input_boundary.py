"""Scalar hashing, parser depth, field errors, malformed structure files, and
identity reports that survive a failing u-operator."""

import contextlib
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import qhopf
from qhopf.cli import main
from qhopf.errors import ScalarSyntaxError, StructureValidationError
from qhopf.scalars import (MAX_DEGREE, MAX_EXPONENT, MAX_NESTING, MAX_ORDER, FieldDescriptor,
                           parse_scalar)
from qhopf.structfile import parse_entry

DATA = Path(qhopf.__file__).parent / "data"
Q = FieldDescriptor.rationals()
RQ = FieldDescriptor.rational_functions("q")
FIELDS = (Q, FieldDescriptor.cyclotomic(3), RQ)


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


def _bad_matrix_entry(doc):
    doc["representations"]["regular"]["matrices"]["g"][0][1] = "*"


@pytest.mark.parametrize("mutate, message", [
    (lambda doc: doc["mul"].__setitem__(0, doc["mul"][0][:3]), "mul[0]: expected 4 items"),
    (lambda doc: doc.__setitem__("mul", "x"), "mul: expected a list"),
    (lambda doc: doc.__setitem__("r", 5), "r: expected a list"),
    (_drop_g_matrix, "representations.regular.matrices: missing 'g'"),
    (lambda doc: doc["mul"][2].__setitem__(1, "h"), "mul[2][1]: unknown label 'h'"),
    (lambda doc: doc["alpha"].__setitem__("1", 1), "alpha.1: expected a string"),
    (lambda doc: doc.update(field={"kind": "cyclotomic", "order": "3"}),
     "field.order: expected an integer"),
    (lambda doc: doc["basis"]["parity"].__setitem__(1, "0"),
     "basis.parity[1]: expected an integer"),
    (lambda doc: doc["basis"].update(unit="h"), "basis.unit: unknown label 'h'"),
    (lambda doc: doc["coproduct"].update(h=[]), "coproduct: unknown label 'h'"),
    (lambda doc: doc["antipode"]["g"].update(g=1), "antipode.g.g: expected a string"),
    (lambda doc: doc["twistors"]["pminus"].pop("f_inv"), "twistors.pminus.f_inv: missing"),
    (lambda doc: doc["representations"]["sign"]["parity"].__setitem__(0, True),
     "representations.sign.parity[0]: expected an integer"),
    (lambda doc: doc["representations"]["regular"]["matrices"]["g"].__setitem__(0, "1"),
     "representations.regular.matrices.g[0]: expected a list"),
    (lambda doc: doc.update(notes=5), "notes: expected a string"),
    (_bad_matrix_entry,
     "representations.regular.matrices.g[0][1]: unexpected token '*' (at position 0)"),
    (lambda doc: doc["mul"][0].__setitem__(3, "1/"),
     "mul[0][3]: unexpected token '' (at position 2)"),
    (lambda doc: doc["alpha"].update({"1": "2**"}),
     "alpha.1: unexpected token '*' (at position 2)"),
    (lambda doc: doc["basis"]["labels"].__setitem__(1, "1"),
     "basis.labels[1]: repeated label '1'"),
    (lambda doc: doc["basis"]["parity"].__setitem__(1, 2),
     "basis.parity[1]: expected 0 or 1"),
    (lambda doc: doc["basis"]["parity"].pop(), "basis.parity: expected 2 items"),
    (lambda doc: doc["basis"]["parity"].__setitem__(0, 1),
     "basis.unit: the unit must be even"),
    (lambda doc: doc.update(field={"kind": "quaternions"}), "unknown field kind 'quaternions'"),
], ids=["short-mul-row", "mul-not-a-list", "r-is-a-number", "missing-matrix",
        "unknown-label", "scalar-not-a-string", "field-order", "basis-parity",
        "basis-unit", "coproduct-label", "antipode-value", "twistor-f-inv",
        "carrier-parity", "matrix-row", "notes", "matrix-scalar", "mul-scalar",
        "alpha-scalar", "basis-label-repeated", "basis-parity-two",
        "basis-parity-count", "basis-unit-odd", "field-kind"])
def test_malformed_shape_exits_2_naming_the_json_path(tmp_path, mutate, message):
    bad = corrupt(tmp_path, "z2-group", mutate)
    env = dict(os.environ, PYTHONPATH=str(Path(qhopf.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-m", "qhopf.cli", "verify", bad],
                         capture_output=True, text=True, env=env)
    assert run.returncode == 2
    assert "Traceback" not in run.stderr
    assert run.stderr.splitlines() == [f"error: {message}"]


def test_a_path_prefixed_scalar_error_keeps_its_type_and_position():
    doc = json.loads((DATA / "z2-group.qh").read_text())
    doc["beta"]["g"] = "1 +"
    with pytest.raises(ScalarSyntaxError) as err:
        parse_entry(json.dumps(doc))
    assert err.value.position == 3
    assert err.value.message == "beta.g: unexpected token ''"


@pytest.mark.parametrize("data", [
    b'{"name": 1' + b"1" * 5000 + b"}", "\u00fc".encode("latin-1"), b"[" * 100000,
], ids=["int-over-4300-digits", "not-utf-8", "nesting-too-deep"])
def test_a_file_json_cannot_read_exits_2_with_one_error_line(tmp_path, capsys, data):
    bad = tmp_path / "bad.qh"
    bad.write_bytes(data)
    assert main(["verify", str(bad)]) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("error: not valid JSON: ")


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


GRADING_VIOLATIONS = {  # th is odd; each map sends it to the even image of 1
    "coproduct": lambda doc: doc["coproduct"].update(th=[["1", "1", "1"]]),
    "counit": lambda doc: doc["counit"].update(th="1"),
    "antipode": lambda doc: doc["antipode"].update(th={"1": "1"}),
}


@pytest.mark.parametrize("command", ["verify", "center"])
@pytest.mark.parametrize("name", sorted(GRADING_VIOLATIONS))
def test_a_structure_map_that_breaks_the_grading_exits_2_at_load(
        tmp_path, capsys, name, command):
    bad = corrupt(tmp_path, "grassmann-theta", GRADING_VIOLATIONS[name])
    assert main([command, bad]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.splitlines() == [f"error: grading violation in the {name} of th"]


def test_a_representation_error_names_the_representation(tmp_path, capsys):
    def mutate(doc):
        doc["representations"]["regular"]["matrices"]["th"] = [["1", "0"], ["0", "0"]]
    assert main(["verify", corrupt(tmp_path, "grassmann-theta", mutate)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.splitlines() == [
        "error: representation regular: grading violation in the matrix of th"]


def test_a_duplicate_json_key_exits_2_naming_the_key(tmp_path, capsys):
    """json.loads alone keeps a repeated key's last value, so this copy,
    with beta = 2 ahead of the real beta, would verify."""
    text = (DATA / "z2-group.qh").read_text()
    bad = tmp_path / "duplicate-beta.qh"
    bad.write_text(text.replace("{", '{"beta": {"1": "2"}, ', 1))
    assert main(["verify", str(bad)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.splitlines() == ["error: not valid JSON: duplicate key 'beta'"]


# -- the size of a parsed scalar ---------------------------------------------

LIMIT = sys.get_int_max_str_digits()  # the most digits an int converts to text
HALF = "9" * (LIMIT // 2 + 1)


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("text", [
    f"{'9' * LIMIT} + 1", f"-{'9' * LIMIT} - 1", f"{HALF}*{HALF}", f"1/3/({HALF})/({HALF})",
], ids=["sum", "difference", "product", "quotient"])
def test_an_integer_too_long_to_render_is_refused_at_its_operator(field, text):
    with pytest.raises(ScalarSyntaxError) as err:
        parse_scalar(text, field)
    assert err.value.message == f"integer longer than {LIMIT} digits"
    assert err.value.position == max(text.rfind(op) for op in "+-*/")


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_an_integer_of_the_most_digits_parses_and_renders(field):
    nines = "9" * LIMIT
    assert str(parse_scalar(f"{nines} - 1 + 1", field)) == nines
    assert str(parse_scalar(f"-{nines}/7*1", field)) == f"-{nines}/7"


def test_an_oversized_rational_exits_2_with_one_error_line(tmp_path, capsys):
    def mutate(doc):
        doc["beta"]["1"] = f"{'9' * 4000}*{'9' * 4000}"
    assert main(["verify", corrupt(tmp_path, "z2-group", mutate), "--json"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.splitlines() == [
        f"error: beta.1: integer longer than {LIMIT} digits (at position 4000)"]


def test_a_superscript_digit_exits_2_with_one_error_line(tmp_path, capsys):
    def mutate(doc):
        doc["beta"]["1"] = "2²"
    assert main(["verify", corrupt(tmp_path, "z2-group", mutate), "--json"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.splitlines() == ["error: beta.1: unexpected character '²' (at position 1)"]


def test_a_superscript_digit_after_the_indeterminate_exits_2_with_one_error_line(
        tmp_path, capsys):
    def mutate(doc):
        doc["field"] = {"kind": "rational-functions", "indeterminate": "q"}
        doc["beta"]["1"] = "q²"
    assert main(["verify", corrupt(tmp_path, "z2-group", mutate), "--json"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.splitlines() == ["error: beta.1: unexpected character '²' (at position 1)"]


def test_a_qq_product_beyond_the_degree_cap_exits_2_at_once(tmp_path, capsys):
    """800 factors of degree 1000 (8.8 kB): refused at the second product,
    before it is formed."""
    def mutate(doc):
        doc["field"] = {"kind": "rational-functions", "indeterminate": "q"}
        doc["beta"]["1"] = "*".join(["(q^1000+1)"] * 800)
    path = corrupt(tmp_path, "z2-group", mutate)
    t0 = time.perf_counter()
    assert main(["verify", path, "--json"]) == 2
    assert time.perf_counter() - t0 < 1.0
    assert capsys.readouterr().err.splitlines() == [
        f"error: beta.1: degree larger than {MAX_DEGREE} (at position 21)"]


C3, C360 = FieldDescriptor.cyclotomic(3), FieldDescriptor.cyclotomic(MAX_ORDER)
NORM_CAP = f"norm of the divisor may exceed {LIMIT} digits"


def test_a_quotient_by_a_divisor_of_too_large_a_norm_exits_2_at_once(tmp_path, capsys):
    """1/(<LIMIT-digit integer> + z + 2*z^5) over cyclotomic(360) (4.3 kB): the
    divisor's norm may have phi(360) = 96 times as many digits, so the quotient
    is refused at its "/" before the inverse is formed."""
    def mutate(doc):
        doc["field"] = {"kind": "cyclotomic", "order": MAX_ORDER}
        doc["beta"]["1"] = f"1/({'9' * LIMIT} + z + 2*z^5)"
    path = corrupt(tmp_path, "z2-group", mutate)
    t0 = time.perf_counter()
    assert main(["verify", path, "--json"]) == 2
    assert time.perf_counter() - t0 < 1.0
    assert capsys.readouterr().err.splitlines() == [f"error: beta.1: {NORM_CAP} (at position 1)"]


@pytest.mark.parametrize("field, divisor", [
    (Q, "9" * LIMIT), (C360, "9" * LIMIT),  # a rational divisor is exempt
    (C360, f"{'9' * (LIMIT - 100)}*(z + 2*z^5)"),  # and so is the content
    (C3, f"{'9' * (LIMIT // 2 - 1)} + z"),  # bound (sum |a_i|)^2 = 10^(LIMIT - 2)
    (RQ, f"{'9' * LIMIT} + q"),
], ids=["rational", "rational-over-c360", "content", "c3-below-the-cap", "qq"])
def test_a_divisor_within_the_norm_cap_is_inverted(field, divisor):
    t0 = time.perf_counter()
    quotient = parse_scalar(f"1/({divisor})", field)
    assert time.perf_counter() - t0 < 1.0  # the content stays out of the conjugates
    assert quotient * parse_scalar(divisor, field) == 1


@pytest.mark.parametrize("field, divisor", [
    (C3, f"{'9' * (LIMIT // 2 + 1)} + z"), (C360, f"{'9' * 45} + z"),
], ids=["c3", "c360"])
def test_a_divisor_beyond_the_norm_cap_is_refused_at_its_operator(field, divisor):
    with pytest.raises(ScalarSyntaxError) as err:
        parse_scalar(f"2 + 1/({divisor})", field)
    assert (err.value.message, err.value.position) == (NORM_CAP, 5)


E, REST = MAX_EXPONENT, MAX_DEGREE - MAX_EXPONENT


def test_qq_degrees_up_to_the_cap_parse():
    assert MAX_DEGREE >= MAX_EXPONENT
    assert str(parse_scalar(f"q^-{E} + q^{E}", RQ)) == f"q^{E} + q^-{E}"
    assert parse_scalar(f"q^{REST}*q^{E}", RQ).value == ((0,) * MAX_DEGREE + (1,), (1,))
    assert parse_scalar(f"q^-{REST}*q^-{E} + 1", RQ).value == (
        (1,) + (0,) * (MAX_DEGREE - 1) + (1,), (0,) * MAX_DEGREE + (1,))


@pytest.mark.parametrize("text, operator", [
    (f"q^{REST}*q^{E}*q", "*q"), (f"q^{REST}*q^{E}/q^-1", "/"),
    (f"q^-{REST}*q^-{E} + 1/(q + 1)", "+ 1/"), (f"q^-{REST}*q^-{E} - q^-1", "- q"),
], ids=["product", "quotient", "sum", "difference"])
def test_qq_degrees_beyond_the_cap_are_refused_at_the_operator(text, operator):
    with pytest.raises(ScalarSyntaxError) as err:
        parse_scalar(text, RQ)
    assert (err.value.message, err.value.position) == (
        f"degree larger than {MAX_DEGREE}", text.rindex(operator))


def _qq_factor(e, f, c):
    """A power of q, a binomial or a quotient of binomials."""
    return st.sampled_from([f"q^{e}", f"(q^{e} + {c})", f"(q^{e} - {c})/(q^{f} + {c})"])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.sampled_from("*/"), st.integers(-MAX_EXPONENT, MAX_EXPONENT),
                          st.integers(-MAX_EXPONENT, MAX_EXPONENT), st.integers(2, 5)),
                min_size=1, max_size=3), st.data())
def test_every_accepted_qq_product_is_within_the_degree_cap(factors, data):
    text = "1" + "".join(f"{op}{data.draw(_qq_factor(e, f, c))}" for op, e, f, c in factors)
    try:
        num, den = parse_scalar(text, RQ).value
    except ScalarSyntaxError as err:
        assert err.message == f"degree larger than {MAX_DEGREE}"
    else:
        assert max(len(num), len(den)) - 1 <= MAX_DEGREE


# -- fuzzing the reader with single faults -----------------------------------

FUZZ_FILES = ("z2-group", "grassmann-theta", "sweedler-twisted")
GOLDEN = {name: (DATA / f"{name}.qh").read_text() for name in FUZZ_FILES}
REPLACEMENTS = [5, -1, 2.5, True, None, "", "nope", [], {}, [[]], "1/0", "((",
                f"2^{MAX_EXPONENT + 1}", f"x^{MAX_EXPONENT + 1}"]


def _paths(node, path=()):
    """The JSON path of every value below node."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def mutated_documents(draw):
    """A golden document with one fault: a dropped, renamed or truncated
    value, a wrong type, an unknown label, a scalar beyond the exponent
    cap, a cyclotomic order beyond its cap or a bad carrier."""
    doc = json.loads(GOLDEN[draw(st.sampled_from(FUZZ_FILES))])
    fault = draw(st.sampled_from(["drop", "rename", "truncate", "replace", "order", "carrier"]))
    if fault == "order":
        doc["field"] = {"kind": "cyclotomic",
                        "order": draw(st.sampled_from([0, -6, MAX_ORDER + 1, 10 ** 12]))}
        return doc
    if fault == "carrier":
        rep = doc["representations"][draw(st.sampled_from(sorted(doc["representations"])))]
        rep["parity"] = draw(st.sampled_from([[], [2], [0, 0, 0], [-1, 1]]))
        return doc
    paths = list(_paths(doc))
    if fault == "rename":
        paths = [p for p in paths if isinstance(p[-1], str)]
    elif fault == "truncate":
        paths = [p for p in paths if isinstance(_at(doc, p), (list, str)) and _at(doc, p)]
    path = draw(st.sampled_from(paths))
    parent = _at(doc, path[:-1])
    key = path[-1]
    if fault == "drop":
        del parent[key]
    elif fault == "rename":
        parent["nope"] = parent.pop(key)
    elif fault == "truncate":
        parent[key] = parent[key][:-1]
    else:
        parent[key] = draw(st.sampled_from(REPLACEMENTS))
    return doc


@settings(max_examples=60, deadline=None, derandomize=True)
@given(mutated_documents())
def test_a_single_fault_exits_2_with_one_line_or_reports(tmp_path_factory, doc):
    path = tmp_path_factory.mktemp("fuzz") / "mutated.qh"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["verify", str(path), "--json"])
    if code == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and not out.getvalue()
    else:
        assert code in (0, 1) and not err.getvalue()
        report = json.loads(out.getvalue())
        assert report["passed"] is (code == 0) and report["reports"]
