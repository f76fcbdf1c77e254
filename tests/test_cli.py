import json
from pathlib import Path

import pytest

import qhopf
from qhopf.cli import main
from qhopf.scalars import MAX_EXPONENT
from qhopf.structfile import load_entry

DATA = Path(qhopf.__file__).parent / "data"


def path(name):
    return str(DATA / f"{name}.qh")


def corrupt(tmp_path, name, mutate):
    doc = json.loads((DATA / f"{name}.qh").read_text())
    mutate(doc)
    out = tmp_path / f"{name}-corrupt.qh"
    out.write_text(json.dumps(doc))
    return str(out)


def flip_sign(rows, idx):
    text = rows[idx][-1]
    rows[idx][-1] = text[1:] if text.startswith("-") else "-" + text


# -- verify -----------------------------------------------------------------


def test_verify_all_passes(capsys):
    assert main(["verify", path("z2-cocycle"), "--checks", "all"]) == 0
    out = capsys.readouterr().out
    assert "RESULT: PASS" in out


def test_verify_quasitriangular_entry():
    assert main(["verify", path("sweedler-twisted"), "--checks",
                 "axioms,qtri,qybe,identities"]) == 0


def test_verify_corrupted_pentagon(tmp_path, capsys):
    bad = corrupt(tmp_path, "z2-cocycle",
                  lambda doc: flip_sign(doc["phi"], 3))
    assert main(["verify", bad, "--checks", "axioms", "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert not report["passed"]
    failing = [c["id"] for r in report["reports"] for c in r["checks"]
               if not c["passed"]]
    assert any(c in ("pentagon", "coassociator-invertible") for c in failing)


def test_verify_names_the_pentagon(tmp_path, capsys):
    """A coassociator of the form 1 + c p- (x) p- (x) p- is invertible and
    counital for c != -1, but satisfies the pentagon only for c in {0, -2};
    at c = 1 the pentagon is the one check that fails."""
    from qhopf.catalog import CatalogEntry
    from qhopf.graded import TensorElement
    from qhopf.scalars import QQ
    from qhopf.structfile import save_entry

    entry = load_entry(path("z2-cocycle"))
    H = entry.structure
    A = H.algebra
    pm = A.element({"1": A.field.from_rational(QQ(1, 2)),
                    "g": A.field.from_rational(QQ(-1, 2))})
    cube = TensorElement.of(pm, pm, pm)
    phi = H.unit_tensor(3) + cube
    phi_inv = H.unit_tensor(3) - cube.scale(A.field.from_rational(QQ(1, 2)))
    bad = CatalogEntry("pentagon-breaker",
                       H.with_data(phi=phi, phi_inv=phi_inv), {}, {})
    target = tmp_path / "pentagon-breaker.qh"
    save_entry(bad, str(target))
    assert main(["verify", str(target), "--checks", "axioms", "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    failing = [c["id"] for r in report["reports"] for c in r["checks"]
               if not c["passed"]]
    assert "pentagon" in failing
    assert "coassociator-invertible" not in failing
    assert "counit-coassociator" not in failing


def test_verify_bad_scalar_token(tmp_path, capsys):
    def mutate(doc):
        doc["beta"]["1"] = "1/"
    bad = corrupt(tmp_path, "z2-group", mutate)
    assert main(["verify", bad]) == 2
    assert "position" in capsys.readouterr().err


def test_verify_unknown_check(capsys):
    assert main(["verify", path("z2-group"), "--checks", "nonsense"]) == 2


@pytest.mark.parametrize("checks", [",", "", " , "])
def test_verify_with_no_check_named_exits_2(checks, capsys):
    assert main(["verify", path("z2-group"), "--checks", checks, "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: --checks: name at least one of axioms, qtri, qybe, identities, all"]


@pytest.mark.parametrize("checks, line", [
    ("", "error: --checks: name at least one of axioms, qtri, qybe, identities, all"),
    (",", "error: --checks: name at least one of axioms, qtri, qybe, identities, all"),
    ("axioms,nonsense", "error: unknown check 'nonsense'; "
                        "valid: axioms, qtri, qybe, identities, all")],
    ids=["empty", "comma", "unknown"])
def test_verify_checks_the_flag_before_loading(checks, line, capsys):
    """The missing file shows nothing was read: the flag's error comes first."""
    assert main(["verify", "no-such-file.qh", "--checks", checks, "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.splitlines() == [line]


def test_verify_runs_each_named_check_once_in_first_named_order(capsys):
    assert main(["verify", path("z2-group"), "--checks", "qtri,axioms,qtri,axioms",
                 "--json"]) == 0
    subjects = [r["subject"] for r in json.loads(capsys.readouterr().out)["reports"]]
    assert subjects == ["z2-group:quasitriangular", "z2-group:quasi-bialgebra",
                        "z2-group:antipode"]


def test_verify_missing_file(capsys):
    assert main(["verify", "does-not-exist.qh"]) == 2


def test_verify_json_deterministic(capsys):
    assert main(["verify", path("grassmann-theta"), "--json"]) == 0
    first = capsys.readouterr().out
    assert main(["verify", path("grassmann-theta"), "--json"]) == 0
    second = capsys.readouterr().out
    assert first == second


# -- casimir -----------------------------------------------------------------


def test_casimir_u_prints_g(capsys):
    assert main(["casimir", path("z2-group"), "--kind", "u", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["element"] == {"g": "1"}
    assert doc["inverse"] == {"g": "1"}
    assert doc["checks"]["conjugates-antipode-squared"]


def test_casimir_c1_from_beta(capsys):
    assert main(["casimir", path("z2-cocycle"), "--kind", "c1",
                 "--source", "beta", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["element"] == {"1": "1"}


def test_casimir_c2_from_alpha(capsys):
    assert main(["casimir", path("sweedler-twisted"), "--kind", "c2",
                 "--source", "alpha", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["element"] == {"1": "1"}


def test_casimir_cm(capsys):
    assert main(["casimir", path("sweedler-h4"), "--kind", "cm", "--power", "0",
                 "--rep", "regular", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["checks"]["central"]


def test_casimir_quadratic(capsys):
    assert main(["casimir", path("z2-group"), "--kind", "quadratic",
                 "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["c1"] == {"1": "1"}  # beta, since R^T R = 1 (x) 1


def one_error_line(capsys):
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    return captured.out == "" and len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.parametrize("kind, source", [("c1", "inv:0"), ("c2", "pinv:0")])
def test_casimir_from_an_invariant_vector(kind, source, capsys):
    assert main(["casimir", path("sweedler-h4"), "--kind", kind,
                 "--source", source, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["source"] == {"1": "1"} and doc["element"] == {"1": "1"}


@pytest.mark.parametrize("source", ["inv:1", "pinv:7", "inv:-1", "pinv:x", "inv:",
                                    pytest.param("inv:" + "9" * 5000, id="inv:5000-digits")])
def test_casimir_source_index_out_of_range(source, capsys):
    """5000 digits are more than int() reads (sys.get_int_max_str_digits())."""
    assert main(["casimir", path("sweedler-h4"), "--kind", "c1",
                 "--source", source]) == 2
    assert one_error_line(capsys)


@pytest.mark.parametrize("args, message", [
    (["--kind", "c1", "--source", "gamma"],
     "unknown source 'gamma'; use beta, alpha, inv:N or pinv:N"),
    (["--kind", "cm", "--rep", "nosuch"], "entry z2-group has no representation 'nosuch'"),
], ids=["source", "rep"])
def test_casimir_unknown_source_or_rep_exits_2_with_one_line(args, message, capsys):
    assert main(["casimir", path("z2-group"), *args]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.splitlines() == [f"error: {message}"]


def test_casimir_cm_picks_a_representation_without_rep(tmp_path, capsys):
    assert main(["casimir", path("sweedler-h4"), "--kind", "cm", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["rep"] == "regular"
    no_regular = corrupt(tmp_path, "z2-group",
                         lambda doc: doc["representations"].pop("regular"))
    assert main(["casimir", no_regular, "--kind", "cm", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["rep"] == "sign"  # first by name
    no_reps = corrupt(tmp_path, "sweedler-h4",
                      lambda doc: doc["representations"].clear())
    assert main(["casimir", no_reps, "--kind", "cm"]) == 2
    assert one_error_line(capsys)


def test_casimir_text_output(capsys):
    assert main(["casimir", path("z2-group"), "--kind", "u"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "kind: u",
        "checks: {'conjugates-antipode-squared': True, "
        "'fixed-by-antipode-squared': True, 'two-sided-inverse': True}",
        "element: {'g': '1'}",
        "inverse: {'g': '1'}"]


@pytest.mark.parametrize("kind", ["cm", "cmbar", "u"])
def test_casimir_refuses_a_structure_that_fails_verification(kind, tmp_path, capsys):
    """With phi^-1 emptied, verify fails coassociator-invertible; casimir
    used to build from the unverified data and exit 0 (cm gave {})."""
    bad = corrupt(tmp_path, "small-uqsl2", lambda doc: doc.update(phi_inv=[]))
    assert main(["verify", bad, "--checks", "axioms", "--json"]) == 1
    capsys.readouterr()
    assert main(["casimir", bad, "--kind", kind, "--json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith(f"error: {bad} failed verification: coassociator-invertible")


@pytest.mark.parametrize("power", [1001, -1001, 10 ** 4000])
def test_casimir_power_beyond_the_cap_exits_2_before_loading(power, capsys):
    """rtr_power squares R^T R about log2 |m| times, so the flag is capped
    at scalars.MAX_EXPONENT; the missing file shows nothing was loaded."""
    assert main(["casimir", "no-such-file.qh", "--kind", "cm",
                 "--power", str(power)]) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line == f"error: --power: |m| must be at most {MAX_EXPONENT}"
    assert main(["casimir", "no-such-file.qh", "--kind", "cm", "--power", "-1000"]) == 2
    assert "no-such-file.qh" in capsys.readouterr().err


def test_casimir_source_required(capsys):
    assert main(["casimir", path("z2-group"), "--kind", "c1"]) == 2


def test_casimir_needs_r(capsys):
    assert main(["casimir", path("z2-cocycle"), "--kind", "u"]) == 2


def test_verify_qtri_needs_r(capsys):
    assert main(["verify", path("z2-cocycle"), "--checks", "qtri"]) == 2
    assert "R-matrix" in capsys.readouterr().err


# -- twist -------------------------------------------------------------------


def test_twist_writes_verified_file(tmp_path, capsys):
    out = tmp_path / "twisted.qh"
    assert main(["twist", path("sweedler-h4"), "--twistor", "Ft",
                 "--out", str(out), "--verify-invariance", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["invariance"]["passed"]
    entry = load_entry(str(out))
    expected = load_entry(path("sweedler-twisted"))
    assert entry.structure == expected.structure
    assert main(["verify", str(out)]) == 0


def test_twist_by_identity_is_identity(tmp_path):
    out = tmp_path / "same.qh"
    assert main(["twist", path("grassmann-theta"), "--twistor", "identity",
                 "--out", str(out)]) == 0
    twisted = load_entry(str(out))
    original = load_entry(path("grassmann-theta"))
    assert twisted.structure == original.structure


def test_twist_z2_reports_u_invariance(capsys):
    assert main(["twist", path("z2-group"), "--twistor", "pminus",
                 "--verify-invariance", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    u_checks = [c for c in doc["invariance"]["checks"] if c["name"] == "u"]
    assert u_checks and u_checks[0]["twist_invariant"]
    assert u_checks[0]["element"] == {"g": "1"}


def test_twist_with_invariance_verifies_the_twisted_structure_once(monkeypatch, capsys):
    names = []
    original = qhopf.quasihopf.verify_structure
    monkeypatch.setattr(qhopf.quasihopf, "verify_structure",
                        lambda H: names.append(H.name) or original(H))
    assert main(["twist", path("sweedler-h4"), "--twistor", "Ft",
                 "--verify-invariance", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["invariance"]["passed"]
    assert names == ["sweedler-h4^Ft"]


def test_twist_text_output_with_invariance(capsys):
    assert main(["twist", path("z2-group"), "--twistor", "pminus",
                 "--verify-invariance"]) == 0
    out = capsys.readouterr().out
    rendered, summary = out.split("twist-invariance: ")
    assert json.loads(rendered)["name"] == "z2-group-pminus"
    lines = summary.splitlines()
    assert lines[0] == "PASS" and "  [ok  ] u" in lines
    assert all(line.startswith("  [ok  ] ") for line in lines[1:])


def double_transported_c1(monkeypatch):
    """A mutant whose twisted C1 comes out doubled: the transported invariant
    stays invariant, so the report records a failed comparison (exit 1
    from the report) and no PostconditionError is raised."""
    original = qhopf.casimir.twisted_c1
    monkeypatch.setattr(qhopf.casimir, "twisted_c1",
                        lambda H, F, c: original(H, F, c).scale(2))


@pytest.mark.parametrize("name, twistor", [("z2-group", "pminus"), ("sweedler-h4", "Ft")])
def test_twist_invariance_failure_exits_1_with_a_witness(monkeypatch, capsys, name, twistor):
    double_transported_c1(monkeypatch)
    assert main(["twist", path(name), "--twistor", twistor,
                 "--verify-invariance", "--json"]) == 1
    out = capsys.readouterr()
    assert out.err == ""
    report = json.loads(out.out)["invariance"]
    assert report["passed"] is False
    failed = {c["name"]: c for c in report["checks"] if not c["twist_invariant"]}
    assert failed["C1[inv:0]"]["witness"] == "1*1"  # 2 C1 - C1 for C1 = 1
    assert all(n.startswith("C1[") for n in failed)


def test_twist_text_output_with_a_failed_invariance(monkeypatch, capsys):
    double_transported_c1(monkeypatch)
    assert main(["twist", path("z2-group"), "--twistor", "pminus",
                 "--verify-invariance"]) == 1
    summary = capsys.readouterr().out.split("twist-invariance: ")[1].splitlines()
    assert summary[0] == "FAIL" and "  [FAIL] C1[inv:0]" in summary
    assert "  [ok  ] u" in summary


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
def test_a_transported_invariant_that_fails_invariance_is_marked_failed(
        monkeypatch, capsys, json_flag):
    """A transported C1 that is not invariant fails on agreement, not on
    twist invariance; its text mark and its JSON come from the same record."""
    H = load_entry(path("sweedler-h4")).structure
    g = H.algebra.basis_element(H.algebra.index_of("g"))
    monkeypatch.setattr(qhopf.casimir, "twisted_c1", lambda H, F, c: g)
    assert main(["twist", path("sweedler-h4"), "--twistor", "Ft",
                 "--verify-invariance", *json_flag]) == 1
    out = capsys.readouterr().out
    if json_flag:
        disagree = {c["name"] for c in json.loads(out)["invariance"]["checks"]
                    if c["agreement"] is False}
        assert '"agreement": false' in out and "C1[inv:0]" in disagree
    else:
        summary = out.split("twist-invariance: ")[1].splitlines()
        assert summary[0] == "FAIL" and "  [FAIL] C1[inv:0]" in summary


@pytest.mark.parametrize("command", [["verify"], ["center"],
                                     ["casimir", "--kind", "c1", "--source", "beta"],
                                     ["twist", "--twistor", "pminus"]], ids=lambda c: c[0])
def test_every_command_rejects_a_bad_twistor_when_reading_the_file(tmp_path, capsys, command):
    def mutate(doc):  # f f_inv = 7 for the identity twistor, which no command names
        doc["twistors"]["identity"]["f_inv"][0][2] = "7"
    bad = corrupt(tmp_path, "z2-cocycle", mutate)
    assert main([command[0], bad, *command[1:]]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.splitlines() == ["error: twistor identity: supplied inverse is wrong"]


def test_twist_of_a_structure_that_fails_verification_names_the_file(tmp_path, capsys):
    """Twisting by F^-1 undoes a twist, so a twisted structure fails only
    where its input does: the error names the input file."""
    def mutate(doc):
        doc["phi_inv"][0][3] = "2"
    bad = corrupt(tmp_path, "z2-group", mutate)
    assert main(["twist", bad, "--twistor", "identity"]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.splitlines() == [
        f"error: {bad} failed verification: coassociator-invertible, quasi-coassociativity, "
        "coassociator-antipode-inv, hexagon-left, hexagon-right"]


def test_twist_unknown_twistor(capsys):
    assert main(["twist", path("z2-group"), "--twistor", "nope"]) == 2


def test_twistor_with_a_wrong_inverse_exits_2(tmp_path, capsys):
    def mutate(doc):  # f f_inv != 1, which is the one product checked
        doc["twistors"]["pminus"]["f_inv"][0][2] = "1"
    assert main(["twist", corrupt(tmp_path, "z2-cocycle", mutate), "--twistor", "pminus",
                 "--verify-invariance", "--json"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.splitlines() == ["error: twistor pminus: supplied inverse is wrong"]


# -- center ------------------------------------------------------------------


def test_center_command(capsys):
    assert main(["center", path("sweedler-h4"), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["even"] == [{"1": "1"}]
    assert doc["odd"] == []


def test_center_super_entry(capsys):
    assert main(["center", path("grassmann-theta"), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["even"] == [{"1": "1"}] and doc["odd"] == [{"th": "1"}]


def test_center_text_output(capsys):
    assert main(["center", path("grassmann-theta")]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "center of grassmann-theta: dimension 2",
        "  even: {'1': '1'}",
        "  odd:  {'th': '1'}"]
