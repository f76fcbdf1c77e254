import json
from collections import Counter
from pathlib import Path

import pytest

import qhopf
from qhopf import scalars, structfile
from qhopf.catalog import BUILTIN_NAMES, load_builtin
from qhopf.errors import ScalarSyntaxError, StructureValidationError
from qhopf.scalars import FieldDescriptor, parse_scalar
from qhopf.structfile import entry_from_dict, load_entry, parse_entry, render_entry

DATA = Path(qhopf.__file__).parent / "data"


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_round_trip(name):
    entry = load_builtin(name)
    text = render_entry(entry)
    again = parse_entry(text)
    assert again.structure == entry.structure
    assert set(again.twistors) == set(entry.twistors)
    for key in entry.twistors:
        assert again.twistors[key].f == entry.twistors[key].f
        assert again.twistors[key].f_inv == entry.twistors[key].f_inv
    assert set(again.representations) == set(entry.representations)
    for key in entry.representations:
        assert again.representations[key] == entry.representations[key]
    assert render_entry(again) == text  # byte-identical re-render


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_packaged_golden_files_match_builders(name):
    path = DATA / f"{name}.qh"
    assert path.exists(), "golden files must ship with the package"
    entry = load_entry(str(path))
    assert render_entry(entry) == render_entry(load_builtin(name))


def test_missing_key_rejected():
    doc = json.loads(render_entry(load_builtin("z2-group")))
    del doc["phi"]
    with pytest.raises(StructureValidationError):
        entry_from_dict(doc)


def test_bad_scalar_token_rejected():
    doc = json.loads(render_entry(load_builtin("z2-group")))
    doc["alpha"]["1"] = "q + 1"  # no such generator over the rationals
    with pytest.raises(ScalarSyntaxError):
        entry_from_dict(doc)


def _scalar_strings(doc):
    """Every scalar string of a structure document, repeats included."""
    rows = doc["mul"] + doc["phi"] + doc["phi_inv"] + (doc["r"] or []) + (doc["r_inv"] or [])
    rows += [row for image in doc["coproduct"].values() for row in image]
    rows += [row for tw in doc["twistors"].values() for key in ("f", "f_inv")
             for row in tw[key]]
    texts = [row[-1] for row in rows]
    for key in ("counit", "alpha", "beta"):
        texts += doc[key].values()
    texts += [t for image in doc["antipode"].values() for t in image.values()]
    texts += [t for rep in doc["representations"].values()
              for m in rep["matrices"].values() for row in m for t in row]
    return texts


def test_each_distinct_scalar_string_is_parsed_once_per_load(monkeypatch):
    text = (DATA / "small-uqsl2.qh").read_text(encoding="utf-8")
    texts = _scalar_strings(json.loads(text))
    parsed = Counter()

    class Counting(scalars._Parser):
        def __init__(self, text, field):
            parsed[text] += 1
            super().__init__(text, field)
    monkeypatch.setattr(scalars, "_Parser", Counting)
    for _ in range(2):  # the memo lives for one load only
        parsed.clear()
        entry = parse_entry(text)
        assert set(parsed) == set(texts) and max(parsed.values()) == 1
    assert len(texts) > 50 * len(parsed)  # 1299 scalars, 16 distinct strings

    parsed.clear()
    monkeypatch.setattr(structfile, "_scalar_parser",
                        lambda field: lambda s: parse_scalar(s, field))
    reference = parse_entry(text)
    assert sum(parsed.values()) == len(texts)  # unmemoised: one parse per scalar
    assert entry.structure == reference.structure
    assert all(entry.representations[k] == reference.representations[k]
               for k in reference.representations)
    assert render_entry(entry) == render_entry(reference) == text


def test_a_bad_scalar_string_raises_every_time():
    parse = structfile._scalar_parser(FieldDescriptor.rationals())
    for _ in range(2):
        with pytest.raises(ScalarSyntaxError):
            parse("q + 1")
    assert parse("1/2") is parse("1/2")


def test_not_json_rejected():
    with pytest.raises(StructureValidationError):
        parse_entry("this is not json")


def test_corrupt_mul_rejected():
    doc = json.loads(render_entry(load_builtin("sweedler-h4")))
    # retarget a product: breaks the unit law
    doc["mul"][1][2] = doc["basis"]["labels"][0]
    with pytest.raises(StructureValidationError):
        entry_from_dict(doc)
