import json
from pathlib import Path

import jsonschema
import pytest

from spbw.corpus import CORPUS_NAMES, corpus_doc, corpus_source
from spbw.dsl import DEFAULT_OPTIONS, parse_presentation
from spbw.pipeline import run_smooth
from spbw.report import Report

SCHEMA = json.loads(
    (Path(__file__).resolve().parents[1] / "src" / "spbw" / "schema" / "report.schema.json").read_text()
)
GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture(scope="module")
def weyl_report():
    return run_smooth(corpus_doc("weyl"))


def test_report_round_trip(weyl_report):
    again = Report.from_json(weyl_report.to_json())
    assert again == weyl_report


def test_report_matches_schema(weyl_report):
    jsonschema.validate(weyl_report.to_dict(), SCHEMA)


def test_broken_report_matches_schema():
    rep = run_smooth(corpus_doc("broken"))
    jsonschema.validate(rep.to_dict(), SCHEMA)
    assert rep.verdict == "failed"
    assert rep.failed_check == "pbw-consistency"


def test_zero_timing_is_byte_stable(weyl_report):
    a = weyl_report.to_json(zero_timing=True)
    b = Report.from_json(weyl_report.to_json()).to_json(zero_timing=True)
    assert a == b


def test_human_text_mentions_every_stage(weyl_report):
    text = weyl_report.human_text()
    for stage in ("pbw-consistency", "connectedness", "integrability", "verdict"):
        assert stage in text


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_golden_matches_the_schema(name):
    jsonschema.validate(json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8")), SCHEMA)


def test_a_first_version_report_is_rejected(weyl_report):
    doc = weyl_report.to_dict()
    assert doc["schema"] == "spbw-report/2"
    doc["schema"] = "spbw-report/1"
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(doc, SCHEMA)


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_golden_round_trips_byte_for_byte(name):
    golden = (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
    assert Report.from_json(golden).to_json() == golden


def _changes(before: dict, after: dict) -> set:
    """Where two zero-timed report documents differ: ``config.KEY`` for an
    option, ``NAME.data.KEY`` or ``NAME.FIELD`` for a check record, and the
    field name for any other field."""
    out = set()
    for key in before:
        if key == "config":
            out |= {f"config.{k}" for k in before[key] if before[key][k] != after[key][k]}
        elif key == "checks":
            for rb, ra in zip(before[key], after[key]):
                data = rb["data"].keys() | ra["data"].keys()
                out |= {f"{rb['name']}.data.{k}" for k in data if rb["data"].get(k) != ra["data"].get(k)}
                out |= {f"{rb['name']}.{f}" for f in rb if f != "data" and rb[f] != ra[f]}
        elif before[key] != after[key]:
            out.add(key)
    return out


# (option, another valid value, the record whose bound it is)
OPTION_CASES = [
    ("seed", 7, None),
    ("dsq_degree", 3, "d-squared"),
    ("conn_degree", 3, "connectedness"),
]


def test_every_option_has_a_case():
    assert [key for key, _, _ in OPTION_CASES] == list(DEFAULT_OPTIONS)


@pytest.mark.parametrize("key, value, record", OPTION_CASES)
@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_no_option_is_silently_dead(name, key, value, record):
    """Each option shows in the report: ``seed`` only in ``config``, and
    each degree also as the ``bound`` of the record of the stage it
    budgets, unless a hard failure skipped that stage."""
    base = run_smooth(corpus_doc(name))
    doc = parse_presentation(corpus_source(name) + f"options {key}={value}\n")
    changed = run_smooth(doc)
    assert doc.options[key] != base.config[key]
    want = {f"config.{key}"}
    if record is not None and base.check(record).status != "skipped":
        want.add(f"{record}.data.bound")
        assert changed.check(record).data["bound"] == value
    else:
        assert record is None or name == "broken"
    assert _changes(json.loads(base.to_json(zero_timing=True)), json.loads(changed.to_json(zero_timing=True))) == want
