import json
import random
import re
from dataclasses import replace
from pathlib import Path

import pytest

import gradetree.verify
from conftest import calls_everywhere, random_dataset
from gradetree.cli import main
from gradetree.dataset import DATA_DIR_ENV, Attribute, AttributeSchema, Dataset, Record, load_students
from gradetree.metrics import gain_ratio, information_gain, lane_counter, score_all, split_information
from gradetree.verify import PUBLISHED, PublishedResults, consistency_check, verify_published

# Verdicts established by recomputing the published tables from the
# bundled data: of the seven published gains only ASS, GP, and ATT agree
# with the table; no published split-information or gain-ratio value does.
MATCHING_GAINS = {"ASS", "GP", "ATT"}


@pytest.fixture(scope="module")
def report(students):
    return verify_published(students)


def row(report, name):
    return next(r for r in report.rows if r.name == name)


def test_report_covers_all_22_quantities(report):
    assert len(report.rows) == 22
    names = [r.name for r in report.rows]
    assert names[0] == "Entropy(S)"
    assert len([n for n in names if n.startswith("Gain(")]) == 7
    assert len([n for n in names if n.startswith("SplitInfo(")]) == 7
    assert len([n for n in names if n.startswith("GainRatio(")]) == 7


def test_entropy_row_matches_at_its_looser_tolerance(report):
    r = row(report, "Entropy(S)")
    assert r.verdict == "MATCH"
    assert r.tolerance == 1e-3
    assert r.delta <= 1e-3


def test_gain_att_row_matches_at_1e_minus_5(report):
    r = row(report, "Gain(S, ATT)")
    assert r.verdict == "MATCH"
    assert r.delta <= 1e-5


def test_gain_verdicts_follow_the_recomputation(report, students):
    for name in students.schema.attribute_names:
        r = row(report, f"Gain(S, {name})")
        expected = "MATCH" if name in MATCHING_GAINS else "MISMATCH"
        assert r.verdict == expected, r.name


def test_no_published_split_info_or_ratio_survives_recomputation(report, students):
    for name in students.schema.attribute_names:
        assert row(report, f"SplitInfo(S, {name})").verdict == "MISMATCH"
        assert row(report, f"GainRatio(S, {name})").verdict == "MISMATCH"


def test_published_tables_are_internally_consistent():
    # per attribute, the published ratio equals published gain / split
    for name, ratio in PUBLISHED.gain_ratios.items():
        derived = PUBLISHED.gains[name] / PUBLISHED.split_infos[name]
        assert derived == pytest.approx(ratio, abs=1e-5), name


def test_implementation_agrees_with_oracle_on_the_fixture(report):
    assert report.implementation_consistent
    for r in report.consistency:
        assert r.ok
        assert r.delta <= 1e-9


def test_ratio_identity_residuals_are_tiny(report):
    for attribute, residual in report.ratio_identity_residuals:
        assert abs(residual) <= 1e-12, attribute


def test_root_row_reports_the_divergence(report):
    assert report.root_claimed == "PSM"
    assert report.root_recomputed == "ATT"
    assert report.root_verdict == "MISMATCH"


def test_rule_summary_counts(report):
    text = "\n".join(report.rule_summary)
    assert "35 rules generated" in text
    assert "7 published" in text
    assert "apparent typos): 3 (lines 5, 6, 7)" in text
    assert "OR-ed value lists" in text


def test_report_is_deterministic(students, report):
    again = verify_published(students)
    assert again.render() == report.render()
    assert again.to_json_dict() == report.to_json_dict()


def test_non_fixture_dataset_is_rejected(students):
    truncated = Dataset(students.schema, students.records[:49])
    with pytest.raises(ValueError, match="fixture"):
        verify_published(truncated)


def test_render_contains_verdict_lines(report):
    text = report.render()
    assert "Entropy(S)" in text
    assert "MATCH" in text and "MISMATCH" in text
    assert "implementation vs oracle" in text
    assert "root attribute" in text


def test_consistency_holds_on_100_random_datasets():
    rng = random.Random(53)
    for _ in range(100):
        ds = random_dataset(rng, max_records=60, contradiction_free=False)
        for r in consistency_check(ds):
            assert r.ok, (r.name, r.implementation, r.oracle)


def test_every_implementation_value_is_the_one_attribute_scorers_and_score_alls():
    rng = random.Random(29)
    scorers = {"Gain": information_gain, "SplitInfo": split_information, "GainRatio": gain_ratio}
    fields = {"Gain": "gain", "SplitInfo": "split_information", "GainRatio": "gain_ratio"}
    for _ in range(30):
        ds = random_dataset(rng, max_records=60, contradiction_free=False)
        scores = {s.attribute: s for s in score_all(ds)}
        rows = consistency_check(ds)
        assert [r.name for r in rows] == ["Entropy(S)"] + [
            f"{kind}(S, {a})" for a in ds.schema.attribute_names for kind in scorers
        ]
        for r in rows[1:]:
            kind, a = r.name.removesuffix(")").split("(S, ")
            assert r.implementation == scorers[kind](ds, a) == getattr(scores[a], fields[kind]), r.name


def test_verify_counts_and_scores_the_bundled_table_once(students, monkeypatch):
    building = [False]  # whether the rule summary's tree build is running

    def build(*args):
        building[0] = True
        try:
            return id3_build(*args)
        finally:
            building[0] = False

    id3_build = gradetree.verify.id3_build
    monkeypatch.setattr(gradetree.verify, "id3_build", build)
    built = calls_everywhere(monkeypatch, lane_counter, lambda: building[0])
    scored = calls_everywhere(monkeypatch, score_all)
    report = verify_published(students)
    assert built == [False, True]  # the audit's one count, then the rule summary's build
    assert len(scored) == 1
    assert report.implementation_consistent


def fixture_variants(students):
    """Datasets that differ from the bundled fixture in one way each, named."""
    schema, records = students.schema, list(students.records)
    first, attribute = records[0], schema.attributes[0]
    other_value = next(v for v in attribute.domain if v != first.values[attribute.name])
    other_label = next(c for c in schema.class_domain if c != first.label)
    j = next(j for j, r in enumerate(records) if r != first)
    swapped = [records[j], *records[1:j], first, *records[j + 1:]]
    reordered = AttributeSchema(
        (Attribute(attribute.name, attribute.domain[::-1]), *schema.attributes[1:]), schema.class_attribute
    )
    return {
        "one cell changed": Dataset(schema, [Record({**first.values, attribute.name: other_value}, first.label),
                                             *records[1:]]),
        "one label changed": Dataset(schema, [Record(first.values, other_label), *records[1:]]),
        "two rows swapped": Dataset(schema, swapped),
        "one row dropped": Dataset(schema, records[1:]),
        "one domain reordered": Dataset(reordered, records),
        "not a dataset": students.records,
    }


def test_the_fixture_guard_refuses_any_other_table_and_accepts_a_crlf_copy(students, tmp_path):
    for what, dataset in fixture_variants(students).items():
        assert dataset != students, what
        with pytest.raises(ValueError, match=r"^dataset does not match the bundled 50-record fixture; "
                                             r"the published tables can only be audited against it$"):
            verify_published(dataset)
    packaged = Path(gradetree.verify.__file__).parent / "data"
    for name in ("students.csv", "students.schema.json"):  # every line ended by CRLF
        lines = (packaged / name).read_bytes().splitlines(keepends=False)
        (tmp_path / name).write_bytes(b"".join(line + b"\r\n" for line in lines))
    copy = load_students(tmp_path)
    assert b"\r\n" in (tmp_path / "students.csv").read_bytes()
    assert copy == students and copy is not students
    assert verify_published(copy).to_json_dict() == verify_published(students).to_json_dict()


def test_an_implementation_that_drifts_from_the_oracle_is_a_hard_failure(
    students, monkeypatch, capsys
):
    monkeypatch.delenv(DATA_DIR_ENV, raising=False)
    def drifting(dataset):
        return [replace(s, gain=s.gain + 1e-6) for s in score_all(dataset)]

    monkeypatch.setattr("gradetree.verify.score_all", drifting)
    report = verify_published(students)
    assert not report.implementation_consistent
    lines = report.render().splitlines()
    assert next(l for l in lines if l.startswith("implementation vs oracle")).endswith(": FAILED")
    failures = [l for l in lines if l.startswith("  ")]
    assert [l.split(":")[0] for l in failures] == [
        f"  Gain(S, {a})" for a in students.schema.attribute_names
    ]
    assert all(re.fullmatch(r"  Gain\(S, \w+\): implementation \S+ vs oracle \S+", l) for l in failures)

    assert main(["verify"]) == 3
    assert "verification hard failure" in capsys.readouterr().err
    assert main(["verify", "--format", "json"]) == 3
    assert json.loads(capsys.readouterr().out)["implementation_consistent"] is False


def test_a_broken_ratio_identity_is_a_hard_failure(students, monkeypatch):
    def skewed_gains(dataset):  # past the identity's tolerance, within the oracle's
        return [replace(s, gain=s.gain + 1e-10) for s in score_all(dataset)]

    monkeypatch.setattr("gradetree.verify.score_all", skewed_gains)
    report = verify_published(students)
    assert not report.implementation_consistent
    lines = report.render().splitlines()
    assert next(l for l in lines if l.startswith("implementation vs oracle")).endswith(": OK")
    assert next(l for l in lines if l.startswith("gain_ratio * split_information")).endswith(
        ": FAILED"
    )


def test_the_published_tables_cannot_be_changed_in_place():
    for table in (PUBLISHED.gains, PUBLISHED.split_infos, PUBLISHED.gain_ratios):
        with pytest.raises(TypeError):
            table["PSM"] = table["PSM"]  # the same value, so a table that takes it is not altered
    assert isinstance(PUBLISHED.rule_lines, tuple)
    passed = {"PSM": 1.0}
    held = PublishedResults(1.0, passed, passed, passed, "PSM", ["IF PSM = 'First' THEN ESM = First"])
    passed["PSM"] = 2.0  # the results hold copies of the tables passed in
    assert held.gains == held.split_infos == held.gain_ratios == {"PSM": 1.0}
    assert held.rule_lines == ("IF PSM = 'First' THEN ESM = First",)
