"""The bundled build's outputs, end to end through the CLI, frozen byte for byte.

The model, rules and verify JSON goldens were written by the partition-based
builder this package started from, the DOT golden by the recursive
``to_dot`` that preceded the iterative tree walks, and the verify text
golden by the audit that built its rows in one loop per kind of quantity;
any change to scoring, tie order, rule support, node order or report
layout that moves a single byte fails here.
"""

from pathlib import Path

import pytest

from gradetree.cli import main
from gradetree.dataset import DATA_DIR_ENV

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture(autouse=True)
def bundled_data(monkeypatch):
    monkeypatch.delenv(DATA_DIR_ENV, raising=False)


def test_saved_model_bytes_are_unchanged(tmp_path, capsys):
    model = tmp_path / "model.json"
    assert main(["train", "--out", str(model)]) == 0
    assert model.read_bytes() == (GOLDEN / "fixture_model.json").read_bytes()


def test_rules_output_is_unchanged(tmp_path, capsys):
    model = tmp_path / "model.json"
    assert main(["train", "--out", str(model)]) == 0
    capsys.readouterr()
    assert main(["rules", "--model", str(model)]) == 0
    assert capsys.readouterr().out == (GOLDEN / "fixture_rules.txt").read_text(encoding="utf-8")


def test_verify_text_report_is_unchanged(capsys):
    assert main(["verify"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "fixture_verify.txt").read_text(encoding="utf-8")


def test_verify_json_document_is_unchanged(capsys):
    assert main(["verify", "--format", "json"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "fixture_verify.json").read_text(encoding="utf-8")


def test_dot_output_is_unchanged(tmp_path, capsys):
    model = tmp_path / "model.json"
    assert main(["train", "--out", str(model)]) == 0
    capsys.readouterr()
    assert main(["export-dot", "--model", str(model)]) == 0
    assert capsys.readouterr().out == (GOLDEN / "fixture_tree.dot").read_text(encoding="utf-8")
