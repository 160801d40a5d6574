"""Audit of the published result tables for the bundled student dataset.

The study the dataset comes from printed an overall class entropy, a
gain/split-information/gain-ratio table per attribute, a claimed root
attribute, and a seven-line rule set. This module recomputes every
quantity twice, once with the metrics module and once with a naive
tally-and-sum oracle written independently of it, and reports row by
row whether the published figure matches the recomputation.

Published-vs-oracle disagreement is an expected finding and is only ever
reported. Implementation-vs-oracle disagreement beyond 1e-9 means a bug
on our side and is surfaced as a hard failure.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Mapping, Sequence

from .dataset import Dataset, class_distribution, dataset_to_csv, load_csv, load_schema
from .metrics import entropy, gain_ratio, information_gain, score_all, split_information
from .rules import extract_rules
from .tree import id3_build

__all__ = [
    "PublishedResults",
    "PUBLISHED",
    "AuditRow",
    "ConsistencyRow",
    "VerifyReport",
    "consistency_check",
    "verify_published",
]


@dataclass(frozen=True)
class PublishedResults:
    """Reference values printed in the study the fixture was taken from."""

    entropy: float
    gains: Mapping[str, float]
    split_infos: Mapping[str, float]
    gain_ratios: Mapping[str, float]
    root_attribute: str
    rule_lines: tuple[str, ...]


PUBLISHED = PublishedResults(
    entropy=1.964,
    gains={
        "PSM": 0.577036,
        "CTG": 0.515173,
        "SEM": 0.365881,
        "ASS": 0.218628,
        "GP": 0.043936,
        "ATT": 0.451942,
        "LW": 0.453513,
    },
    split_infos={
        "PSM": 1.386579,
        "CTG": 1.448442,
        "SEM": 1.597734,
        "ASS": 1.744987,
        "GP": 1.91968,
        "ATT": 1.511673,
        "LW": 1.510102,
    },
    gain_ratios={
        "PSM": 0.416158,
        "CTG": 0.355674,
        "SEM": 0.229,
        "ASS": 0.125289,
        "GP": 0.022887,
        "ATT": 0.298968,
        "LW": 0.30032,
    },
    root_attribute="PSM",
    # Rule set as printed, verbatim, including its inconsistent quoting,
    # OR-ed value lists, and consequents that name a predictor.
    rule_lines=(
        "IF PSM = 'First' AND ATT = 'Good' AND CTG = 'Good' or 'Average' THEN ESM = First",
        "IF PSM = 'First' AND CTG = 'Good' AND ATT = \"Good\" OR 'Average' THEN ESM = 'First'",
        "IF PSM = 'Second' AND ATT = 'Good' AND ASS = 'Yes' THEN ESM = 'First'",
        "IF PSM = 'Second' AND CTG = 'Average' AND LW = 'Yes' THEN ESM = 'Second'",
        "IF PSM = 'Third' AND CTG = 'Good' OR 'Average' AND ATT = \"Good\" OR 'Average' THEN PSM = 'Second'",
        "IF PSM = 'Third' AND ASS = 'No' AND ATT = 'Average' THEN PSM = 'Third'",
        "IF PSM = 'Fail' AND CTG = 'Poor' AND ATT = 'Poor' THEN PSM = 'Fail'",
    ),
)


# --- independent oracle -----------------------------------------------------
# Deliberately does not call the metrics module: plain label tallies and
# explicit log2 sums, so a transcription or formula slip in either path
# shows up as a disagreement instead of passing silently.


def _oracle_entropy(labels: Sequence[str]) -> float:
    n = len(labels)
    if n == 0:
        return 0.0
    tally: dict[str, int] = {}
    for lab in labels:
        tally[lab] = tally.get(lab, 0) + 1
    total = 0.0
    for count in tally.values():
        p = count / n
        total += -p * math.log2(p)
    return total


def _oracle_groups(dataset: Dataset, attribute: str) -> dict[str, list[str]]:
    groups: dict[str, list[str]] = {}
    for rec in dataset.records:
        groups.setdefault(rec.values[attribute], []).append(rec.label)
    return groups


def _oracle_gain(dataset: Dataset, attribute: str) -> float:
    labels = [r.label for r in dataset.records]
    n = len(labels)
    weighted = 0.0
    for group in _oracle_groups(dataset, attribute).values():
        weighted += len(group) / n * _oracle_entropy(group)
    return _oracle_entropy(labels) - weighted


def _oracle_split_info(dataset: Dataset, attribute: str) -> float:
    n = len(dataset)
    total = 0.0
    for group in _oracle_groups(dataset, attribute).values():
        frac = len(group) / n
        total += -frac * math.log2(frac)
    return total


def _oracle_gain_ratio(dataset: Dataset, attribute: str) -> float:
    info = _oracle_split_info(dataset, attribute)
    return _oracle_gain(dataset, attribute) / info if info else 0.0


# --- report structure -------------------------------------------------------


@dataclass(frozen=True)
class AuditRow:
    """One published quantity against its oracle recomputation."""

    name: str
    published: float
    recomputed: float
    delta: float
    verdict: str  # MATCH or MISMATCH
    tolerance: float


@dataclass(frozen=True)
class ConsistencyRow:
    """Metrics-module value against the in-module oracle."""

    name: str
    implementation: float
    oracle: float
    delta: float
    ok: bool


@dataclass(frozen=True)
class VerifyReport:
    rows: tuple[AuditRow, ...]
    consistency: tuple[ConsistencyRow, ...]
    ratio_identity_residuals: tuple[tuple[str, float], ...]
    root_claimed: str
    root_recomputed: str
    root_verdict: str
    rule_summary: tuple[str, ...]
    tolerance: float
    entropy_tolerance: float
    oracle_tolerance: float
    ratio_identity_tolerance: float = 1e-12

    @property
    def implementation_consistent(self) -> bool:
        return all(r.ok for r in self.consistency) and all(
            abs(res) <= self.ratio_identity_tolerance
            for _, res in self.ratio_identity_residuals
        )

    def render(self) -> str:
        lines = []
        lines.append(
            f"{'quantity':<22}{'published':>12}{'recomputed':>14}{'|delta|':>12}  verdict"
        )
        for row in self.rows:
            lines.append(
                f"{row.name:<22}{row.published:>12.6f}{row.recomputed:>14.6f}"
                f"{row.delta:>12.2e}  {row.verdict} (tol {row.tolerance:.0e})"
            )
        lines.append("")
        worst = max(self.consistency, key=lambda r: r.delta)
        status = "OK" if all(r.ok for r in self.consistency) else "FAILED"
        lines.append(
            f"implementation vs oracle: {len(self.consistency)} quantities, "
            f"max |delta| = {worst.delta:.2e} at {worst.name} "
            f"(tol {self.oracle_tolerance:.0e}): {status}"
        )
        if status == "FAILED":
            for r in self.consistency:
                if not r.ok:
                    lines.append(
                        f"  {r.name}: implementation {r.implementation!r} "
                        f"vs oracle {r.oracle!r}"
                    )
        worst_attr, worst_res = max(
            self.ratio_identity_residuals, key=lambda item: abs(item[1])
        )
        identity_ok = abs(worst_res) <= self.ratio_identity_tolerance
        lines.append(
            f"gain_ratio * split_information == gain: max residual "
            f"{abs(worst_res):.2e} at {worst_attr} "
            f"(tol {self.ratio_identity_tolerance:.0e}): "
            f"{'OK' if identity_ok else 'FAILED'}"
        )
        lines.append(
            f"root attribute: published {self.root_claimed}, "
            f"recomputed argmax gain {self.root_recomputed}: {self.root_verdict}"
        )
        lines.append("")
        lines.extend(self.rule_summary)
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "rows": [asdict(r) for r in self.rows],  # each row's fields, in declaration order
            "consistency": [asdict(r) for r in self.consistency],
            "ratio_identity_residuals": [
                {"attribute": a, "residual": res}
                for a, res in self.ratio_identity_residuals
            ],
            "implementation_consistent": self.implementation_consistent,
            "root": {
                "published": self.root_claimed,
                "recomputed": self.root_recomputed,
                "verdict": self.root_verdict,
            },
            "rule_summary": list(self.rule_summary),
            "tolerances": {
                "published": self.tolerance,
                "entropy": self.entropy_tolerance,
                "oracle": self.oracle_tolerance,
                "ratio_identity": self.ratio_identity_tolerance,
            },
        }


def consistency_check(dataset: Dataset, tolerance: float = 1e-9) -> list[ConsistencyRow]:
    """Compare the metrics module against the naive oracle on any dataset."""
    rows = []

    def add(name, implementation, oracle):
        delta = abs(implementation - oracle)
        rows.append(ConsistencyRow(name, implementation, oracle, delta, delta <= tolerance))

    add(
        "Entropy(S)",
        entropy(class_distribution(dataset)),
        _oracle_entropy([r.label for r in dataset.records]),
    )
    for name in dataset.schema.attribute_names:
        add(f"Gain(S, {name})", information_gain(dataset, name), _oracle_gain(dataset, name))
        add(
            f"SplitInfo(S, {name})",
            split_information(dataset, name),
            _oracle_split_info(dataset, name),
        )
        add(f"GainRatio(S, {name})", gain_ratio(dataset, name), _oracle_gain_ratio(dataset, name))
    return rows


def _bundled_fixture() -> Dataset:
    # Always the packaged copy: the audit target must not follow the
    # GRADETREE_DATA_DIR override.
    base = Path(__file__).parent / "data"
    return load_csv(base / "students.csv", load_schema(base / "students.schema.json"))


def _rule_summary(dataset: Dataset, published: PublishedResults) -> tuple[str, ...]:
    tree = id3_build(dataset)
    generated = extract_rules(tree, dataset)
    class_name = dataset.schema.class_name
    typo_lines = []
    or_lines = 0
    for i, line in enumerate(published.rule_lines, start=1):
        consequent_attr = line.rsplit("THEN", 1)[-1].split("=")[0].strip()
        if consequent_attr != class_name:
            typo_lines.append(i)
        if " OR " in line or " or " in line:
            or_lines += 1
    lines = [
        f"rule set: {len(generated)} rules generated (one per leaf, unpruned tree), "
        f"{len(published.rule_lines)} published",
        f"published lines with OR-ed value lists (never produced by single-value "
        f"branching): {or_lines}",
        f"published lines whose consequent names a predictor instead of "
        f"{class_name} (apparent typos): {len(typo_lines)} "
        f"(lines {', '.join(map(str, typo_lines))})",
        "generated rules are not diffed line-by-line against the published set: "
        "the published lines describe a differently rooted, pruned tree.",
    ]
    return tuple(lines)


def verify_published(
    dataset: Dataset,
    published: PublishedResults = PUBLISHED,
    tolerance: float = 1e-5,
    entropy_tolerance: float = 1e-3,
    oracle_tolerance: float = 1e-9,
) -> VerifyReport:
    """Audit the published tables against an oracle recomputation.

    ``dataset`` must be the bundled 50-record fixture; the published
    figures are meaningless for any other data. The entropy row uses the
    looser ``entropy_tolerance`` because the published value carries four
    significant figures, while the tables print six decimals.
    """
    bundled = _bundled_fixture()
    if dataset_to_csv(dataset) != dataset_to_csv(bundled) or (
        dataset.schema.digest() != bundled.schema.digest()
    ):
        raise ValueError(
            "dataset does not match the bundled 50-record fixture; "
            "the published tables can only be audited against it"
        )

    rows = []

    def audit(name, pub, oracle_value, tol):
        delta = abs(pub - oracle_value)
        verdict = "MATCH" if delta <= tol else "MISMATCH"
        rows.append(AuditRow(name, pub, oracle_value, delta, verdict, tol))

    labels = [r.label for r in dataset.records]
    audit("Entropy(S)", published.entropy, _oracle_entropy(labels), entropy_tolerance)
    names = dataset.schema.attribute_names
    oracle_gains = {a: _oracle_gain(dataset, a) for a in names}
    for a in names:
        audit(f"Gain(S, {a})", published.gains[a], oracle_gains[a], tolerance)
    for a in names:
        audit(
            f"SplitInfo(S, {a})",
            published.split_infos[a],
            _oracle_split_info(dataset, a),
            tolerance,
        )
    for a in names:
        audit(
            f"GainRatio(S, {a})",
            published.gain_ratios[a],
            _oracle_gain_ratio(dataset, a),
            tolerance,
        )

    consistency = consistency_check(dataset, oracle_tolerance)

    residuals = []
    for score in score_all(dataset):
        if score.split_information > 0:
            residuals.append(
                (score.attribute, score.gain_ratio * score.split_information - score.gain)
            )
        else:
            residuals.append((score.attribute, 0.0))

    root_recomputed = max(names, key=lambda a: (oracle_gains[a], -names.index(a)))
    root_verdict = "MATCH" if root_recomputed == published.root_attribute else "MISMATCH"

    return VerifyReport(
        rows=tuple(rows),
        consistency=tuple(consistency),
        ratio_identity_residuals=tuple(residuals),
        root_claimed=published.root_attribute,
        root_recomputed=root_recomputed,
        root_verdict=root_verdict,
        rule_summary=_rule_summary(dataset, published),
        tolerance=tolerance,
        entropy_tolerance=entropy_tolerance,
        oracle_tolerance=oracle_tolerance,
    )
