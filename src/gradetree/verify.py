"""Audit of the published result tables for the bundled student dataset.

The study the dataset comes from printed an overall class entropy, a
gain/split-information/gain-ratio table per attribute, a claimed root
attribute, and a seven-line rule set. This module recomputes every
quantity twice, once with the metrics module and once with a naive
tally-and-sum oracle written independently of it, and reports row by
row whether the published figure matches the recomputation.

Published-vs-oracle disagreement is an expected finding and is only ever
reported. Implementation-vs-oracle disagreement beyond ``ORACLE_TOLERANCE``
means a bug on our side and is surfaced as a hard failure.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Mapping, Sequence

from .dataset import Dataset, class_distribution, load_students
from .metrics import entropy, gain_ratio, information_gain, score_all, split_information
from .tree import id3_build, tree_stats

__all__ = [
    "PublishedResults",
    "PUBLISHED",
    "TOLERANCE", "ENTROPY_TOLERANCE", "ORACLE_TOLERANCE", "RATIO_IDENTITY_TOLERANCE",
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

TOLERANCE = 1e-5  # the published tables print six decimals
ENTROPY_TOLERANCE = 1e-3  # the published entropy, 1.964, was printed to three decimals
# the metrics module and the oracle add the same terms in other orders: past rounding is a bug
ORACLE_TOLERANCE = 1e-9
RATIO_IDENTITY_TOLERANCE = 1e-12  # gain_ratio is gain / split_information, exact to rounding


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

    @property
    def implementation_consistent(self) -> bool:
        return all(r.ok for r in self.consistency) and all(
            abs(res) <= RATIO_IDENTITY_TOLERANCE
            for _, res in self.ratio_identity_residuals
        )

    def render(self) -> str:
        lines = [f"{'quantity':<22}{'published':>12}{'recomputed':>14}{'|delta|':>12}  verdict"]
        lines.extend(
            f"{row.name:<22}{row.published:>12.6f}{row.recomputed:>14.6f}"
            f"{row.delta:>12.2e}  {row.verdict} (tol {row.tolerance:.0e})"
            for row in self.rows
        )
        lines.append("")
        worst = max(self.consistency, key=lambda r: r.delta)
        status = "OK" if all(r.ok for r in self.consistency) else "FAILED"
        lines.append(
            f"implementation vs oracle: {len(self.consistency)} quantities, "
            f"max |delta| = {worst.delta:.2e} at {worst.name} "
            f"(tol {ORACLE_TOLERANCE:.0e}): {status}"
        )
        lines.extend(
            f"  {r.name}: implementation {r.implementation!r} vs oracle {r.oracle!r}"
            for r in self.consistency
            if not r.ok
        )
        worst_attr, worst_res = max(
            self.ratio_identity_residuals, key=lambda item: abs(item[1])
        )
        identity_ok = abs(worst_res) <= RATIO_IDENTITY_TOLERANCE
        lines.append(
            f"gain_ratio * split_information == gain: max residual "
            f"{abs(worst_res):.2e} at {worst_attr} "
            f"(tol {RATIO_IDENTITY_TOLERANCE:.0e}): "
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
                "published": TOLERANCE,
                "entropy": ENTROPY_TOLERANCE,
                "oracle": ORACLE_TOLERANCE,
                "ratio_identity": RATIO_IDENTITY_TOLERANCE,
            },
        }


def consistency_check(dataset: Dataset) -> list[ConsistencyRow]:
    """Compare the metrics module against the naive oracle on any dataset."""
    labels = [r.label for r in dataset.records]
    quantities = [("Entropy(S)", entropy(class_distribution(dataset)), _oracle_entropy(labels))]
    for a in dataset.schema.attribute_names:
        quantities += [
            (f"Gain(S, {a})", information_gain(dataset, a), _oracle_gain(dataset, a)),
            (f"SplitInfo(S, {a})", split_information(dataset, a), _oracle_split_info(dataset, a)),
            (f"GainRatio(S, {a})", gain_ratio(dataset, a), _oracle_gain_ratio(dataset, a)),
        ]
    return [
        ConsistencyRow(name, implementation, oracle, delta, delta <= ORACLE_TOLERANCE)
        for name, implementation, oracle in quantities
        for delta in [abs(implementation - oracle)]
    ]


def _rule_summary(dataset: Dataset, published: PublishedResults) -> tuple[str, ...]:
    leaves = tree_stats(id3_build(dataset)).leaves
    class_name = dataset.schema.class_name
    typo_lines = [
        i
        for i, line in enumerate(published.rule_lines, start=1)
        if line.rsplit("THEN", 1)[-1].split("=")[0].strip() != class_name  # the consequent's attribute
    ]
    or_lines = sum(" OR " in line or " or " in line for line in published.rule_lines)
    return (
        f"rule set: {leaves} rules generated (one per leaf, unpruned tree), "
        f"{len(published.rule_lines)} published",
        f"published lines with OR-ed value lists (never produced by single-value "
        f"branching): {or_lines}",
        f"published lines whose consequent names a predictor instead of "
        f"{class_name} (apparent typos): {len(typo_lines)} "
        f"(lines {', '.join(map(str, typo_lines))})",
        "generated rules are not diffed line-by-line against the published set: "
        "the published lines describe a differently rooted, pruned tree.",
    )


def verify_published(dataset: Dataset, published: PublishedResults = PUBLISHED) -> VerifyReport:
    """Audit the published tables against an oracle recomputation.

    ``dataset`` must be the bundled 50-record fixture; the published
    figures are meaningless for any other data. Each quantity is judged
    at ``TOLERANCE``, except the entropy row, judged at the looser
    ``ENTROPY_TOLERANCE`` because its published value has fewer digits.
    """
    # the packaged copy: an explicit data_dir ignores the GRADETREE_DATA_DIR override
    if dataset != load_students(Path(__file__).parent / "data"):
        raise ValueError(
            "dataset does not match the bundled 50-record fixture; "
            "the published tables can only be audited against it"
        )

    consistency = tuple(consistency_check(dataset))
    oracle = {r.name: r.oracle for r in consistency}  # every quantity below, recomputed once
    names = dataset.schema.attribute_names
    # (name, published value, oracle value, tolerance), in report order
    quantities = [("Entropy(S)", published.entropy, oracle["Entropy(S)"], ENTROPY_TOLERANCE)]
    for kind, values in (
        ("Gain", published.gains),
        ("SplitInfo", published.split_infos),
        ("GainRatio", published.gain_ratios),
    ):
        quantities += [(f"{kind}(S, {a})", values[a], oracle[f"{kind}(S, {a})"], TOLERANCE) for a in names]
    rows = tuple(
        AuditRow(name, pub, recomputed, delta, "MATCH" if delta <= tol else "MISMATCH", tol)
        for name, pub, recomputed, tol in quantities
        for delta in [abs(pub - recomputed)]
    )
    residuals = tuple(
        (s.attribute, s.gain_ratio * s.split_information - s.gain if s.split_information > 0 else 0.0)
        for s in score_all(dataset)
    )
    root_recomputed = max(names, key=lambda a: (oracle[f"Gain(S, {a})"], -names.index(a)))

    return VerifyReport(
        rows=rows,
        consistency=consistency,
        ratio_identity_residuals=residuals,
        root_claimed=published.root_attribute,
        root_recomputed=root_recomputed,
        root_verdict="MATCH" if root_recomputed == published.root_attribute else "MISMATCH",
        rule_summary=_rule_summary(dataset, published),
    )
