"""The mono- vs mixed-ethnicity controlled comparison.

Subjects are sampled at the subject level (without replacement, seeded)
under one of three scenarios: 16 Asian subjects, 16 non-Asian subjects,
or a balanced 8 + 8 mix. Emotions are binarized to Negative versus
NonNegative to blunt class imbalance. Each scenario is scored with
frozen features, a random forest retrained per LOSO fold, and pooled
per-class F1; multiple sampling seeds expose the variance a single
table cannot show.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from ..corpus import Manifest, MappedEmotion, SampleRecord
from ..errors import ConfigError, DataError
from ..model.config import ETHNICITY_CLASSES
from ..pipeline import BINARY_CLASSES, sample_key
from ..runutil import derive_seed, derived_rng
from .folds import plan_loso
from .forest import ForestConfig, forest_predict_batch, forest_train
from .metrics import FoldResult, aggregate_folds


class QuotaError(DataError):
    """Scenario subject quota cannot be met by the manifest."""


class ScenarioKind(enum.Enum):
    ASIAN_ONLY = "AsianOnly"
    NON_ASIAN_ONLY = "NonAsianOnly"
    MIXED = "Mixed"


@dataclass(frozen=True)
class PrimaFacieScenario:
    kind: ScenarioKind
    subject_budget: int = 16  # Mixed takes half from each group
    seed: int = 0

    def __post_init__(self):
        if self.subject_budget < 2:
            raise ConfigError(f"subject budget must be >= 2, got {self.subject_budget}")
        if self.kind is ScenarioKind.MIXED and self.subject_budget % 2:
            raise ConfigError(f"scenario Mixed needs an even subject budget, got {self.subject_budget}")


def _subjects_by_group(records: list[SampleRecord]) -> dict:
    groups: dict[str, set] = {group: set() for group in ETHNICITY_CLASSES}
    for record in records:
        groups[record.mapped_ethnicity.value].add(record.subject_id)
    return {k: sorted(v) for k, v in groups.items()}


def sample_prima_facie(manifest: Manifest, scenario: PrimaFacieScenario) -> list[SampleRecord]:
    """Seeded subject-level sample of the eligible records."""
    eligible = manifest.eligible()
    groups = _subjects_by_group(eligible)
    rng = derived_rng(scenario.seed, "prima-facie", scenario.kind.value)

    asian, non_asian = ETHNICITY_CLASSES
    if scenario.kind == ScenarioKind.MIXED:
        quotas = dict.fromkeys(ETHNICITY_CLASSES, scenario.subject_budget // 2)
    elif scenario.kind == ScenarioKind.ASIAN_ONLY:
        quotas = {asian: scenario.subject_budget}
    else:
        quotas = {non_asian: scenario.subject_budget}

    chosen: list[str] = []
    for group, quota in quotas.items():
        pool = groups[group]
        if len(pool) < quota:
            raise QuotaError(
                f"scenario {scenario.kind.value} needs {quota} {group} subjects, manifest has {len(pool)}"
            )
        picked = rng.choice(len(pool), size=quota, replace=False)
        chosen.extend(pool[i] for i in sorted(picked))
    chosen_set = set(chosen)
    return [r for r in eligible if r.subject_id in chosen_set]


def binarize_emotions(records: list[SampleRecord]) -> list[int]:
    """Label per record in BINARY_CLASSES order: Negative=0, NonNegative=1."""
    labels = []
    for record in records:
        if not record.eligible:
            raise DataError(f"record {record.key} is excluded; binarize eligible views only")
        labels.append(0 if record.mapped_emotion == MappedEmotion.NEGATIVE else 1)
    return labels


@dataclass
class ScenarioResult:
    kind: str
    seed: int
    f1_negative: float
    f1_nonnegative: float

    @property
    def average(self) -> float:
        return (self.f1_negative + self.f1_nonnegative) / 2.0

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "seed": self.seed,
            "Negative": self.f1_negative,
            "NonNegative": self.f1_nonnegative,
            "Average": self.average,
        }


# (row key, markdown title, tsv title) of each prima facie table column; see metrics.render_table
PRIMA_FACIE_COLUMNS = (
    ("kind", "Train/Test", "scenario"),
    *((name, {"NonNegative": "Non-negative"}.get(name, name), name) for name in BINARY_CLASSES),
    *((key, key.replace("_", " "), key) for key in ("Average", "Average_min", "Average_max", "Average_std")),
    ("n_seeds", "Seeds", "n_seeds"),
)


@dataclass
class PrimaFacieReport:
    """Rows AsianOnly / NonAsianOnly / Mixed; columns Negative / NonNegative / Average.

    Each row is the mean over sampling seeds, with the min, max and
    population std (ddof 0) of the per-seed Average beside it.
    """

    per_seed: list = field(default_factory=list)  # ScenarioResult
    encoder_origin: str = ""

    def mean_rows(self) -> list[dict]:
        rows = []
        for kind in ScenarioKind:
            results = [r for r in self.per_seed if r.kind == kind.value]
            if not results:
                continue
            neg = float(np.mean([r.f1_negative for r in results]))
            nonneg = float(np.mean([r.f1_nonnegative for r in results]))
            averages = np.array([r.average for r in results])
            rows.append(
                {
                    "kind": kind.value,
                    "Negative": neg,
                    "NonNegative": nonneg,
                    "Average": (neg + nonneg) / 2.0,
                    "Average_min": float(averages.min()),
                    "Average_max": float(averages.max()),
                    "Average_std": float(averages.std()),
                    "n_seeds": len(results),
                }
            )
        return rows

    def to_json_dict(self) -> dict:
        return {
            "rows": self.mean_rows(),
            "per_seed": [r.to_dict() for r in self.per_seed],
            "encoder_origin": self.encoder_origin,
        }


def run_scenario(
    manifest: Manifest,
    scenario: PrimaFacieScenario,
    features: dict,
    forest_config: ForestConfig,
) -> ScenarioResult:
    """One scenario at one sampling seed: sample -> binarize -> LOSO forest."""
    records = sample_prima_facie(manifest, scenario)
    feats = np.stack([features[sample_key(r)] for r in records])
    labels = np.array(binarize_emotions(records))

    fold_results = []
    for fold in plan_loso(records):
        train, test = list(fold.train), list(fold.test)
        model = forest_train(
            feats[train],
            labels[train],
            forest_config,
            seed=derive_seed(scenario.seed, "forest", scenario.kind.value, fold.held_out_subject),
        )
        predicted = tuple(forest_predict_batch(model, feats[test]).tolist())
        fold_results.append(FoldResult(fold.held_out_subject, BINARY_CLASSES, tuple(labels[test].tolist()), predicted))

    per_class_f1, _ = aggregate_folds(fold_results)
    return ScenarioResult(
        kind=scenario.kind.value,
        seed=scenario.seed,
        f1_negative=per_class_f1["Negative"],
        f1_nonnegative=per_class_f1["NonNegative"],
    )


def plan_scenarios(seeds: list[int], kinds: list[ScenarioKind], subject_budget: int) -> list[PrimaFacieScenario]:
    """Every scenario of a study, seed-major, each checked as it is built."""
    if not seeds:
        raise ConfigError("prima facie needs at least one seed")
    if len(set(seeds)) < len(seeds) or len(set(kinds)) < len(kinds):
        raise ConfigError(f"a seed or scenario is given twice: seeds {seeds}, scenarios {[k.value for k in kinds]}")
    return [PrimaFacieScenario(kind, subject_budget, seed) for seed in seeds for kind in kinds]


def run_prima_facie(
    manifest: Manifest,
    features: dict,
    seeds: list[int],
    forest_config: ForestConfig | None = None,
    scenario_kinds: list[ScenarioKind] | None = None,
    subject_budget: int = PrimaFacieScenario.subject_budget,
    encoder_origin: str = "",
) -> PrimaFacieReport:
    """Full study: every scenario at every seed, mean rows across seeds.

    `features` maps sample keys (dataset:subject:clip) to fixed-length
    frozen feature vectors.
    """
    forest_config = forest_config or ForestConfig()
    # every scenario is checked before the first forest is fit
    scenarios = plan_scenarios(seeds, scenario_kinds or list(ScenarioKind), subject_budget)
    per_seed = [run_scenario(manifest, scenario, features, forest_config) for scenario in scenarios]
    return PrimaFacieReport(per_seed=per_seed, encoder_origin=encoder_origin)
