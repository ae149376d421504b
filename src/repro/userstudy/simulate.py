"""Simulation of the Section 4.2 user study.

Fifteen subject-matter experts (one declined, so 14 are analyzed) attended a
two-day workshop and wrote labeling functions for the Spouses task; their
end-model F1 scores were compared against models trained on hand-labeled
datasets equivalent to seven hours of annotation time.  Humans cannot be
shipped in a repository, so this module simulates the study:

* each participant has a skill profile (education, Python / ML / text-mining
  experience, mirroring the paper's Table 8 demographics),
* a participant "writes" a number of labeling functions drawn from a pool of
  correct, noisy, and redundant variants of the Spouses LF suite — more
  skilled participants write more functions, with higher-quality keyword
  choices and fewer redundant near-duplicates,
* each participant's functions are run through the standard pipeline
  (generative model → discriminative model) to obtain their end F1,
* the comparison baseline trains the same end model on a hand-label budget of
  ~2,500 labels (7 hours at 10 seconds per label), subsampled per
  participant, exactly as the paper constructs its 15 baseline datasets.

The simulated score distribution reproduces the study's qualitative findings:
most participants match or beat their equal-time hand-labeling baseline, and
the spread of outcomes tracks participant skill.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.baselines.hand_supervision import hand_supervision_baseline
from repro.datasets.base import TaskDataset, load_task
from repro.datasets.spouses import NEGATIVE_CUES, POSITIVE_CUES
from repro.labeling.declarative import pattern_lf
from repro.labeling.lf import LabelingFunction
from repro.pipeline.snorkel import PipelineConfig, SnorkelPipeline
from repro.types import NEGATIVE, POSITIVE
from repro.utils.rng import SeedLike, ensure_rng

EDUCATION_LEVELS = ("BA/BS", "MS", "PhD")
EXPERIENCE_LEVELS = ("none", "beginner", "intermediate", "advanced")

#: Extra cue words a skilled participant might discover beyond the reference
#: suite (present in the synthetic Spouses templates), and distractor cue
#: words a struggling participant might try (absent or uninformative).
EXTRA_POSITIVE_CUES = ["anniversary", "vows", "ceremony"]
EXTRA_NEGATIVE_CUES = ["debate", "merger", "semifinal", "project", "report"]
DISTRACTOR_CUES = ["gala", "press", "news", "spring", "attended", "announced"]


@dataclass(frozen=True)
class ParticipantProfile:
    """A simulated workshop participant."""

    participant_id: int
    education: str
    python_experience: str
    ml_experience: str
    text_mining_experience: str

    @property
    def skill(self) -> float:
        """Scalar skill in [0, 1] combining the experience factors.

        Mirrors the paper's Figure 8 finding: Python skill and ML experience
        drive outcomes; text-mining experience adds little.
        """
        def level(value: str) -> float:
            return EXPERIENCE_LEVELS.index(value) / (len(EXPERIENCE_LEVELS) - 1)

        education_score = EDUCATION_LEVELS.index(self.education) / (len(EDUCATION_LEVELS) - 1)
        return float(
            0.40 * level(self.python_experience)
            + 0.35 * level(self.ml_experience)
            + 0.15 * education_score
            + 0.10 * level(self.text_mining_experience)
        )


@dataclass
class ParticipantResult:
    """One participant's simulated outcome."""

    profile: ParticipantProfile
    num_lfs: int
    snorkel_f1: float
    hand_label_f1: float

    @property
    def beat_hand_labeling(self) -> bool:
        """Whether the participant matched or exceeded the hand-label baseline."""
        return self.snorkel_f1 >= self.hand_label_f1


@dataclass
class UserStudyResult:
    """Aggregate user-study outcome (the Figure 7 distribution)."""

    participants: list[ParticipantResult] = field(default_factory=list)

    @property
    def mean_snorkel_f1(self) -> float:
        """Average Snorkel-user F1 across participants."""
        return float(np.mean([p.snorkel_f1 for p in self.participants]))

    @property
    def mean_hand_label_f1(self) -> float:
        """Average equal-time hand-labeling F1 across participants."""
        return float(np.mean([p.hand_label_f1 for p in self.participants]))

    @property
    def fraction_matching_or_beating(self) -> float:
        """Fraction of participants matching or beating their baseline."""
        return float(np.mean([p.beat_hand_labeling for p in self.participants]))

    def pooled_lfs(self) -> list[LabelingFunction]:
        """All LFs written by all participants (the Figure 5-right pool)."""
        pooled: list[LabelingFunction] = []
        for result in self.participants:
            pooled.extend(result.lfs)  # type: ignore[attr-defined]
        return pooled


def generate_participants(
    num_participants: int = 14, seed: SeedLike = 0
) -> list[ParticipantProfile]:
    """Sample participant profiles matching the paper's demographics.

    Education: 6 bachelors, 4 masters, 5 PhDs (14 analyzed after one
    declined); all can program in Python with 80% intermediate+; 40% have
    little-to-no ML experience.
    """
    rng = ensure_rng(seed)
    educations = ["BA/BS"] * 6 + ["MS"] * 4 + ["PhD"] * 5
    rng.shuffle(educations)
    profiles = []
    for index in range(num_participants):
        python = rng.choice(
            EXPERIENCE_LEVELS[1:], p=[0.2, 0.5, 0.3]
        )  # beginner/intermediate/advanced
        ml = rng.choice(EXPERIENCE_LEVELS, p=[0.25, 0.15, 0.3, 0.3])
        text_mining = rng.choice(EXPERIENCE_LEVELS, p=[0.2, 0.4, 0.3, 0.1])
        profiles.append(
            ParticipantProfile(
                participant_id=index,
                education=educations[index % len(educations)],
                python_experience=str(python),
                ml_experience=str(ml),
                text_mining_experience=str(text_mining),
            )
        )
    return profiles


def participant_lfs(
    profile: ParticipantProfile, rng: np.random.Generator
) -> list[LabelingFunction]:
    """Simulate the labeling functions one participant writes in 2.5 hours.

    Higher-skill participants write more functions, pick more informative cue
    words, and add fewer distractors; everyone writes at least a couple of
    redundant variants (the redundancy Figure 5-right relies on).
    """
    skill = profile.skill
    num_lfs = int(np.clip(round(4 + 8 * skill + rng.normal(scale=1.5)), 3, 14))
    good_pool = [(cue, POSITIVE) for cue in POSITIVE_CUES + EXTRA_POSITIVE_CUES]
    good_pool += [(cue, NEGATIVE) for cue in NEGATIVE_CUES + EXTRA_NEGATIVE_CUES]
    distractor_pool = [
        (cue, POSITIVE if rng.random() < 0.5 else NEGATIVE) for cue in DISTRACTOR_CUES
    ]

    lfs: list[LabelingFunction] = []
    seen_names: set[str] = set()
    while len(lfs) < num_lfs:
        use_good = rng.random() < (0.5 + 0.45 * skill)
        pool = good_pool if use_good else distractor_pool
        cue, label = pool[int(rng.integers(len(pool)))]
        scope = "sentence" if rng.random() < 0.7 else "between"
        name = f"lf_p{profile.participant_id}_{cue}_{scope}"
        if name in seen_names:
            # Participants often re-implement nearly the same heuristic with a
            # slightly different scope; allow one duplicate variant then stop.
            name = f"{name}_v2"
            if name in seen_names:
                continue
        seen_names.add(name)
        lfs.append(
            pattern_lf(cue, label=label, where=scope, name=name, source_type="user")
        )
    return lfs


def simulate_user_study(
    task: TaskDataset,
    num_participants: int = 14,
    hand_label_budget: int = 2500,
    seed: SeedLike = 0,
    pipeline_config: Optional[PipelineConfig] = None,
) -> UserStudyResult:
    """Run the simulated user study on the Spouses task.

    Parameters
    ----------
    task:
        The Spouses task dataset (any binary relation task works).
    num_participants:
        Number of simulated SMEs (the paper analyzes 14).
    hand_label_budget:
        Number of gold labels in each equal-time hand-labeling baseline
        (2,500 ≈ 7 hours at 10 s/label); capped at the training-set size.
    """
    rng = ensure_rng(seed)
    profiles = generate_participants(num_participants, seed=rng)
    config = pipeline_config or PipelineConfig(
        generative_epochs=10, discriminative_epochs=25, learn_correlations=False
    )
    result = UserStudyResult()
    for profile in profiles:
        lfs = participant_lfs(profile, rng)
        pipeline = SnorkelPipeline(lfs=lfs, config=config)
        pipeline_result = pipeline.run(task)
        baseline = hand_supervision_baseline(
            task,
            label_budget=min(hand_label_budget, len(task.split_candidates("train"))),
            epochs=config.discriminative_epochs,
            seed=rng,
        )
        participant_result = ParticipantResult(
            profile=profile,
            num_lfs=len(lfs),
            snorkel_f1=pipeline_result.discriminative_f1,
            hand_label_f1=baseline.f1,
        )
        # Stash the LFs for Figure 5-right style pooled structure learning.
        participant_result.lfs = lfs  # type: ignore[attr-defined]
        result.participants.append(participant_result)
    return result


def run(seed: int = 0) -> UserStudyResult:
    """The registry's user study: six participants on Spouses at scale 0.08."""
    task = load_task("spouses", scale=0.08, seed=seed)
    return simulate_user_study(task, num_participants=6, hand_label_budget=2500, seed=seed)


def scores_by_factor(result: UserStudyResult, factor: str) -> dict[str, list[float]]:
    """Group participant F1 scores by a profile factor (the Figure 8 breakdown).

    ``factor`` is one of ``"education"``, ``"python_experience"``,
    ``"ml_experience"``, ``"text_mining_experience"``.
    """
    grouped: dict[str, list[float]] = {}
    for participant in result.participants:
        key = getattr(participant.profile, factor)
        grouped.setdefault(key, []).append(participant.snorkel_f1)
    return grouped
