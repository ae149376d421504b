"""The CDR task: chemical-induced disease relation extraction (paper Section 4.1.1).

The real task is the BioCreative V chemical–disease relation benchmark with
distant supervision from the Comparative Toxicogenomics Database (CTD).  The
synthetic substitute plants a chemical→disease "causes" relation, writes
PubMed-abstract-style sentences whose cue phrases are noisily correlated with
the planted truth, builds a CTD-like noisy KB over the canonical ids, and
defines a 33-LF suite mixing text patterns, distant supervision, and
structure-based heuristics — the same mix the paper's Table 6 ablation
studies.
"""

from __future__ import annotations

from repro.datasets.base import TaskDataset, register_task
from repro.datasets.kb import build_noisy_kb
from repro.datasets.lf_library import (
    distant_supervision_lfs,
    keyword_pattern_lfs,
    regex_variant_lfs,
    structure_based_lfs,
)
from repro.datasets.synth_text import RelationTaskSpec, build_relation_task
from repro.datasets.vocab import CHEMICALS, DISEASES
from repro.types import NEGATIVE, POSITIVE

POSITIVE_TEMPLATES = [
    "{e1} causes {e2} in some patients.",
    "{e1} caused severe {e2} during the trial.",
    "{e1} induced {e2} was reported in two cases.",
    "The patient developed {e2} after {e1} administration.",
    "{e2} following {e1} therapy was documented.",
    "{e1} is associated with an increased risk of {e2}.",
    "{e1} aggravates existing {e2} in elderly patients.",
    "Exposure to {e1} resulted in {e2}.",
    "{e2} secondary to {e1} was noted on admission.",
    "{e1} has been linked to {e2} in a retrospective study.",
    "We describe a case of {e2} induced by {e1}.",
]

NEGATIVE_TEMPLATES = [
    "{e1} treats {e2} effectively.",
    "{e1} is used for the treatment of {e2}.",
    "{e2} improved after {e1} therapy.",
    "{e1} reduced the severity of {e2}.",
    "{e1} prevented {e2} in the treated cohort.",
    "{e1} alleviates the symptoms of {e2}.",
    "{e1} was effective against {e2}.",
    "Patients with {e2} were treated with {e1}.",
    "{e2} was relieved by low dose {e1}.",
]

NEUTRAL_TEMPLATES = [
    "The study measured {e1} levels in patients with {e2}.",
    "Both {e1} and {e2} were mentioned in the discharge report.",
    "{e2} was present before {e1} was given.",
    "Serum {e1} was monitored during the course of {e2}.",
    "A history of {e2} was recorded prior to starting {e1}.",
]

#: Cue words whose presence between the argument spans votes positive.
POSITIVE_CUES = [
    "causes", "caused", "induced", "induces", "associated", "linked",
    "aggravates", "following", "resulted", "secondary",
]

#: Cue words whose presence between the argument spans votes negative.
NEGATIVE_CUES = [
    "treats", "treated", "treatment", "improved", "reduced", "prevented",
    "alleviates", "effective", "relieved",
]

#: Regex stems that deliberately overlap with the keyword LFs (correlated LFs).
CORRELATED_STEMS = [
    ("caus", POSITIVE),
    ("induc", POSITIVE),
    ("treat", NEGATIVE),
    ("prevent", NEGATIVE),
]


def build_spec(scale: float = 1.0) -> RelationTaskSpec:
    """The CDR corpus specification (900 documents at scale 1.0, ~25% positive)."""
    return RelationTaskSpec(
        name="cdr",
        relation_type="causes",
        entity_type1="chemical",
        entity_type2="disease",
        entities1=dict(CHEMICALS),
        entities2=dict(DISEASES),
        positive_templates=POSITIVE_TEMPLATES,
        negative_templates=NEGATIVE_TEMPLATES,
        neutral_templates=NEUTRAL_TEMPLATES,
        positive_fraction=0.246,
        cue_noise=0.15,
        false_positive_cue_rate=0.04,
        false_negative_cue_rate=0.25,
        neutral_probability=0.2,
        num_documents=int(round(900 * scale)),
        sentences_per_document=(3, 8),
    )


@register_task("cdr")
def build_cdr_task(scale: float = 0.35, seed: int = 0) -> TaskDataset:
    """Build the synthetic CDR task dataset.

    The default scale (0.35) keeps the corpus laptop-fast (~300 documents,
    a few thousand candidates) while preserving the paper's label density
    (d_Λ ≈ 1.8) and positive rate (≈ 25%).
    """
    spec = build_spec(scale=scale)
    data = build_relation_task(spec, seed=seed, scale=1.0)

    knowledge_base = build_noisy_kb(
        name="ctd",
        true_pairs=data.true_pairs,
        all_pairs=data.all_pairs,
        positive_subset="causes",
        negative_subset="treats",
        coverage=0.5,
        precision=0.85,
        negative_coverage=0.25,
        negative_precision=0.85,
        seed=seed + 1,
    )
    secondary_kb = build_noisy_kb(
        name="drugbank",
        true_pairs=data.true_pairs,
        all_pairs=data.all_pairs,
        positive_subset="adverse_effects",
        negative_subset="indications",
        coverage=0.3,
        precision=0.7,
        negative_coverage=0.15,
        negative_precision=0.7,
        seed=seed + 2,
    )

    pattern_lfs = keyword_pattern_lfs(POSITIVE_CUES, NEGATIVE_CUES)
    correlated_lfs = regex_variant_lfs(CORRELATED_STEMS)
    ds_lfs = distant_supervision_lfs(knowledge_base, "causes", "treats")
    ds_lfs += distant_supervision_lfs(secondary_kb, "adverse_effects", "indications")
    structure_lfs = structure_based_lfs()
    lfs = pattern_lfs + correlated_lfs + ds_lfs + structure_lfs

    return TaskDataset(
        name="cdr",
        candidates=data.candidates,
        gold=data.gold,
        lfs=lfs,
        distant_supervision_lfs=distant_supervision_lfs(knowledge_base, "causes", "treats"),
        num_documents=data.num_documents,
        metadata={
            "knowledge_base": knowledge_base,
            "secondary_knowledge_base": secondary_kb,
            "true_pairs": data.true_pairs,
            "spec": spec,
        },
    )
