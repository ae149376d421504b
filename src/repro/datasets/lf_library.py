"""Shared helpers for building task LF suites.

Every relation-extraction task builds its labeling functions from the same
three ingredient types the paper's ablation distinguishes (Table 6): text
patterns, distant supervision from a (noisy) knowledge base, and
structure-based heuristics over the context hierarchy.  The helpers here
produce those groups from task-specific keyword lists and KBs; the per-task
modules only supply vocabulary.
"""

from __future__ import annotations

from typing import Sequence

from repro.context.candidates import Candidate
from repro.datasets.kb import KnowledgeBase
from repro.labeling.declarative import lf_search, pattern_lf
from repro.labeling.generators import OntologyLFGenerator
from repro.labeling.lf import LabelingFunction
from repro.types import ABSTAIN, NEGATIVE, POSITIVE
from repro.utils.textutils import normalize


def keyword_pattern_lfs(
    positive_keywords: Sequence[str],
    negative_keywords: Sequence[str],
    where: str = "between",
) -> list[LabelingFunction]:
    """One pattern LF per cue keyword (positive cues vote +1, negative cues -1)."""
    lfs = [
        pattern_lf(keyword, label=POSITIVE, where=where, name=f"lf_pos_{_slug(keyword)}")
        for keyword in positive_keywords
    ]
    lfs.extend(
        pattern_lf(keyword, label=NEGATIVE, where=where, name=f"lf_neg_{_slug(keyword)}")
        for keyword in negative_keywords
    )
    return lfs


def regex_variant_lfs(stems: Sequence[tuple[str, int]]) -> list[LabelingFunction]:
    """Regex LFs keyed on word stems (e.g. ``caus`` matches causes/caused).

    These are deliberately *correlated* with the keyword LFs built from the
    same cue families — the redundancy users produce in practice and that
    structure learning is meant to discover.
    """
    return [
        lf_search(rf"\w*{stem}\w*", label=label, name=f"lf_stem_{_slug(stem)}")
        for stem, label in stems
    ]


def distant_supervision_lfs(
    knowledge_base: KnowledgeBase,
    positive_subset: str,
    negative_subset: str,
) -> list[LabelingFunction]:
    """Ontology-generator LFs: one per KB subset (paper Example 2.4)."""
    generator = OntologyLFGenerator(
        name=knowledge_base.name,
        subsets=knowledge_base.subsets,
        subset_labels={positive_subset: True, negative_subset: False},
    )
    return generator.generate()


def structure_based_lfs(
    far_distance: int = 15,
    reversed_negative_cues: Sequence[str] = ("treated", "given", "received"),
    neutral_sentence_cues: Sequence[str] = ("measured", "monitored", "history"),
) -> list[LabelingFunction]:
    """Heuristics over the context hierarchy rather than raw text patterns.

    * ``lf_far_apart`` — arguments separated by many tokens are usually not
      related (votes negative).
    * ``lf_adjacent_arguments`` — immediately adjacent arguments in these
      corpora are usually list-like co-mentions (votes negative).
    * ``lf_arg2_first_passive`` — when the second argument precedes the first
      and a passive "treated/given/received" cue appears between them, the
      sentence is about treatment, not causation (votes negative).
    * ``lf_neutral_context`` — sentences about measurement or patient history
      rarely assert the relation (votes negative).
    * ``lf_late_sentence`` — relations asserted deep inside a document's tail
      sentences are less reliable in these synthetic corpora; abstains unless
      the sentence is late and no cue is present, then votes negative.
    """
    reversed_cues = {normalize(cue) for cue in reversed_negative_cues}
    neutral_cues = {normalize(cue) for cue in neutral_sentence_cues}

    def far_apart(candidate: Candidate) -> int:
        return NEGATIVE if candidate.token_distance() > far_distance else ABSTAIN

    def adjacent_arguments(candidate: Candidate) -> int:
        return NEGATIVE if candidate.token_distance() == 0 else ABSTAIN

    def arg2_first_passive(candidate: Candidate) -> int:
        if candidate.span1_precedes_span2():
            return ABSTAIN
        between = {normalize(token) for token in candidate.words_between()}
        return NEGATIVE if between & reversed_cues else ABSTAIN

    def neutral_context(candidate: Candidate) -> int:
        between = {normalize(token) for token in candidate.words_between()}
        return NEGATIVE if between & neutral_cues else ABSTAIN

    def late_sentence(candidate: Candidate) -> int:
        if candidate.sentence.position < 6:
            return ABSTAIN
        between = {normalize(token) for token in candidate.words_between()}
        return NEGATIVE if not between else ABSTAIN

    definitions = [
        ("lf_far_apart", far_apart),
        ("lf_adjacent_arguments", adjacent_arguments),
        ("lf_arg2_first_passive", arg2_first_passive),
        ("lf_neutral_context", neutral_context),
        ("lf_late_sentence", late_sentence),
    ]
    return [
        LabelingFunction(name, function, source_type="structure")
        for name, function in definitions
    ]


def _slug(text: str) -> str:
    return "".join(ch if ch.isalnum() else "_" for ch in text.lower()).strip("_")


def LINT_LFS() -> list[LabelingFunction]:
    """Representative suite for ``python -m repro.analysis`` (see its CLI docs).

    The library's LFs are built by parameterized factories, so there is
    nothing at module level for the linter to collect; this hook instantiates
    one of each factory family with sample vocabulary.  CI self-lints this
    suite, so a factory change that introduces hidden randomness or
    shared-state mutation fails the build.
    """
    kb = KnowledgeBase(
        name="lint_kb",
        subsets={
            "known_pairs": {("aspirin", "headache")},
            "known_negatives": {("water", "headache")},
        },
    )
    return (
        keyword_pattern_lfs(["causes"], ["treats"])
        + regex_variant_lfs([("caus", POSITIVE), ("treat", NEGATIVE)])
        + distant_supervision_lfs(kb, "known_pairs", "known_negatives")
        + structure_based_lfs()
    )
