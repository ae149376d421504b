"""Documents → candidates stated plainly, one sentence at a time.

The independent statement of the context layer (``repro.context``): split a
document into sentences, tokenize each, tag it by trying every dictionary
entry (longest first) at every position, store the records with ids in
insertion order, pair the entities of each sentence and read the candidates
off.  It restates the two patterns instead of importing them, and tokenizes
dictionary surfaces with the sentence pattern, so ``"5-fluorouracil"``
matches the tokens ``5 - fluorouracil``.

:func:`reference` returns every record as plain tuples; :func:`records_of`
reads a :class:`repro.context.Corpus` into the same shape through its public
queries, and :func:`library` drives a corpus over the same input.
``tests/test_context.py`` (hypothesis, adversarial documents) and the
``documents → candidates == reference`` row of ``tests/contracts.py`` compare
the two.
"""

from __future__ import annotations

import re

TOKEN = re.compile(r"[A-Za-z0-9_']+|[^\sA-Za-z0-9_']")
BOUNDARY = re.compile(r"(?<=[.!?])\s+")


def split_sentences(text):
    sentences = []
    for part in BOUNDARY.split(text):
        part = part.strip()
        if part:
            sentences.append(part)
    return sentences


def tokenize(text):
    words, offsets = [], []
    for match in TOKEN.finditer(text):
        words.append(match.group(0))
        offsets.append([match.start(), match.end()])
    return words, offsets


def dictionary_entries(dictionaries):
    """``(lowercased tokens, type, id)``, longest first, else dictionary order."""
    entries = []
    for entity_type, surface_to_id in dictionaries.items():
        for surface, canonical_id in surface_to_id.items():
            tokens = [token.lower() for token in tokenize(surface)[0]]
            if tokens:
                entries.append((tokens, entity_type, canonical_id))
    entries.sort(key=lambda entry: len(entry[0]), reverse=True)
    return entries


def tag(entries, words):
    """Greedy, non-overlapping ``(start, end, text, type, id)`` matches."""
    lowered = [word.lower() for word in words]
    tagged, position = [], 0
    while position < len(words):
        for tokens, entity_type, canonical_id in entries:
            end = position + len(tokens)
            if end <= len(words) and lowered[position:end] == tokens:
                text = " ".join(words[position:end])
                tagged.append((position, end, text, entity_type, canonical_id))
                position = end
                break
        else:
            position += 1
    return tagged


def pairs(entities, relation):
    """Candidate span pairs of one sentence's ``(span, mention)`` tuples."""
    _, type1, type2, max_distance = relation
    first = [span for span, mention in entities if mention[2] == type1]
    second = [span for span, mention in entities if mention[2] == type2]
    found = []
    if type1 == type2:
        for i in range(len(first)):
            for j in range(i + 1, len(first)):
                found.append((first[i], first[j]))
    else:
        for span1 in first:
            for span2 in second:
                if span1[0] != span2[0]:
                    found.append((span1, span2))
    if max_distance is None:
        return found
    kept = []
    for span1, span2 in found:
        left, right = sorted((span1, span2), key=lambda span: span[2])
        if right[2] - left[3] <= max_distance:
            kept.append((span1, span2))
    return kept


def reference(dictionaries, documents, relation, gold=None):
    """Every record of ingesting ``documents`` and extracting ``relation``.

    ``documents`` are ``(name, text, split, metadata)``; ``relation`` is
    ``(relation_type, type1, type2, max_token_distance)``; ``gold(uid,
    canonical_id1, canonical_id2)`` labels each candidate.  Records: documents
    ``(id, name, text, split, metadata)``; sentences ``(id, document_id,
    position, text, words, char_offsets)``; spans ``(id, sentence_id, start,
    end, text)`` and mentions ``(id, span_id, type, canonical_id)`` of each
    sentence by ``start``; candidate records ``(id, sentence_id, span1_id,
    span2_id, relation_type, split, gold_label)``; candidates.
    """
    entries = dictionary_entries(dictionaries)
    out = {name: [] for name in ("documents", "sentences", "entities", "records", "candidates")}
    sentences, spans = [], []
    for document_id, (name, text, split, metadata) in enumerate(documents, 1):
        out["documents"].append((document_id, name, text, split, dict(metadata)))
        for position, sentence_text in enumerate(split_sentences(text)):
            words, offsets = tokenize(sentence_text)
            sentence = (len(sentences) + 1, document_id, position, sentence_text, words, offsets)
            sentences.append(sentence)
            for start, end, surface, entity_type, canonical_id in tag(entries, words):
                span_id = len(spans) + 1
                spans.append(((span_id, sentence[0], start, end, surface),
                              (span_id, span_id, entity_type, canonical_id)))
    for document in out["documents"]:
        for sentence in sorted((s for s in sentences if s[1] == document[0]), key=lambda s: s[2]):
            out["sentences"].append(sentence)
            entities = sorted((e for e in spans if e[0][1] == sentence[0]), key=lambda e: e[0][2])
            out["entities"].extend(entities)
            for span1, span2 in pairs(entities, relation):
                uid = len(out["records"]) + 1
                mention1, mention2 = spans[span1[0] - 1][1], spans[span2[0] - 1][1]
                label = None if gold is None else gold(uid, mention1[3], mention2[3])
                record = (uid, sentence[0], span1[0], span2[0], relation[0], document[3], label)
                out["records"].append(record)
                out["candidates"].append((
                    uid,
                    (span1[4], span1[2], span1[3], mention1[2], mention1[3]),
                    (span2[4], span2[2], span2[3], mention2[2], mention2[3]),
                    (sentence[4], sentence[3], sentence[2], document[1], document[4]),
                    relation[0], document[3], label,
                ))
    return out


def gold_rule(uid, canonical_id1, canonical_id2):
    """A gold labeler of both sides: reads the uid and both canonical ids,
    abstains on every third candidate."""
    return None if uid % 3 == 0 else (1 if str(canonical_id1) < str(canonical_id2) else -1)


def records_of(corpus):
    """The corpus's records in :func:`reference`'s shape, via public queries."""
    out = {name: [] for name in ("documents", "sentences", "entities", "records", "candidates")}
    for document in corpus.documents():
        out["documents"].append(
            (document.id, document.name, document.text, document.split, document.metadata)
        )
        for sentence in corpus.sentences_of(document):
            out["sentences"].append((
                sentence.id, sentence.document_id, sentence.position, sentence.text,
                sentence.words, sentence.char_offsets,
            ))
            for span, mention in corpus.entities_of(sentence):
                out["entities"].append((
                    (span.id, span.sentence_id, span.word_start, span.word_end, span.text),
                    (mention.id, mention.span_id, mention.entity_type, mention.canonical_id),
                ))
    for record in corpus.candidate_records():
        out["records"].append((
            record.id, record.sentence_id, record.span1_id, record.span2_id,
            record.relation_type, record.split, record.gold_label,
        ))
    for candidate in corpus.candidates():
        views = [
            (view.text, view.word_start, view.word_end, view.entity_type, view.canonical_id)
            for view in (candidate.span1, candidate.span2)
        ]
        sentence = candidate.sentence
        out["candidates"].append((
            candidate.uid, *views,
            (sentence.words, sentence.text, sentence.position, sentence.document_name,
             sentence.document_metadata),
            candidate.relation_type, candidate.split, candidate.gold_label,
        ))
    return out


def library(dictionaries, documents, relation, gold=None):
    """:func:`reference`'s records, computed by ``repro.context``."""
    from repro.context import (
        CandidateExtractor,
        Corpus,
        DictionaryEntityTagger,
        PairedEntityCandidateSpace,
        TextPreprocessor,
    )

    tagger = DictionaryEntityTagger(dictionaries)
    corpus = Corpus("reference", preprocessor=TextPreprocessor(entity_tagger=tagger))
    for name, text, split, metadata in documents:
        corpus.add_document(name, text, split=split, metadata=metadata)
    labeler = None if gold is None else (
        lambda c: gold(c.uid, c.span1.canonical_id, c.span2.canonical_id)
    )
    CandidateExtractor(PairedEntityCandidateSpace(*relation), gold_labeler=labeler).extract(corpus)
    return records_of(corpus)
