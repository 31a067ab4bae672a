"""Per-source link features: the engine's pair scans read each source's
indexes from one :class:`~repro.linking.features.LinkFeatures` object.

Three things are pinned here:

* **Same links.** The engine matches the per-pair channel bodies it
  replaced, kept below as the reference (each scan rebuilt both sides'
  indexes from ``(database, structure, statistics)``), link for link and
  comparison for comparison, under every subset of channels and with
  pruning off.
* **Built once.** Over a whole ingestion, each source's TF-IDF indexes,
  name dictionary and BLAST indexes are built at most once.
* **Never stale.** After a below-threshold update or a remove and re-add,
  the next source's links are those of a fresh system that integrated
  the new text from the start.
"""

import itertools
import math
import re
from collections import Counter, defaultdict

import pytest

from repro.core import Aladin, AladinConfig
from repro.dataimport import registry
from repro.discovery import discover_structure
from repro.linking.blast import BlastIndex
from repro.linking.crossref import decode_candidates
from repro.linking.engine import LinkChannels, LinkDiscoveryEngine
import repro.linking.features as features_module
from repro.linking.features import LinkFeatures
from repro.linking.matrices import dna_score, protein_score
from repro.linking.model import AttributeLink, LinkConfig, LinkSet, ObjectLink
from repro.linking.ner import extract_entity_names
from repro.linking.pruning import is_link_source_candidate
from repro.linking.resolve import ObjectResolver
from repro.linking.seqfields import detect_sequence_fields
from repro.linking.textlinks import text_attributes, tokenize
from repro.synth import ScenarioConfig, UniverseConfig, build_scenario

PRUNING_OFF = LinkConfig(
    min_distinct_values=0, exclude_numeric_sources=False,
    min_match_fraction=0.0, min_absolute_matches=1,
)


# ----------------------------------------------------------------------
# Reference: the per-pair channel bodies, every index rebuilt per scan.
# ----------------------------------------------------------------------
def ref_crossref(source_db, source_structure, source_stats, target_db, target_structure, config):
    result = LinkSet()
    try:
        resolver = ObjectResolver(source_db, source_structure)
    except ValueError:
        return result
    accession_attr = target_structure.primary_accession()
    if accession_attr is None:
        return result
    accessions = target_db.table(accession_attr.table).value_set(accession_attr.column)
    for attr, stats in sorted(source_stats.items(), key=lambda kv: kv[0].qualified):
        if not is_link_source_candidate(stats, config):
            continue
        if (
            attr.table == source_structure.primary_relation
            and source_structure.primary_accession() == attr
        ):
            continue
        matches, encoded_any = {}, False
        for value in source_db.table(attr.table).distinct_values(attr.column):
            if not isinstance(value, str):
                continue
            for candidate, encoded in decode_candidates(value):
                if candidate in accessions:
                    matches[value] = (candidate, encoded)
                    encoded_any = encoded_any or encoded
                    break
        if len(matches) < config.min_absolute_matches:
            continue
        fraction = len(matches) / max(stats.non_null_count, 1)
        if fraction < config.min_match_fraction:
            continue
        result.attribute_links.append(AttributeLink(
            source=source_structure.source_name, source_attribute=attr,
            target=target_structure.source_name, target_attribute=accession_attr,
            score=fraction, kind="crossref", encoded=encoded_any,
        ))
        table = source_db.table(attr.table)
        row_ids_index = table.columns.row_ids(attr.column)
        matched_rows = sorted(
            (row_id, value) for value in matches for row_id in row_ids_index.get(value, ())
        )
        seen = set()
        for row_id, value in matched_rows:
            accession_b, encoded = matches[value]
            for owner in resolver.owners_of_row(attr.table, table.row_at(row_id)):
                if (owner, accession_b) in seen:
                    continue
                seen.add((owner, accession_b))
                result.object_links.append(ObjectLink(
                    source_a=source_structure.source_name, accession_a=owner,
                    source_b=target_structure.source_name, accession_b=accession_b,
                    kind="crossref",
                    certainty=config.encoded_certainty if encoded else config.crossref_certainty,
                    evidence=f"{attr.qualified}={value}",
                ))
    return result


def _first_rows(table, limit):
    for i, row in enumerate(table.rows()):
        if i >= limit:
            break
        yield row


def ref_sequence(source_db, source_structure, source_fields,
                 target_db, target_structure, target_fields, config):
    result = LinkSet()
    if not source_fields or not target_fields:
        return result
    try:
        source_resolver = ObjectResolver(source_db, source_structure)
        target_resolver = ObjectResolver(target_db, target_structure)
    except ValueError:
        return result
    for source_field in source_fields:
        for target_field in target_fields:
            if source_field.alphabet != target_field.alphabet:
                continue
            score = dna_score if source_field.alphabet == "dna" else protein_score
            index = BlastIndex(k=config.blast_k, score=score)
            owner_lookup = {}
            target_attr = target_field.attribute
            for row in _first_rows(target_db.table(target_attr.table), config.max_sequence_rows):
                sequence = row.get(target_attr.column)
                if not sequence:
                    continue
                owners = target_resolver.owners_of_row(target_attr.table, row)
                if owners:
                    owner_lookup[index.add(sequence)] = owners
            seen = set()
            source_attr = source_field.attribute
            for row in _first_rows(source_db.table(source_attr.table), config.max_sequence_rows):
                sequence = row.get(source_attr.column)
                if not sequence:
                    continue
                source_owners = source_resolver.owners_of_row(source_attr.table, row)
                if not source_owners:
                    continue
                for hit in index.search(
                    sequence, min_seed_hits=config.blast_min_seed_hits,
                    min_identity=config.blast_min_identity,
                ):
                    for owner_a in source_owners:
                        for owner_b in owner_lookup.get(hit.target_id, ()):
                            if (owner_a, owner_b) in seen:
                                continue
                            seen.add((owner_a, owner_b))
                            certainty = min(1.0, max(0.05, hit.identity)) * config.sequence_certainty
                            result.object_links.append(ObjectLink(
                                source_a=source_structure.source_name, accession_a=owner_a,
                                source_b=target_structure.source_name, accession_b=owner_b,
                                kind="sequence", certainty=round(certainty, 4),
                                evidence=(f"{source_attr.qualified}~{target_attr.qualified}"
                                          f" identity={hit.identity:.2f}"),
                            ))
    return result


class RefTfIdf:
    """The TF-IDF index as the per-pair text scan used it: idf computed
    per lookup, the query tokenized per search."""

    def __init__(self):
        self.documents, self.doc_freq, self.postings = [], Counter(), defaultdict(list)

    def add(self, text):
        counts = Counter(tokenize(text))
        for token in counts:
            self.doc_freq[token] += 1
            self.postings[token].append(len(self.documents))
        self.documents.append(counts)

    def idf(self, token):
        df = self.doc_freq.get(token, 0)
        return math.log((1 + len(self.documents)) / (1 + df)) + 1.0 if df else 0.0

    def finalize(self):
        self.norms = [
            math.sqrt(sum((c * self.idf(t)) ** 2 for t, c in counts.items())) or 1.0
            for counts in self.documents
        ]

    def search(self, text, top_k, threshold):
        counts = Counter(tokenize(text))
        if not counts:
            return []
        weights = {t: c * self.idf(t) for t, c in counts.items()}
        query_norm = math.sqrt(sum(w * w for w in weights.values())) or 1.0
        scores = defaultdict(float)
        for token, weight in weights.items():
            if weight == 0.0:
                continue
            idf = self.idf(token)
            for doc_id in self.postings.get(token, ()):
                scores[doc_id] += weight * self.documents[doc_id][token] * idf
        results = [
            (d, dot / (query_norm * self.norms[d])) for d, dot in scores.items()
        ]
        results = sorted((r for r in results if r[1] >= threshold), key=lambda r: (-r[1], r[0]))
        return results[:top_k]


def ref_text(source_db, source_structure, source_stats,
             target_db, target_structure, target_stats, config):
    result = LinkSet()
    source_attrs = text_attributes(source_stats, config)
    target_attrs = text_attributes(target_stats, config)
    if not source_attrs or not target_attrs:
        return result
    try:
        source_resolver = ObjectResolver(source_db, source_structure)
        target_resolver = ObjectResolver(target_db, target_structure)
    except ValueError:
        return result
    for target_attr in target_attrs:
        index = RefTfIdf()
        doc_owners = []
        for row in target_db.table(target_attr.table).rows():
            text = row.get(target_attr.column)
            if not text:
                continue
            owners = target_resolver.owners_of_row(target_attr.table, row)
            if not owners:
                continue
            index.add(str(text))
            doc_owners.append(owners)
        if not doc_owners:
            continue
        index.finalize()
        for source_attr in source_attrs:
            seen = set()
            for row in source_db.table(source_attr.table).rows():
                text = row.get(source_attr.column)
                if not text:
                    continue
                source_owners = source_resolver.owners_of_row(source_attr.table, row)
                if not source_owners:
                    continue
                for doc_id, cosine in index.search(
                    str(text), top_k=config.text_top_k,
                    threshold=config.text_similarity_threshold,
                ):
                    for owner_a in source_owners:
                        for owner_b in doc_owners[doc_id]:
                            if (owner_a, owner_b) in seen:
                                continue
                            seen.add((owner_a, owner_b))
                            result.object_links.append(ObjectLink(
                                source_a=source_structure.source_name, accession_a=owner_a,
                                source_b=target_structure.source_name, accession_b=owner_b,
                                kind="text",
                                certainty=round(min(1.0, cosine) * config.text_certainty, 4),
                                evidence=(f"{source_attr.qualified}~{target_attr.qualified}"
                                          f" cosine={cosine:.2f}"),
                            ))
    return result


def ref_name_dictionary(target_db, target_structure):
    primary = target_structure.primary_relation
    if primary is None:
        return {}
    accession_attr = target_structure.primary_accession()
    if accession_attr is None:
        return {}
    dictionary = {}
    table = target_db.table(primary)
    for attr in sorted(target_structure.unique_attributes, key=lambda a: a.qualified):
        if attr.table != primary or attr == accession_attr:
            continue
        if table.schema.column(attr.column).data_type.is_numeric:
            continue
        for row in table.rows():
            name = row.get(attr.column)
            accession = row.get(accession_attr.column)
            if isinstance(name, str) and accession is not None:
                dictionary.setdefault(name, accession)
                head = re.split(r"[_\s]", name)[0]
                if head and head != name:
                    dictionary.setdefault(head, accession)
    return dictionary


def ref_name(source_db, source_structure, source_stats, target_db, target_structure, config):
    result = LinkSet()
    dictionary = ref_name_dictionary(target_db, target_structure)
    if not dictionary:
        return result
    try:
        resolver = ObjectResolver(source_db, source_structure)
    except ValueError:
        return result
    seen = set()
    for attr in text_attributes(source_stats, config):
        for row in source_db.table(attr.table).rows():
            text = row.get(attr.column)
            if not text:
                continue
            owners = None
            for name in extract_entity_names(str(text), config.name_min_length):
                accession_b = dictionary.get(name)
                if accession_b is None:
                    continue
                if owners is None:
                    owners = resolver.owners_of_row(attr.table, row)
                for owner in owners:
                    if (owner, accession_b) in seen:
                        continue
                    seen.add((owner, accession_b))
                    result.object_links.append(ObjectLink(
                        source_a=source_structure.source_name, accession_a=owner,
                        source_b=target_structure.source_name, accession_b=accession_b,
                        kind="name", certainty=config.name_certainty,
                        evidence=f"{attr.qualified} mentions {name!r}",
                    ))
    return result


def _ref_vocabulary_attributes(stats, config):
    out = []
    for attr, stat in sorted(stats.items(), key=lambda kv: kv[0].qualified):
        if stat.non_null_count == 0 or stat.data_type.is_numeric:
            continue
        if stat.numeric_fraction >= 0.999 or stat.avg_length > 60:
            continue
        if stat.distinct_count < config.min_distinct_values:
            continue
        out.append(attr)
    return out


def _norm(value):
    return " ".join(value.lower().split())


def _ref_hits(db, attr, wanted):
    table = db.table(attr.table)
    index = table.columns.row_ids(attr.column)
    hits = [
        (row_id, raw)
        for raw in table.distinct_values(attr.column)
        if isinstance(raw, str) and _norm(raw) in wanted
        for row_id in index.get(raw, ())
    ]
    return table, sorted(hits)


def ref_ontology(source_db, source_structure, source_stats,
                 target_db, target_structure, target_stats, config):
    result = LinkSet()
    source_attrs = _ref_vocabulary_attributes(source_stats, config)
    target_attrs = _ref_vocabulary_attributes(target_stats, config)
    if not source_attrs or not target_attrs:
        return result
    try:
        source_resolver = ObjectResolver(source_db, source_structure)
        target_resolver = ObjectResolver(target_db, target_structure)
    except ValueError:
        return result
    for source_attr in source_attrs:
        source_values = {
            _norm(v) for v in source_db.table(source_attr.table).distinct_values(source_attr.column)
            if isinstance(v, str)
        }
        if not source_values:
            continue
        for target_attr in target_attrs:
            target_values = {
                _norm(v) for v in target_db.table(target_attr.table).distinct_values(target_attr.column)
                if isinstance(v, str)
            }
            if not target_values:
                continue
            overlap = source_values & target_values
            denominator = min(len(source_values), len(target_values))
            score = len(overlap) / denominator if denominator else 0.0
            if score < config.ontology_overlap_threshold:
                continue
            result.attribute_links.append(AttributeLink(
                source=source_structure.source_name, source_attribute=source_attr,
                target=target_structure.source_name, target_attribute=target_attr,
                score=round(score, 4), kind="ontology",
            ))
            by_value = defaultdict(list)
            target_table, target_hits = _ref_hits(target_db, target_attr, overlap)
            for row_id, raw in target_hits:
                row = target_table.row_at(row_id)
                for owner in target_resolver.owners_of_row(target_attr.table, row):
                    by_value[_norm(raw)].append(owner)
            seen = set()
            source_table, source_hits = _ref_hits(source_db, source_attr, by_value)
            for row_id, value in source_hits:
                row = source_table.row_at(row_id)
                for owner_a in source_resolver.owners_of_row(source_attr.table, row):
                    for owner_b in by_value[_norm(value)]:
                        if (owner_a, owner_b) in seen:
                            continue
                        seen.add((owner_a, owner_b))
                        result.object_links.append(ObjectLink(
                            source_a=source_structure.source_name, accession_a=owner_a,
                            source_b=target_structure.source_name, accession_b=owner_b,
                            kind="ontology", certainty=config.ontology_certainty,
                            evidence=f"shared term {_norm(value)!r}",
                        ))
    return result


def ref_directional(channels, config, source, target):
    db, st, stats = source
    tdb, tst, _tstats = target
    result, comparisons = LinkSet(), 0
    if channels.crossref:
        comparisons += len(stats)
        result.extend(ref_crossref(db, st, stats, tdb, tst, config))
    if channels.name:
        result.extend(ref_name(db, st, stats, tdb, tst, config))
    return result, comparisons


def ref_pair(channels, config, source, target):
    db, st, stats = source
    tdb, tst, tstats = target
    result, comparisons = ref_directional(channels, config, source, target)
    if channels.sequence:
        source_fields = detect_sequence_fields(stats, config)
        target_fields = detect_sequence_fields(tstats, config)
        comparisons += len(source_fields) * len(target_fields)
        result.extend(ref_sequence(db, st, source_fields, tdb, tst, target_fields, config))
    if channels.text:
        result.extend(ref_text(db, st, stats, tdb, tst, tstats, config))
    if channels.ontology:
        result.extend(ref_ontology(db, st, stats, tdb, tst, tstats, config))
    return result, comparisons


def ref_discover_for(engine, name):
    """What ``engine.discover_for(name)`` returned with per-pair scans."""
    def entry(n):
        return engine.database_for(n), engine.structure_for(n), engine.statistics_for(n)

    merged, comparisons = LinkSet(), 0
    for other in engine.source_names():
        if other == name:
            continue
        for links, count in (
            ref_pair(engine.channels, engine.config, entry(name), entry(other)),
            ref_directional(engine.channels, engine.config, entry(other), entry(name)),
        ):
            merged.extend(links)
            comparisons += count
    return merged, comparisons


# ----------------------------------------------------------------------
# fixtures
# ----------------------------------------------------------------------
def e6_scenario(seed):
    """One E6-shaped universe: all eight sources."""
    return build_scenario(ScenarioConfig(
        seed=seed,
        universe=UniverseConfig(
            n_families=2, members_per_family=2, n_go_terms=4,
            n_diseases=2, n_interactions=2, seed=seed,
        ),
    ))


def specs_of(scenario):
    return [
        (s.name, s.facts.format_name, s.text, dict(s.facts.import_options))
        for s in scenario.sources
    ]


@pytest.fixture(scope="module", params=[450, 451])
def imported(request):
    """``[(database, structure)]`` of an E6 universe, in source order."""
    out = []
    for name, format_name, text, options in specs_of(e6_scenario(request.param)):
        importer = registry.create(format_name, name)
        for key, value in options.items():
            setattr(importer, key, value)
        database = importer.import_text(text).database
        out.append((database, discover_structure(database)))
    return out


CHANNEL_SUBSETS = [
    LinkChannels(*flags) for flags in itertools.product((True, False), repeat=5)
]


class TestSameLinksAsPerPairScans:
    @pytest.mark.parametrize("config", [LinkConfig(), PRUNING_OFF], ids=["default", "pruning-off"])
    def test_every_channel_subset(self, imported, config):
        linked = 0
        for channels in CHANNEL_SUBSETS:
            engine = LinkDiscoveryEngine(config=config, channels=channels)
            for database, structure in imported:
                engine.register_source(database, structure)
                before = engine.comparisons_made
                links = engine.discover_for(structure.source_name)
                expected, comparisons = ref_discover_for(engine, structure.source_name)
                assert links.attribute_links == expected.attribute_links
                assert links.object_links == expected.object_links
                assert engine.comparisons_made - before == comparisons
                linked += len(links.object_links)
        assert linked > 0

    def test_every_channel_finds_links(self, imported):
        # The equality above is only as strong as what it compares.
        engine = LinkDiscoveryEngine()
        kinds = set()
        for database, structure in imported:
            engine.register_source(database, structure)
            kinds.update(l.kind for l in engine.discover_for(structure.source_name).object_links)
        assert kinds == {"crossref", "sequence", "text", "name", "ontology"}


# ----------------------------------------------------------------------
# built once
# ----------------------------------------------------------------------
@pytest.fixture
def builds(monkeypatch):
    """Counts each feature build per (kind, source, attribute)."""
    counts = Counter()
    text_index = LinkFeatures._build_text_index
    blast_index = LinkFeatures._build_blast_index
    name_dictionary = features_module.name_dictionary

    def counting_text_index(self, attr):
        counts["tfidf", self.name, attr.qualified] += 1
        return text_index(self, attr)

    def counting_blast_index(self, field):
        counts["blast", self.name, field.attribute.qualified] += 1
        return blast_index(self, field)

    def counting_name_dictionary(database, structure):
        counts["names", structure.source_name, ""] += 1
        return name_dictionary(database, structure)

    monkeypatch.setattr(LinkFeatures, "_build_text_index", counting_text_index)
    monkeypatch.setattr(LinkFeatures, "_build_blast_index", counting_blast_index)
    monkeypatch.setattr(features_module, "name_dictionary", counting_name_dictionary)
    return counts


def one_at_a_time(aladin, specs):
    for name, format_name, text, options in specs:
        aladin.add_source(name, format_name, text, **options)


def all_at_once(aladin, specs):
    aladin.integrate_many(specs)


class TestBuiltOnce:
    @pytest.mark.parametrize("ingest", [one_at_a_time, all_at_once])
    @pytest.mark.parametrize("seed", [450, 451])
    def test_each_index_at_most_once(self, builds, ingest, seed):
        aladin = Aladin(AladinConfig())
        try:
            ingest(aladin, specs_of(e6_scenario(seed)))
        finally:
            aladin.close()
        assert {kind for kind, _source, _attr in builds} == {"tfidf", "blast", "names"}
        assert max(builds.values()) == 1, [key for key, n in builds.items() if n > 1]

    def test_registration_and_restore_build_nothing(self, builds, tmp_path):
        specs = specs_of(e6_scenario(450))
        aladin = Aladin(AladinConfig())
        aladin.add_source(*specs[0][:3], **specs[0][3])  # no counterpart: no scan
        assert not builds
        one_at_a_time(aladin, specs[1:])
        path = tmp_path / "features.snapshot"
        aladin.save(path)
        aladin.close()
        builds.clear()
        for lazy in (True, False):
            warm = Aladin.open(path, lazy=lazy)
            try:
                warm.search_engine().search("kinase")
                assert all(
                    entry.features is None for entry in warm._engine._sources.values()
                )
            finally:
                warm.close()
        assert not builds


# ----------------------------------------------------------------------
# never stale
# ----------------------------------------------------------------------
LAST = "pdb"


def edit_swissprot(text):
    """Typos in swissprot's first entries: a name (``entry.name``, whose
    head token is in the name dictionary), a description (text and name
    dictionary) and a function comment (text). Row counts are unchanged."""
    edited = text.replace("MAP627_", "MAP672_", 1)
    edited = edited.replace("Map627 family member 1", "Map627 famliy member 1", 1)
    edited = edited.replace("activates substrates", "activtaes substrates", 1)
    assert edited.count("\n") == text.count("\n")
    return edited


def last_links(aladin):
    return [
        (l.source_a, l.accession_a, l.source_b, l.accession_b, l.kind, l.certainty, l.evidence)
        for l in aladin.repository.object_links()
        if LAST in (l.source_a, l.source_b)
    ]


class TestNeverStale:
    @pytest.fixture(scope="class")
    def specs(self):
        specs = specs_of(e6_scenario(450))
        ordered = [s for s in specs if s[0] != LAST] + [s for s in specs if s[0] == LAST]
        swissprot = next(s for s in ordered if s[0] == "swissprot")
        return ordered, edit_swissprot(swissprot[2])

    @staticmethod
    def fresh_links(specs):
        aladin = Aladin(AladinConfig())
        try:
            one_at_a_time(aladin, specs)
            return last_links(aladin)
        finally:
            aladin.close()

    @staticmethod
    def with_text(specs, name, text):
        return [(n, f, text if n == name else t, o) for n, f, t, o in specs]

    def test_edit_changes_the_links(self, specs):
        ordered, edited = specs
        assert self.fresh_links(ordered) != self.fresh_links(
            self.with_text(ordered, "swissprot", edited)
        )

    def test_below_threshold_update(self, specs):
        ordered, edited = specs
        aladin = Aladin(AladinConfig())
        try:
            one_at_a_time(aladin, ordered[:-1])
            assert aladin.update_source("swissprot", edited) is None  # not re-analyzed
            one_at_a_time(aladin, ordered[-1:])
            links = last_links(aladin)
        finally:
            aladin.close()
        assert links == self.fresh_links(self.with_text(ordered, "swissprot", edited))

    def test_remove_and_readd(self, specs):
        ordered, edited = specs
        aladin = Aladin(AladinConfig())
        try:
            one_at_a_time(aladin, ordered[:-1])
            aladin.remove_source("swissprot")
            readded = [(n, f, edited, o) for n, f, _t, o in ordered if n == "swissprot"]
            one_at_a_time(aladin, readded)
            one_at_a_time(aladin, ordered[-1:])
            links = last_links(aladin)
        finally:
            aladin.close()
        survivors = [s for s in ordered[:-1] if s[0] != "swissprot"]
        assert links == self.fresh_links(survivors + readded + ordered[-1:])
