"""The ground-truth biological universe.

One :class:`Universe` holds the real-world objects that all generated
sources describe (possibly redundantly and conflictingly — Section 1:
"Databases overlap in the objects they represent, storing sometimes
redundant and sometimes conflicting data"). Sources render *views* of the
universe; because every rendered record remembers which universe entity it
came from, cross-source links and duplicates have exact ground truth.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.synth.sequences import mutate_sequence, random_protein

_GENE_SYLLABLES = [
    "KIN", "PHO", "RAS", "MYC", "ABL", "SRC", "TOR", "ATM", "CDK", "MAP",
    "ERK", "JNK", "AKT", "GSK", "PLK", "WEE", "CHK", "BRC", "TP", "RB",
    "HSP", "DNA", "RNA", "POL", "LIG", "HEL", "TOP", "GYR", "REC", "RAD",
]

_FUNCTION_VERBS = [
    "catalyzes", "regulates", "mediates", "inhibits", "activates",
    "binds", "phosphorylates", "stabilizes", "transports", "cleaves",
]

_COMPARTMENTS = [
    "nucleus", "cytoplasm", "mitochondrion", "membrane", "ribosome",
    "endoplasmic reticulum", "golgi apparatus", "lysosome",
]

# (taxid, scientific name, common name, Swiss-Prot species mnemonic).
# Mnemonics have 3-5 characters in reality (RAT vs ARATH), which gives
# entry names their natural length spread.
_TAXA = [
    (9606, "Homo sapiens", "human", "HUMAN"),
    (10090, "Mus musculus", "mouse", "MOUSE"),
    (4932, "Saccharomyces cerevisiae", "yeast", "YEAST"),
    (562, "Escherichia coli", "bacterium", "ECOLI"),
    (7227, "Drosophila melanogaster", "fly", "DROME"),
    (6239, "Caenorhabditis elegans", "worm", "CAEEL"),
    (10116, "Rattus norvegicus", "rat", "RAT"),
    (3702, "Arabidopsis thaliana", "plant", "ARATH"),
    (9913, "Bos taurus", "cow", "BOVIN"),
    (8355, "Xenopus laevis", "frog", "XENLA"),
    (9823, "Sus scrofa", "pig", "PIG"),
    (3888, "Pisum sativum", "pea", "PEA"),
]

_GO_NAMESPACES = ["molecular_function", "biological_process", "cellular_component"]

_METHODS = ["X-RAY DIFFRACTION", "NMR", "ELECTRON MICROSCOPY"]

_DISEASE_NOUNS = [
    "anemia", "dystrophy", "carcinoma", "syndrome", "deficiency",
    "neuropathy", "ataxia", "dysplasia", "atrophy", "sclerosis",
]

# Varied-length descriptive names: real protein descriptions range from
# terse ("P53 kinase") to verbose; the length spread keeps description
# columns from masquerading as accession numbers (Section 5's "varying
# length" rejection for BioEntry.name).
_NAME_TEMPLATES = [
    "{sym} kinase",
    "Putative {sym} regulatory protein",
    "Probable ATP-dependent {sym} helicase homolog",
    "{sym} family member {n}",
    "Uncharacterized protein {sym}",
    "Serine/threonine-protein kinase {sym} isoform {n}",
    "{sym} associated factor",
]


@dataclass(frozen=True)
class TaxonEntity:
    taxid: int
    scientific_name: str
    common_name: str
    mnemonic: str


@dataclass(frozen=True)
class GoTermEntity:
    uid: int
    accession: str
    name: str
    namespace: str
    definition: str
    parents: Tuple[int, ...]  # uids of parent terms


@dataclass(frozen=True)
class DiseaseEntity:
    uid: int
    accession: str  # MIM-style
    name: str
    description: str


@dataclass(frozen=True)
class ProteinEntity:
    uid: int
    family: int
    symbol: str  # gene symbol, e.g. KIN2
    name: str  # entry name, e.g. KIN2_HUMAN
    full_name: str  # descriptive name
    synonyms: Tuple[str, ...]
    taxon: TaxonEntity
    sequence: str
    go_terms: Tuple[int, ...]  # uids
    diseases: Tuple[int, ...]  # uids
    function_text: str


@dataclass(frozen=True)
class StructureEntity:
    uid: int
    pdb_code: str
    protein_uid: int
    method: str
    resolution: Optional[float]
    title: str


@dataclass(frozen=True)
class InteractionEntity:
    uid: int
    protein_a: int
    protein_b: int
    score: float


@dataclass
class Universe:
    """All ground-truth entities, keyed by uid within each class."""

    taxa: List[TaxonEntity] = field(default_factory=list)
    go_terms: List[GoTermEntity] = field(default_factory=list)
    diseases: List[DiseaseEntity] = field(default_factory=list)
    proteins: List[ProteinEntity] = field(default_factory=list)
    structures: List[StructureEntity] = field(default_factory=list)
    interactions: List[InteractionEntity] = field(default_factory=list)

    def protein_by_uid(self, uid: int) -> ProteinEntity:
        return self.proteins[uid]



@dataclass
class UniverseConfig:
    """Knobs for universe generation."""

    n_families: int = 12
    members_per_family: int = 4
    n_go_terms: int = 40
    n_diseases: int = 15
    structures_per_protein: float = 0.6
    n_interactions: int = 30
    sequence_length: Tuple[int, int] = (120, 400)
    family_divergence: float = 0.15
    seed: int = 7


def build_universe(config: Optional[UniverseConfig] = None) -> Universe:
    """Generate a deterministic universe from ``config.seed``."""
    config = config or UniverseConfig()
    rng = random.Random(config.seed)
    universe = Universe()
    universe.taxa = [TaxonEntity(*t) for t in _TAXA]
    _build_go_dag(rng, universe, config)
    _build_diseases(rng, universe, config)
    _build_proteins(rng, universe, config)
    _build_structures(rng, universe, config)
    _build_interactions(rng, universe, config)
    return universe


def _build_go_dag(rng: random.Random, universe: Universe, config: UniverseConfig) -> None:
    from repro.synth.accessions import AccessionStyle, make_generator

    gen = make_generator(AccessionStyle.GO, rng)
    for uid in range(config.n_go_terms):
        namespace = _GO_NAMESPACES[uid % len(_GO_NAMESPACES)]
        verb = rng.choice(_FUNCTION_VERBS)
        compartment = rng.choice(_COMPARTMENTS)
        name = f"{verb} activity in {compartment} {uid}"
        # Parents: up to 2 earlier terms in the same namespace (keeps a DAG).
        candidates = [
            t.uid for t in universe.go_terms if t.namespace == namespace and t.uid < uid
        ]
        parents = tuple(sorted(rng.sample(candidates, min(len(candidates), rng.randint(0, 2)))))
        universe.go_terms.append(
            GoTermEntity(
                uid=uid,
                accession=gen(),
                name=name,
                namespace=namespace,
                definition=f"The process by which a gene product {verb} targets in the {compartment}.",
                parents=parents,
            )
        )


def _build_diseases(rng: random.Random, universe: Universe, config: UniverseConfig) -> None:
    from repro.synth.accessions import AccessionStyle, make_generator

    gen = make_generator(AccessionStyle.MIM, rng)
    for uid in range(config.n_diseases):
        syllable = rng.choice(_GENE_SYLLABLES).capitalize()
        noun = rng.choice(_DISEASE_NOUNS)
        universe.diseases.append(
            DiseaseEntity(
                uid=uid,
                accession=gen(),
                name=f"{syllable}-associated {noun}",
                description=(
                    f"An inherited {noun} characterized by progressive loss of "
                    f"function, linked to mutations in the {syllable} pathway."
                ),
            )
        )


def _make_symbol(rng: random.Random, used: set) -> str:
    for _ in range(1000):
        symbol = rng.choice(_GENE_SYLLABLES) + str(rng.randint(1, 999))
        if symbol not in used:
            used.add(symbol)
            return symbol
    raise RuntimeError("gene symbol space exhausted")


def _build_proteins(rng: random.Random, universe: Universe, config: UniverseConfig) -> None:
    used_symbols: set = set()
    uid = 0
    for family in range(config.n_families):
        length = rng.randint(*config.sequence_length)
        ancestor = random_protein(rng, length)
        base_symbol = _make_symbol(rng, used_symbols)
        for member in range(config.members_per_family):
            taxon = rng.choice(universe.taxa)
            sequence = mutate_sequence(rng, ancestor, config.family_divergence)
            symbol = base_symbol if member == 0 else _make_symbol(rng, used_symbols)
            suffix = taxon.mnemonic
            go_terms = tuple(
                sorted(
                    t.uid
                    for t in rng.sample(universe.go_terms, min(len(universe.go_terms), rng.randint(1, 4)))
                )
            )
            diseases = tuple(
                sorted(
                    d.uid
                    for d in rng.sample(universe.diseases, rng.randint(0, 2))
                )
            )
            go_names = ", ".join(universe.go_terms[t].name for t in go_terms[:2])
            function_text = (
                f"{symbol} {rng.choice(_FUNCTION_VERBS)} substrates in the "
                f"{rng.choice(_COMPARTMENTS)}. Involved in {go_names}."
            )
            template = rng.choice(_NAME_TEMPLATES)
            universe.proteins.append(
                ProteinEntity(
                    uid=uid,
                    family=family,
                    symbol=symbol,
                    name=f"{symbol}_{suffix}",
                    full_name=template.format(sym=symbol.capitalize(), n=member + 1),
                    synonyms=(base_symbol + "-like",) if member else (),
                    taxon=taxon,
                    sequence=sequence,
                    go_terms=go_terms,
                    diseases=diseases,
                    function_text=function_text,
                )
            )
            uid += 1


def _build_structures(rng: random.Random, universe: Universe, config: UniverseConfig) -> None:
    from repro.synth.accessions import AccessionStyle, make_generator

    gen = make_generator(AccessionStyle.PDB, rng)
    uid = 0
    for protein in universe.proteins:
        if rng.random() > config.structures_per_protein:
            continue
        n_structures = 1 if rng.random() < 0.8 else 2
        for _ in range(n_structures):
            method = rng.choice(_METHODS)
            resolution = round(rng.uniform(1.2, 3.5), 2) if method == "X-RAY DIFFRACTION" else None
            universe.structures.append(
                StructureEntity(
                    uid=uid,
                    pdb_code=gen().upper(),
                    protein_uid=protein.uid,
                    method=method,
                    resolution=resolution,
                    title=f"CRYSTAL STRUCTURE OF {protein.symbol}",
                )
            )
            uid += 1


def _build_interactions(rng: random.Random, universe: Universe, config: UniverseConfig) -> None:
    if len(universe.proteins) < 2:
        return
    seen = set()
    uid = 0
    attempts = 0
    while uid < config.n_interactions and attempts < config.n_interactions * 20:
        attempts += 1
        a, b = rng.sample(range(len(universe.proteins)), 2)
        key = (min(a, b), max(a, b))
        if key in seen:
            continue
        seen.add(key)
        universe.interactions.append(
            InteractionEntity(uid=uid, protein_a=key[0], protein_b=key[1],
                              score=round(rng.uniform(0.2, 1.0), 3))
        )
        uid += 1
