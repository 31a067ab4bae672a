"""JSON codecs for the snapshot store.

Every persisted object is a small frozen dataclass from the layers below
(schemas, column profiles, discovered structure, links). The codecs here
turn them into plain JSON-compatible dicts and back, with two rules:

* round-trips are exact — ``from_dict(to_dict(x)) == x`` for every object
  the pipeline can produce;
* serialization is deterministic (``canonical_json`` sorts keys), so the
  per-source content hashes in the manifest are stable across runs.
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict, List, Sequence

from repro.discovery.model import (
    AttributeRef,
    PathStep,
    Relationship,
    SecondaryPath,
    SourceStructure,
)
from repro.linking.model import AttributeLink, ObjectLink
from repro.relational.columns import ColumnProfile
from repro.relational.schema import (
    Column,
    ForeignKey,
    TableSchema,
    UniqueConstraint,
)
from repro.relational.types import DataType


# Non-finite floats (a ColumnProfile statistic over hostile data can be
# NaN or infinite) must not reach json.dumps bare: the default encoder
# emits ``NaN``/``Infinity``, which is not JSON at all — a strict parser
# rejects the payload and the snapshot's content hashes stop being
# portable. They are wrapped in a one-key marker object instead, which
# round-trips exactly and hashes deterministically.
_NONFINITE_KEY = "$nonfinite"
_NONFINITE_ENCODE = {
    "nan": "nan",
    "inf": "inf",
    "-inf": "-inf",
}
_NONFINITE_DECODE = {
    "nan": math.nan,
    "inf": math.inf,
    "-inf": -math.inf,
}


def _encode_nonfinite(payload: Any) -> Any:
    if isinstance(payload, float) and not math.isfinite(payload):
        if math.isnan(payload):
            tag = "nan"
        else:
            tag = "inf" if payload > 0 else "-inf"
        return {_NONFINITE_KEY: tag}
    if isinstance(payload, dict):
        return {key: _encode_nonfinite(value) for key, value in payload.items()}
    if isinstance(payload, (list, tuple)):
        return [_encode_nonfinite(value) for value in payload]
    return payload


def _decode_nonfinite_object(payload: Dict[str, Any]) -> Any:
    if len(payload) == 1 and _NONFINITE_KEY in payload:
        tag = payload[_NONFINITE_KEY]
        if tag in _NONFINITE_DECODE:
            return _NONFINITE_DECODE[tag]
    return payload


def canonical_json(payload: Any) -> str:
    """Deterministic, *strictly valid* JSON text — the content-hash unit.

    ``allow_nan=False`` makes a bare non-finite float a loud error
    instead of silently invalid JSON; only when one is actually present
    (the raised ``ValueError``) does the payload take the marker-walk
    path — so the common all-finite case (every row of every checkpoint)
    pays no deep rebuild, and the bytes are identical either way.
    """
    try:
        return json.dumps(
            payload, sort_keys=True, separators=(",", ":"), allow_nan=False
        )
    except ValueError:
        return json.dumps(
            _encode_nonfinite(payload),
            sort_keys=True,
            separators=(",", ":"),
            allow_nan=False,
        )


# One decoder for every parse: ``json.loads`` with an ``object_hook``
# builds a fresh JSONDecoder per call, which costs as much as parsing a
# short payload. The decoder keeps no state between calls (``json.loads``
# shares its own default one across threads the same way).
_DECODER = json.JSONDecoder(object_hook=_decode_nonfinite_object)


def canonical_loads(text: str) -> Any:
    """Parse :func:`canonical_json` output, restoring non-finite floats."""
    return _DECODER.decode(text)


def decode_batch(payloads: Sequence[str]) -> List[Any]:
    """Parse a sequence of :func:`canonical_json` payloads in one call.

    The payloads are joined into one JSON array, so the parser is
    entered once per batch instead of once per payload. A payload that
    is not exactly one JSON value shifts the element count (or fails
    the parse) and raises ValueError.
    """
    decoded = _DECODER.decode("[" + ",".join(payloads) + "]")
    if len(decoded) != len(payloads):
        raise ValueError(
            f"{len(payloads)} payloads decoded to {len(decoded)} values"
        )
    return decoded


def display_json(payload: Any, indent: int = 2) -> str:
    """Human-facing twin of :func:`canonical_json`.

    Same key order and non-finite handling — so what an operator reads
    matches what the store hashes — but indented for terminals instead
    of packed for hashing.  Never feed this to a content hash.
    """
    try:
        return json.dumps(payload, sort_keys=True, indent=indent, allow_nan=False)
    except ValueError:
        return json.dumps(
            _encode_nonfinite(payload),
            sort_keys=True,
            indent=indent,
            allow_nan=False,
        )


# ----------------------------------------------------------------------
# relational schemas
# ----------------------------------------------------------------------
def schema_to_dict(schema: TableSchema) -> Dict[str, Any]:
    return {
        "name": schema.name,
        "columns": [
            {"name": c.name, "type": c.data_type.value, "nullable": c.nullable}
            for c in schema.columns
        ],
        "primary_key": list(schema.primary_key) if schema.primary_key else None,
        "unique": [list(u.columns) for u in schema.unique_constraints],
        "foreign_keys": [
            {
                "columns": list(fk.columns),
                "target_table": fk.target_table,
                "target_columns": list(fk.target_columns),
            }
            for fk in schema.foreign_keys
        ],
    }


def schema_from_dict(payload: Dict[str, Any]) -> TableSchema:
    return TableSchema(
        name=payload["name"],
        columns=[
            Column(c["name"], DataType(c["type"]), nullable=c["nullable"])
            for c in payload["columns"]
        ],
        primary_key=tuple(payload["primary_key"]) if payload["primary_key"] else None,
        unique_constraints=[UniqueConstraint(tuple(u)) for u in payload["unique"]],
        foreign_keys=[
            ForeignKey(
                columns=tuple(fk["columns"]),
                target_table=fk["target_table"],
                target_columns=tuple(fk["target_columns"]),
            )
            for fk in payload["foreign_keys"]
        ],
    )


# ----------------------------------------------------------------------
# column profiles
# ----------------------------------------------------------------------
def profile_to_dict(profile: ColumnProfile) -> Dict[str, Any]:
    return {
        "column": profile.column,
        "data_type": profile.data_type.value,
        "row_count": profile.row_count,
        "non_null_count": profile.non_null_count,
        "distinct_count": profile.distinct_count,
        "is_unique": profile.is_unique,
        "avg_length": profile.avg_length,
        "min_length": profile.min_length,
        "max_length": profile.max_length,
        "numeric_fraction": profile.numeric_fraction,
        "alpha_fraction": profile.alpha_fraction,
        "protein_alphabet_fraction": profile.protein_alphabet_fraction,
        "dna_alphabet_fraction": profile.dna_alphabet_fraction,
    }


def profile_from_dict(payload: Dict[str, Any]) -> ColumnProfile:
    payload = dict(payload)
    payload["data_type"] = DataType(payload["data_type"])
    return ColumnProfile(**payload)


# ----------------------------------------------------------------------
# discovered structure
# ----------------------------------------------------------------------
def _relationship_to_dict(relationship: Relationship) -> Dict[str, Any]:
    return {
        "source": relationship.source.qualified,
        "target": relationship.target.qualified,
        "cardinality": relationship.cardinality,
        "origin": relationship.origin,
    }


def _relationship_from_dict(payload: Dict[str, Any]) -> Relationship:
    return Relationship(
        source=AttributeRef.parse(payload["source"]),
        target=AttributeRef.parse(payload["target"]),
        cardinality=payload["cardinality"],
        origin=payload["origin"],
    )


def structure_to_dict(structure: SourceStructure) -> Dict[str, Any]:
    return {
        "source_name": structure.source_name,
        "unique_attributes": sorted(a.qualified for a in structure.unique_attributes),
        "accession_candidates": {
            table: ref.qualified
            for table, ref in structure.accession_candidates.items()
        },
        "relationships": [
            _relationship_to_dict(r) for r in structure.relationships
        ],
        "primary_relations": list(structure.primary_relations),
        "secondary_paths": {
            table: [
                {
                    "target_table": path.target_table,
                    "steps": [
                        {
                            "relationship": _relationship_to_dict(step.relationship),
                            "forward": step.forward,
                        }
                        for step in path.steps
                    ],
                }
                for path in paths
            ]
            for table, paths in structure.secondary_paths.items()
        },
        "unreachable_tables": list(structure.unreachable_tables),
    }


def structure_from_dict(payload: Dict[str, Any]) -> SourceStructure:
    return SourceStructure(
        source_name=payload["source_name"],
        unique_attributes={
            AttributeRef.parse(q) for q in payload["unique_attributes"]
        },
        accession_candidates={
            table: AttributeRef.parse(q)
            for table, q in payload["accession_candidates"].items()
        },
        relationships=[
            _relationship_from_dict(r) for r in payload["relationships"]
        ],
        primary_relations=list(payload["primary_relations"]),
        secondary_paths={
            table: tuple(
                SecondaryPath(
                    target_table=p["target_table"],
                    steps=tuple(
                        PathStep(
                            relationship=_relationship_from_dict(s["relationship"]),
                            forward=s["forward"],
                        )
                        for s in p["steps"]
                    ),
                )
                for p in paths
            )
            for table, paths in payload["secondary_paths"].items()
        },
        unreachable_tables=list(payload["unreachable_tables"]),
    )


# ----------------------------------------------------------------------
# links
# ----------------------------------------------------------------------
def attribute_link_to_dict(link: AttributeLink) -> Dict[str, Any]:
    return {
        "source": link.source,
        "source_attribute": link.source_attribute.qualified,
        "target": link.target,
        "target_attribute": link.target_attribute.qualified,
        "score": link.score,
        "kind": link.kind,
        "encoded": link.encoded,
    }


def attribute_link_from_dict(payload: Dict[str, Any]) -> AttributeLink:
    return AttributeLink(
        source=payload["source"],
        source_attribute=AttributeRef.parse(payload["source_attribute"]),
        target=payload["target"],
        target_attribute=AttributeRef.parse(payload["target_attribute"]),
        score=payload["score"],
        kind=payload["kind"],
        encoded=payload["encoded"],
    )


def object_link_to_dict(link: ObjectLink) -> Dict[str, Any]:
    return {
        "source_a": link.source_a,
        "accession_a": link.accession_a,
        "source_b": link.source_b,
        "accession_b": link.accession_b,
        "kind": link.kind,
        "certainty": link.certainty,
        "evidence": link.evidence,
    }


def object_link_from_dict(payload: Dict[str, Any]) -> ObjectLink:
    return ObjectLink(**payload)
