"""System-wide configuration."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from typing import Any, Dict

from repro.discovery.model import DiscoveryConfig
from repro.duplicates.detector import DuplicateConfig
from repro.linking.engine import LinkChannels
from repro.linking.model import LinkConfig
from repro.obs import ObsConfig
from repro.persist.snapshot import PersistConfig


@dataclass
class AladinConfig:
    """All knobs of the pipeline in one place.

    Every threshold the paper leaves unspecified lives in one of the
    sub-configs (DESIGN.md Section 6 records the calibration).
    """

    discovery: DiscoveryConfig = field(default_factory=DiscoveryConfig)
    linking: LinkConfig = field(default_factory=LinkConfig)
    channels: LinkChannels = field(default_factory=LinkChannels)
    duplicates: DuplicateConfig = field(default_factory=DuplicateConfig)
    # Snapshot lifecycle: advisory writer-lock policy and the online
    # auto-compaction thresholds. A host property — it is never restored
    # from snapshots.
    persist: PersistConfig = field(default_factory=PersistConfig)
    # Telemetry: the metrics registry + lifecycle event bus (default on,
    # REPRO_OBS=0 disables; REPRO_OBS_EXPORT names a JSON-lines sink).
    # A host property like `persist` — never restored from snapshots.
    observability: ObsConfig = field(default_factory=ObsConfig)
    # Step 5 runs between every source pair by default; it can be disabled
    # for ablations.
    detect_duplicates: bool = True
    # Cap on the session-wide duplicate scorer's value-pair cache (LRU
    # entries). The cache is a pure accelerator — eviction can never
    # change a score — so week-long maintenance sessions hold steady
    # memory instead of growing with every distinct value pair seen.
    # 0 or None disables the bound.
    scorer_cache_entries: int = 262144
    # Section 6.2: "We envisage a threshold on the number of changes to a
    # data source before a new analysis is carried out." Fraction of rows
    # that must change before update_source() triggers full re-analysis.
    reanalysis_change_threshold: float = 0.1
    # Declare importer constraints? False = the hard, realistic mode where
    # all structure must be guessed from data (the paper's main setting).
    declare_constraints: bool = False
    # Samples stored in the metadata repository per table.
    sample_rows_per_table: int = 3


def config_to_dict(config: AladinConfig) -> Dict[str, Any]:
    """JSON-safe dict of every knob (all sub-config fields are primitives)."""
    return asdict(config)


def config_from_dict(payload: Dict[str, Any]) -> AladinConfig:
    """Rebuild an :class:`AladinConfig` persisted by :func:`config_to_dict`.

    Snapshots carry the configuration they were integrated with, so a
    warm-started system runs later maintenance (``update_source``
    thresholds, importer constraint declaration, duplicate detection)
    under the same knobs as the system that wrote them.
    """
    payload = dict(payload)
    # Snapshots written before execution became serial-only carry an
    # "execution" entry (backend, workers, pool mode); there is nothing
    # left for it to set, so it is dropped.
    payload.pop("execution", None)
    # Likewise the persist policy (lock handling, auto-compaction
    # thresholds) belongs to the process opening the snapshot, not to the
    # data: the writer's lock timeout must not dictate the reader's.
    payload.pop("persist", None)
    # And the scorer cache bound is host memory policy: a snapshot saved
    # by an ablation run with the bound disabled must not silently
    # re-unbound every production process that opens it.
    payload.pop("scorer_cache_entries", None)
    # Observability is host policy too: whether the writer was exporting
    # telemetry says nothing about what the reader wants (REPRO_OBS and
    # the reader's own AladinConfig decide).
    payload.pop("observability", None)
    config = AladinConfig(
        discovery=_tolerant(DiscoveryConfig, payload.pop("discovery")),
        linking=_tolerant(LinkConfig, payload.pop("linking")),
        channels=_tolerant(LinkChannels, payload.pop("channels")),
        duplicates=_tolerant(DuplicateConfig, payload.pop("duplicates")),
    )
    # Apply whatever scalar knobs the payload carries and ignore unknown
    # keys, so a snapshot written by a build with *newer* config fields —
    # top-level or nested — still opens here (the snapshot format version
    # gates real layout changes; extra knobs degrade to this build's
    # defaults).
    for key, value in payload.items():
        if hasattr(config, key):
            setattr(config, key, value)
    return config


def _tolerant(cls, payload: Dict[str, Any]):
    """Build a sub-config from persisted fields, ignoring unknown keys."""
    known = {f.name for f in fields(cls)}
    return cls(**{key: value for key, value in payload.items() if key in known})
