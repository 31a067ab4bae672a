"""The telemetry subsystem: metrics, lifecycle events, span trees.

One warehouse session with observability live. A subscriber prints
lifecycle events as the pipeline emits them (checkpoints commit before
their ``source.added``, updates carry ``reanalyzed``), the metrics
registry accumulates per-stage histograms and fan-out telemetry, and the
batch's span tree shows each source's task graph, its fan-outs each with
one ``task`` span per item.

    python examples/observability.py
"""

import json
import os
import tempfile

from repro.core import Aladin, AladinConfig
from repro.obs import render_spans
from repro.synth import ScenarioConfig, UniverseConfig, build_scenario


def build_corpus():
    return build_scenario(
        ScenarioConfig(
            seed=450,
            include=("swissprot", "pdb", "go"),
            universe=UniverseConfig(n_families=3, members_per_family=2, seed=450),
        )
    )


def obs_config() -> AladinConfig:
    config = AladinConfig()
    config.observability.enabled = True  # ignore REPRO_OBS for the demo
    return config


def main() -> None:
    scenario = build_corpus()
    specs = [
        (s.name, s.facts.format_name, s.text, s.facts.import_options)
        for s in scenario.sources
    ]
    snapshot_path = os.path.join(tempfile.mkdtemp(), "warehouse.snapshot")

    # --- session 1: integrate with a live event subscriber -------------
    aladin = Aladin(obs_config())
    aladin.obs.events.subscribe(
        lambda e: print(f"  [{e.seq:>2}] {e.kind:<22} {json.dumps(e.payload)}")
    )
    print(f"integrating {len(specs)} sources (watch the lifecycle):")
    aladin.integrate_many(specs)
    aladin.save(snapshot_path)
    # Re-deliver one source unchanged: a below-threshold in-place update
    # that checkpoints against the now-attached snapshot.
    name, _format, text, _options = specs[0]
    aladin.update_source(name, text)

    # --- per-stage timing from the registry ----------------------------
    snapshot = aladin.metrics()
    print()
    print("stage wall clocks (seconds):")
    for name, stats in sorted(snapshot["histograms"].items()):
        if name.startswith("stage.") and stats["count"]:
            print(f"  {name:<28} n={stats['count']} "
                  f"mean={stats['mean']:.4f} p95={stats['p95']:.4f}")
    counters = snapshot["counters"]
    fanouts = counters.get("pool.fanouts", 0)
    tasks = counters.get("pool.tasks", 0)
    print(f"pool: {fanouts} fan-outs, {tasks} tasks dispatched")

    # --- the batch's span tree -----------------------------------------
    batch = next(t for t in aladin.traces() if t["root"] == "op.integrate_many")
    print()
    print("span tree of integrate_many:")
    print(render_spans(batch["spans"]))
    aladin.close()


if __name__ == "__main__":
    main()
