"""Observability overhead.

Two claims, each measured:

1. **Disabled observability is free.** With metrics and tracer left
   at ``None``, a fan-out times only its items, through the
   durations-only null tracer, exactly as the inner per-item loop
   (``_run``) does; the seam's cost is measured directly against that
   loop and must stay under 1% of a realistic fan-out's runtime, on
   small runs too.
2. **Enabled observability is cheap.** A full ``integrate_many`` with
   the registry, event bus, tracer, and per-stage timing live is
   compared against the same run with observability off (min-of-N wall
   clock).  The traced run's span volume is recorded so the overhead
   number has a denominator.

Full runs write ``BENCH_obs.json`` at the repo root;
``REPRO_BENCH_OBS_SMALL=1`` shrinks the end-to-end repeats and keeps
the committed baseline untouched (the seam sample is the same size).
"""

import json
import os
import statistics
import time

from repro.core import Aladin, AladinConfig
from repro.eval import format_table
from repro.exec import Executor
from repro.synth import ScenarioConfig, UniverseConfig, build_scenario

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULT_PATH = os.path.join(REPO_ROOT, "BENCH_obs.json")
SMALL = bool(os.environ.get("REPRO_BENCH_OBS_SMALL"))
REPEATS = 2 if SMALL else 3
# The seam estimator: the median of SEAM_PAIRS order-alternated paired
# ratios, each sample SEAM_FANOUTS fan-outs long (see wrapper_overhead_pct).
SEAM_PAIRS = 960
SEAM_FANOUTS = 5


def corpus():
    return build_scenario(
        ScenarioConfig(
            seed=450,
            include=("swissprot", "pdb", "go"),
            universe=UniverseConfig(n_families=3, members_per_family=2, seed=450),
        )
    )


def source_specs(scenario):
    return [
        (s.name, s.facts.format_name, s.text, s.facts.import_options)
        for s in scenario.sources
    ]


def integrate_once(specs, observability=True):
    config = AladinConfig()
    config.observability.enabled = observability
    aladin = Aladin(config)
    started = time.perf_counter()
    aladin.integrate_many(specs)
    seconds = time.perf_counter() - started
    aladin.close()
    return seconds


def best_of(n, fn):
    return min(fn() for _ in range(n))


def trace_stats(specs):
    """Span volume of one fully traced ``integrate_many``: how much tree
    the overhead number buys."""
    config = AladinConfig()
    config.observability.enabled = True
    aladin = Aladin(config)
    aladin.integrate_many(specs)
    traces = aladin.traces()
    spans = sum(len(t["spans"]) for t in traces)
    fanouts = sum(
        1
        for t in traces
        for s in t["spans"]
        if s["name"].startswith("fanout.")
    )
    aladin.close()
    return {"traces": len(traces), "spans": spans, "fanout_spans": fanouts}


def wrapper_overhead_pct():
    """The disabled seam vs. the raw inner path, on one realistic fan-out."""

    def work(_state, text):
        return sum(len(token) for token in text.split())

    items = [f"protein kinase domain structure {i} " * 8 for i in range(64)]
    executor = Executor()
    # The disabled wiring: neither handle set.
    assert executor.metrics is None
    assert executor.tracer is None

    def run_raw():
        started = time.perf_counter()
        for _ in range(SEAM_FANOUTS):
            executor._run(work, items, None, None)
        return time.perf_counter() - started

    def run_wrapped():
        started = time.perf_counter()
        for _ in range(SEAM_FANOUTS):
            executor.map_ordered(work, items)
        return time.perf_counter() - started

    # The true seam cost is sub-microsecond per fan-out; host noise on
    # one sample is percent-scale, and whichever arm runs *second* in a
    # pair reads consistently slower (frequency ramping). So: sample in
    # adjacent pairs (shared drift state), alternate the order pair by
    # pair (ordering bias cancels), and take the *median* of the paired
    # ratios (robust to the occasional scheduler hiccup either arm
    # catches). Many short pairs beat few long ones: a pair sees less
    # drift, and the median of 960 ratios of 5 fan-outs moves far less
    # run to run than the median of 24 ratios of 200 fan-outs did
    # (-1.1% to +2.6% on a 2-vCPU host, against the 1% bound).
    run_raw(), run_wrapped()  # warm-up
    ratios, raw_samples, wrapped_samples = [], [], []
    for n in range(SEAM_PAIRS):
        if n % 2 == 0:
            raw_seconds = run_raw()
            wrapped_seconds = run_wrapped()
        else:
            wrapped_seconds = run_wrapped()
            raw_seconds = run_raw()
        ratios.append(wrapped_seconds / raw_seconds)
        raw_samples.append(raw_seconds)
        wrapped_samples.append(wrapped_seconds)
    pct = 100.0 * (statistics.median(ratios) - 1.0)
    return pct, min(raw_samples), min(wrapped_samples)


def test_observability_overhead():
    specs = source_specs(corpus())

    # 1. The disabled seam, measured at the fan-out boundary.
    seam_pct, seam_raw, seam_wrapped = wrapper_overhead_pct()

    # 2. End-to-end: registry + bus + stage timing live vs. off.
    #    One warm-up run pays the one-time costs (parser imports, GC
    #    ramp), then the two modes alternate so drift hits both equally.
    integrate_once(specs, observability=False)
    off_samples, on_samples = [], []
    for _ in range(REPEATS):
        off_samples.append(integrate_once(specs, observability=False))
        on_samples.append(integrate_once(specs, observability=True))
    disabled, enabled = min(off_samples), min(on_samples)
    enabled_pct = 100.0 * (enabled - disabled) / disabled
    tracing = trace_stats(specs)

    rows = [
        ["fan-out seam, raw inner path", f"{seam_raw * 1000:.2f} ms", ""],
        ["fan-out seam, disabled wrapper", f"{seam_wrapped * 1000:.2f} ms",
         f"{seam_pct:+.3f}%"],
        ["integrate_many, observability off", f"{disabled:.3f} s", ""],
        ["integrate_many, observability on", f"{enabled:.3f} s",
         f"{enabled_pct:+.2f}%"],
        ["  span trees recorded", str(tracing["traces"]),
         f"{tracing['spans']} spans"],
    ]
    print()
    print(f"Observability ({os.cpu_count()} core(s))")
    print(format_table(["phase", "time", "delta"], rows))

    result = {
        "corpus": f"E6-small universe (seed 450), {len(specs)} sources",
        "effective_cores": os.cpu_count(),
        "disabled_seam_overhead_pct": round(seam_pct, 4),
        "integrate_seconds": {
            "observability_off": round(disabled, 4),
            "observability_on": round(enabled, 4),
            "enabled_overhead_pct": round(enabled_pct, 2),
        },
        "tracing": {
            # The disabled seam measured above is the tracer's off cost
            # too: with both handles unset the fan-out times itself
            # through the durations-only null tracer.
            "disabled_seam_overhead_pct": round(seam_pct, 4),
            "traced_overhead_pct": round(enabled_pct, 2),
            "traces_per_integrate": tracing["traces"],
            "spans_per_integrate": tracing["spans"],
            "fanout_spans_per_integrate": tracing["fanout_spans"],
        },
        "notes": (
            "Seam = Executor.map_ordered with metrics AND tracer "
            "wiring left at None vs. calling the inner _run loop: median "
            f"of {SEAM_PAIRS} order-alternated paired ratios, "
            f"{SEAM_FANOUTS} fan-outs of 64 items per sample. Integrate "
            "rows are min-of-"
            f"{REPEATS} integrate_many wall clocks."
        ),
    }
    if not SMALL:
        with open(RESULT_PATH, "w") as fh:
            json.dump(result, fh, indent=2)
            fh.write("\n")
    # Acceptance bar: the seam must be in the noise (<1%). Its sample
    # does not shrink on small runs, so they enforce it too.
    assert seam_pct < 1.0, f"disabled seam overhead {seam_pct:.3f}% >= 1%"
