"""E4 — precision/recall of duplicate detection under value noise.

Sweeps typo rates in the textual annotations of the two overlapping
protein sources. Shape: graceful degradation of F1 with noise, duplicates
flagged (never merged), conflicts counted.
"""

from repro.eval import evaluate_duplicates, format_table, integrate_scenario
from benchmarks.conftest import build_noisy_scenario


def test_e4_duplicate_pr(benchmark):
    sweeps = [("clean", 0.0), ("typos 20%", 0.2), ("typos 50%", 0.5)]
    scenarios = [
        (label, build_noisy_scenario(seed=430 + i, typo=typo,
                                     include=("swissprot", "pir", "go")))
        for i, (label, typo) in enumerate(sweeps)
    ]

    benchmark.pedantic(
        lambda: integrate_scenario(scenarios[0][1]), iterations=1, rounds=1
    )

    rows = []
    f1_by_label = {}
    for label, scenario in scenarios:
        aladin = integrate_scenario(scenario)
        prf = evaluate_duplicates(scenario, aladin).metric("duplicates")
        f1_by_label[label] = prf.f1
        # Conflicts among flagged duplicate pairs (Section 4.5).
        conflicts = 0
        browser = aladin.browser()
        for link in aladin.repository.object_links(kind="duplicate")[:30]:
            view = browser.visit(link.source_a, link.accession_a)
            conflicts += len(view.conflicts)
        rows.append(
            [
                label,
                len(scenario.gold.duplicate_pairs()),
                prf.true_positives,
                f"{prf.precision:.2f}",
                f"{prf.recall:.2f}",
                f"{prf.f1:.2f}",
                conflicts,
            ]
        )
    print()
    print("E4: duplicate detection under annotation noise")
    print(
        format_table(
            ["noise", "gold dups", "tp", "precision", "recall", "f1", "conflicts"],
            rows,
        )
    )
    assert f1_by_label["clean"] >= 0.7
    # Graceful (not catastrophic) degradation.
    assert f1_by_label["typos 50%"] >= 0.3
