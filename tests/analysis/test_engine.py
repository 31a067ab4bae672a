"""Engine mechanics: suppressions, fingerprints, baseline, module names —
and the live-tree invariant that the shipped source lints clean modulo
the committed baseline."""

import os
import textwrap

import pytest

import repro
from repro.analysis import (
    AnalysisEngine,
    Baseline,
    BaselineError,
    Finding,
    module_name_for,
    parse_suppressions,
)
from repro.analysis.baseline import DEFAULT_BASELINE
from repro.analysis.checkers import DEFAULT_CHECKER_TYPES, build_checkers

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


class TestModuleNames:
    def test_src_tree(self):
        assert (
            module_name_for("src/repro/serve/cache.py") == "repro.serve.cache"
        )

    def test_init_collapses_to_package(self):
        assert module_name_for("src/repro/obs/__init__.py") == "repro.obs"

    def test_last_repro_component_wins(self):
        assert (
            module_name_for("/tmp/x/repro/core/mod.py") == "repro.core.mod"
        )

    def test_outside_repro_falls_back_to_stem(self):
        assert module_name_for("/somewhere/script.py") == "script"


class TestSuppressions:
    def test_allow_covers_own_and_next_line(self):
        table = parse_suppressions(
            "# repro-lint: allow[rule-a,rule-b] because\nx = 1\ny = 2\n"
        )
        assert table[1] == {"rule-a", "rule-b"}
        assert table[2] == {"rule-a", "rule-b"}
        assert 3 not in table

    def test_noqa_ble001_maps_to_broad_except(self):
        table = parse_suppressions("try:\n    pass\nexcept Exception:  # noqa: BLE001\n    pass\n")
        assert "broad-except" in table[3]


class TestFingerprints:
    def test_stable_across_line_drift(self):
        a = Finding("r", "p.py", 10, "m", context="  x = json.dumps(v)")
        b = Finding("r", "p.py", 99, "m", context="x = json.dumps(v)")
        assert a.fingerprint == b.fingerprint

    def test_changes_with_the_offending_line(self):
        a = Finding("r", "p.py", 10, "m", context="x = json.dumps(v)")
        b = Finding("r", "p.py", 10, "m", context="x = canonical_json(v)")
        assert a.fingerprint != b.fingerprint


class TestBaseline:
    def test_roundtrip_and_split(self, tmp_path):
        finding = Finding("r", "p.py", 3, "m", context="offending line")
        baseline = Baseline()
        baseline.add(finding, "grandfathered: predates the rule")
        path = tmp_path / "baseline.json"
        baseline.save(str(path))
        loaded = Baseline.load(str(path))
        live, baselined, stale = loaded.split([finding])
        assert live == []
        assert len(baselined) == 1 and baselined[0].baselined
        assert stale == []

    def test_stale_entries_are_named(self, tmp_path):
        finding = Finding("r", "p.py", 3, "m", context="gone line")
        baseline = Baseline()
        baseline.add(finding, "was justified once")
        live, baselined, stale = baseline.split([])
        assert stale == [finding.fingerprint]

    def test_missing_justification_is_rejected(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(
            '{"version": 1, "entries": [{"fingerprint": "abc", "justification": " "}]}'
        )
        with pytest.raises(BaselineError):
            Baseline.load(str(path))

    def test_wrong_version_is_rejected(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text('{"version": 99, "entries": []}')
        with pytest.raises(BaselineError):
            Baseline.load(str(path))


class TestEngineDispatch:
    def test_one_walk_feeds_all_checkers(self, tmp_path):
        path = tmp_path / "repro" / "serve" / "mod.py"
        path.parent.mkdir(parents=True)
        path.write_text(
            textwrap.dedent(
                """
                import json

                def f(payload, obs):
                    try:
                        obs.metrics_or_none.counter("x").inc()
                        return json.dumps(payload)
                    except Exception:
                        return None
                """
            )
        )
        engine = AnalysisEngine(build_checkers(), root=str(tmp_path))
        report = engine.run([str(tmp_path)])
        assert sorted(set(f.rule for f in report.findings)) == [
            "broad-except",
            "raw-json-dumps",
            "unguarded-obs",
        ]

    def test_every_default_checker_is_instantiable(self):
        assert len(DEFAULT_CHECKER_TYPES) == 7
        fresh = build_checkers()
        assert len(fresh) == len(build_checkers())
        assert fresh[0] is not build_checkers()[0]


class TestLiveTree:
    def test_shipped_source_is_clean_modulo_baseline(self):
        """The acceptance invariant: `repro lint` over src/repro reports
        zero non-baselined findings with the committed baseline."""
        source_root = os.path.dirname(os.path.abspath(repro.__file__))
        baseline_path = os.path.join(REPO_ROOT, DEFAULT_BASELINE)
        baseline = Baseline.load(baseline_path)
        engine = AnalysisEngine(
            build_checkers(), baseline=baseline, root=REPO_ROOT
        )
        report = engine.run([source_root])
        assert report.clean, "\n" + report.render()
        assert report.stale_baseline == [], (
            "stale baseline entries: " + ", ".join(report.stale_baseline)
        )
        assert report.checked_files > 100
