"""Tests for the command-line front-end."""

import io
import json

import pytest

from repro.cli import run
from repro.core import Aladin
from repro.synth import ScenarioConfig, UniverseConfig, build_scenario


@pytest.fixture(scope="module")
def source_files(tmp_path_factory):
    directory = tmp_path_factory.mktemp("sources")
    scenario = build_scenario(
        ScenarioConfig(
            seed=160,
            include=("swissprot", "pdb"),
            universe=UniverseConfig(n_families=3, members_per_family=2, seed=160),
        )
    )
    sp_path = directory / "sp.dat"
    sp_path.write_text(scenario.source("swissprot").text, encoding="utf-8")
    pdb_path = directory / "pdb.txt"
    pdb_path.write_text(scenario.source("pdb").text, encoding="utf-8")
    return scenario, sp_path, pdb_path


class TestCli:
    def test_formats_command(self):
        out = io.StringIO()
        assert run(["formats"], out=out) == 0
        assert "flatfile" in out.getvalue()
        assert "fasta" in out.getvalue()

    def test_integrate_two_sources(self, source_files):
        scenario, sp_path, pdb_path = source_files
        out = io.StringIO()
        code = run(
            ["integrate", f"swissprot=flatfile:{sp_path}", f"pdb=pdb:{pdb_path}"],
            out=out,
        )
        assert code == 0
        text = out.getvalue()
        assert "integration of 'swissprot'" in text
        assert "warehouse: 2 sources" in text

    def test_search_flag(self, source_files):
        scenario, sp_path, pdb_path = source_files
        out = io.StringIO()
        code = run(
            [
                "integrate",
                f"swissprot=flatfile:{sp_path}",
                f"pdb=pdb:{pdb_path}",
                "--search",
                "kinase structure",
            ],
            out=out,
        )
        assert code == 0
        assert "search 'kinase structure':" in out.getvalue()

    def test_sql_flag(self, source_files):
        scenario, sp_path, pdb_path = source_files
        out = io.StringIO()
        code = run(
            [
                "integrate",
                f"swissprot=flatfile:{sp_path}",
                "--sql",
                "swissprot:SELECT accession FROM entry LIMIT 2",
            ],
            out=out,
        )
        assert code == 0
        assert "accession" in out.getvalue()

    def test_browse_flag(self, source_files):
        scenario, sp_path, pdb_path = source_files
        accession = next(iter(scenario.gold.sources["swissprot"].accession_to_uid))
        out = io.StringIO()
        code = run(
            [
                "integrate",
                f"swissprot=flatfile:{sp_path}",
                "--browse",
                f"swissprot:{accession}",
            ],
            out=out,
        )
        assert code == 0
        assert f"=== swissprot / {accession} ===" in out.getvalue()

    def test_missing_file_fails_cleanly(self):
        out = io.StringIO()
        assert run(["integrate", "x=flatfile:/nope/missing.dat"], out=out) == 2

    def test_bad_source_spec_rejected(self):
        with pytest.raises(SystemExit):
            run(["integrate", "not-a-spec"], out=io.StringIO())

    def test_unknown_format_rejected(self):
        with pytest.raises(SystemExit):
            run(["integrate", "x=bogus:/tmp/f"], out=io.StringIO())

    def test_browse_unknown_object(self, source_files):
        scenario, sp_path, _ = source_files
        out = io.StringIO()
        code = run(
            ["integrate", f"swissprot=flatfile:{sp_path}", "--browse", "swissprot:NOPE"],
            out=out,
        )
        assert code == 2


class TestCliPersistence:
    def test_save_then_open_without_reimport(self, source_files, tmp_path):
        scenario, sp_path, pdb_path = source_files
        snapshot = tmp_path / "warehouse.snapshot"
        out = io.StringIO()
        code = run(
            [
                "save",
                str(snapshot),
                f"swissprot=flatfile:{sp_path}",
                f"pdb=pdb:{pdb_path}",
            ],
            out=out,
        )
        assert code == 0
        assert f"snapshot written: {snapshot}" in out.getvalue()
        assert snapshot.exists()
        out = io.StringIO()
        code = run(
            [
                "open",
                str(snapshot),
                "--search",
                "kinase",
                "--sql",
                "swissprot:SELECT accession FROM entry LIMIT 2",
            ],
            out=out,
        )
        assert code == 0
        text = out.getvalue()
        assert "warehouse (warm-start): 2 sources" in text
        assert "search 'kinase':" in text
        assert "accession" in text

    def test_save_to_unwritable_path_fails_cleanly(self, source_files, tmp_path):
        scenario, sp_path, _ = source_files
        out = io.StringIO()
        code = run(
            [
                "save",
                str(tmp_path / "no" / "such" / "dir" / "x.snapshot"),
                f"swissprot=flatfile:{sp_path}",
            ],
            out=out,
        )
        assert code == 2
        assert "error:" in out.getvalue()

    def test_open_missing_snapshot_fails_cleanly(self, tmp_path):
        out = io.StringIO()
        assert run(["open", str(tmp_path / "none.snapshot")], out=out) == 2
        assert "does not exist" in out.getvalue()

    def test_open_corrupted_snapshot_fails_cleanly(self, tmp_path):
        path = tmp_path / "bad.snapshot"
        path.write_text("garbage")
        out = io.StringIO()
        assert run(["open", str(path)], out=out) == 2
        assert "error:" in out.getvalue()

    def test_open_read_only(self, source_files, tmp_path):
        _, sp_path, pdb_path = source_files
        snapshot = tmp_path / "ro.snapshot"
        assert run(
            [
                "save", str(snapshot),
                f"swissprot=flatfile:{sp_path}", f"pdb=pdb:{pdb_path}",
            ],
            out=io.StringIO(),
        ) == 0
        out = io.StringIO()
        code = run(["open", str(snapshot), "--read-only", "--search", "kinase"],
                   out=out)
        assert code == 0
        text = out.getvalue()
        assert "warehouse (read-only): 2 sources" in text
        assert "search 'kinase':" in text

    def test_open_eager_answers_like_lazy(self, source_files, tmp_path):
        """``--eager`` only changes when sources are faulted in."""
        _, sp_path, pdb_path = source_files
        snapshot = tmp_path / "eager.snapshot"
        assert run(
            [
                "save", str(snapshot),
                f"swissprot=flatfile:{sp_path}", f"pdb=pdb:{pdb_path}",
            ],
            out=io.StringIO(),
        ) == 0
        outputs = []
        for extra in ([], ["--eager"]):
            out = io.StringIO()
            code = run(
                [
                    "open", str(snapshot), "--read-only",
                    "--search", "kinase",
                    "--sql", "swissprot:SELECT accession FROM entry LIMIT 2",
                    *extra,
                ],
                out=out,
            )
            assert code == 0
            outputs.append(out.getvalue())
        assert "warehouse (read-only): 2 sources" in outputs[1]
        assert outputs[1] == outputs[0]

    def test_compact_subcommand(self, source_files, tmp_path):
        _, sp_path, pdb_path = source_files
        snapshot = tmp_path / "compactable.snapshot"
        assert run(
            [
                "save", str(snapshot),
                f"swissprot=flatfile:{sp_path}", f"pdb=pdb:{pdb_path}",
            ],
            out=io.StringIO(),
        ) == 0
        out = io.StringIO()
        code = run(["compact", str(snapshot)], out=out)
        assert code == 0
        assert "compacted" in out.getvalue()
        assert "sources verified" in out.getvalue()
        # The compacted snapshot still opens and serves searches.
        out = io.StringIO()
        assert run(["open", str(snapshot), "--search", "kinase"], out=out) == 0
        assert "warehouse (warm-start): 2 sources" in out.getvalue()

    def test_compact_missing_snapshot_fails_cleanly(self, tmp_path):
        out = io.StringIO()
        assert run(["compact", str(tmp_path / "none.snapshot")], out=out) == 2
        assert "error:" in out.getvalue()

    def test_stats_search_decodes_no_source(self, tmp_path):
        """Right after ``save``, a search hydrates and decodes nothing, in
        every later session: the saved snapshot carries its index."""
        scenario = build_scenario(
            ScenarioConfig(
                seed=7,
                include=("swissprot", "pdb"),
                universe=UniverseConfig(n_families=3, members_per_family=2, seed=7),
            )
        )
        sp_path = tmp_path / "sp.dat"
        sp_path.write_text(scenario.source("swissprot").text, encoding="utf-8")
        pdb_path = tmp_path / "pdb.txt"
        pdb_path.write_text(scenario.source("pdb").text, encoding="utf-8")
        snapshot = tmp_path / "stats.snapshot"
        assert run(
            [
                "save", str(snapshot),
                f"swissprot=flatfile:{sp_path}", f"pdb=pdb:{pdb_path}",
            ],
            out=io.StringIO(),
        ) == 0
        for _session in range(2):
            out = io.StringIO()
            assert run(["stats", str(snapshot), "--search", "kinase"], out=out) == 0
            text = out.getvalue()
            assert "0/2 sources hydrated (none); 0/2 sources decoded (none)" in text
            assert "index from snapshot" in text


class TestCliTelemetryExport:
    def test_export_round_trip(self, source_files, tmp_path, monkeypatch):
        """``REPRO_OBS_EXPORT`` collects the write lifecycle of a save and a
        later maintenance session; ``metrics --export`` the read session."""
        _, sp_path, pdb_path = source_files
        snapshot = tmp_path / "obs.snapshot"
        export = tmp_path / "obs.jsonl"
        read_export = tmp_path / "obs_read.jsonl"
        monkeypatch.delenv("REPRO_OBS", raising=False)
        monkeypatch.setenv("REPRO_OBS_EXPORT", str(export))
        assert run(
            [
                "save", str(snapshot),
                f"swissprot=flatfile:{sp_path}", f"pdb=pdb:{pdb_path}",
            ],
            out=io.StringIO(),
        ) == 0
        # A maintenance call against the attached store emits the
        # checkpoint.committed leg of the lifecycle into the export.
        aladin = Aladin.open(snapshot)
        try:
            aladin.update_source("swissprot", sp_path.read_text(encoding="utf-8"))
        finally:
            aladin.close()
        monkeypatch.delenv("REPRO_OBS_EXPORT")
        assert run(
            [
                "metrics", str(snapshot), "--search", "kinase",
                "--events", "--export", str(read_export),
            ],
            out=io.StringIO(),
        ) == 0

        lines = [json.loads(line) for line in export.read_text().splitlines()]
        kinds = [line["kind"] for line in lines if line["type"] == "event"]
        assert "source.added" in kinds, kinds
        assert "checkpoint.committed" in kinds, kinds
        assert "source.updated" in kinds, kinds
        assert lines[-1]["type"] == "metrics", lines[-1]
        read = [json.loads(line) for line in read_export.read_text().splitlines()]
        assert any(line["type"] == "event" for line in read), read
