"""The lint baseline: grandfathered findings that do not fail CI.

A baseline entry names a finding by *fingerprint* (rule + file +
normalized offending line — see :class:`~repro.analysis.model.Finding`)
and carries a written justification.  Matching by fingerprint rather
than line number means unrelated edits never invalidate the baseline,
while any change to the offending line itself un-baselines the finding
— exactly the moment a human should re-decide whether it is still
justified.

The file is deterministic JSON (sorted entries, sorted keys) so diffs
review cleanly; stale entries (fingerprints that matched nothing this
run) are reported so the baseline shrinks instead of fossilizing.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Sequence, Tuple

BASELINE_VERSION = 1

#: Default baseline file name, looked up in the working directory.
DEFAULT_BASELINE = "analysis-baseline.json"


class BaselineError(ValueError):
    """The baseline file is malformed."""


class Baseline:
    """Fingerprint -> justification map with split/merge helpers."""

    def __init__(self, entries: Dict[str, Dict[str, Any]] = None):
        #: fingerprint -> {"rule", "path", "justification"}
        self.entries: Dict[str, Dict[str, Any]] = dict(entries or {})

    def __len__(self) -> int:
        return len(self.entries)

    @classmethod
    def load(cls, path: str) -> "Baseline":
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        if (
            not isinstance(payload, dict)
            or payload.get("version") != BASELINE_VERSION
            or not isinstance(payload.get("entries"), list)
        ):
            raise BaselineError(
                f"{path}: not a version-{BASELINE_VERSION} lint baseline"
            )
        entries: Dict[str, Dict[str, Any]] = {}
        for entry in payload["entries"]:
            if not isinstance(entry, dict) or "fingerprint" not in entry:
                raise BaselineError(f"{path}: malformed baseline entry {entry!r}")
            if not str(entry.get("justification", "")).strip():
                raise BaselineError(
                    f"{path}: baseline entry {entry['fingerprint']} needs a "
                    "written justification"
                )
            entries[entry["fingerprint"]] = {
                "rule": entry.get("rule", ""),
                "path": entry.get("path", ""),
                "justification": entry["justification"],
            }
        return cls(entries)

    def save(self, path: str) -> None:
        entries = [
            {
                "fingerprint": fingerprint,
                "rule": meta.get("rule", ""),
                "path": meta.get("path", ""),
                "justification": meta.get("justification", ""),
            }
            for fingerprint, meta in self.entries.items()
        ]
        entries.sort(key=lambda e: (e["path"], e["rule"], e["fingerprint"]))
        payload = {"version": BASELINE_VERSION, "entries": entries}
        with open(path, "w", encoding="utf-8") as fh:
            # repro-lint: allow[raw-json-dumps] leaf package, cannot import persist; sorted keys keep the file deterministic
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")

    def add(self, finding, justification: str) -> None:
        self.entries[finding.fingerprint] = {
            "rule": finding.rule,
            "path": finding.path,
            "justification": justification,
        }

    def split(self, findings: Sequence) -> Tuple[List, List, List[str]]:
        """Partition findings into (live, baselined) and name stale
        baseline fingerprints that matched nothing."""
        live, baselined = [], []
        matched = set()
        for finding in findings:
            if finding.fingerprint in self.entries:
                matched.add(finding.fingerprint)
                baselined.append(
                    type(finding)(
                        rule=finding.rule,
                        path=finding.path,
                        line=finding.line,
                        message=finding.message,
                        hint=finding.hint,
                        context=finding.context,
                        baselined=True,
                    )
                )
            else:
                live.append(finding)
        stale = sorted(set(self.entries) - matched)
        return live, baselined, stale
