"""The BENCH_*.json files at the repository root are before/after
trajectories: each is a list of entries, one per measured change, and each
entry names the machine it ran on and the parent commit it was measured
against."""

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def test_bench_files_are_lists_of_entries_with_machine_and_parent():
    assert BENCH_FILES
    for path in BENCH_FILES:
        entries = json.loads(path.read_text())
        assert isinstance(entries, list) and entries, path.name
        for entry in entries:
            assert isinstance(entry.get("machine"), dict) and entry["machine"], path.name
            assert isinstance(entry.get("parent"), dict) and entry["parent"].get("git_sha"), path.name
