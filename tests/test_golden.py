"""The library's exact output against ``golden.json``: every run row, every
instrument event, every sampler validation check and the samplers' draws.

A failure names the first entry that differs, and says when this host's numpy
version or CPU vector extensions differ from those that recorded the file.
``record_golden.py`` re-records it; only a change that alters output on
purpose does, and CHANGES.md lists the entries that moved.
"""

from __future__ import annotations

import json

import pytest
import record_golden

GOLDEN = json.loads(record_golden.GOLDEN.read_text())


def _host_note() -> str:
    here = record_golden.host()
    if here == GOLDEN["host"]:
        return ""
    return f" (recorded with numpy {GOLDEN['host']['numpy']} and {GOLDEN['host']['cpu_flags']}; this host has numpy {here['numpy']} and {here['cpu_flags']})"


def _first_difference(recorded, computed, path: str = ""):
    """The path and both values of the first entry, in computed order, that differs."""
    if isinstance(recorded, dict) and isinstance(computed, dict):
        for key in [*computed, *(key for key in recorded if key not in computed)]:
            found = _first_difference(recorded.get(key), computed.get(key), f"{path} / {key}")
            if found:
                return found
        return None
    if isinstance(recorded, list) and isinstance(computed, list) and len(recorded) == len(computed):
        for index, (old, new) in enumerate(zip(recorded, computed)):
            found = _first_difference(old, new, f"{path} [{index}]")
            if found:
                return found
        return None
    return None if recorded == computed else (path, recorded, computed)


@pytest.mark.parametrize("section", list(record_golden.SECTIONS))
def test_output_matches_the_golden_digests(section):
    computed = record_golden.SECTIONS[section]()
    found = _first_difference(GOLDEN[section], computed)
    if found is not None:
        path, recorded, now = found
        if "/ blocks [" in path:
            block = int(path.rpartition("[")[2].rstrip("]"))
            start = block * record_golden.EVENT_BLOCK
            path += f" (events {start}-{start + record_golden.EVENT_BLOCK - 1})"
        pytest.fail(f"{section}{path}: recorded {recorded!r}, computed {now!r}{_host_note()}")
