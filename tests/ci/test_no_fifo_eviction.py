"""Guard: no cache under ``src/`` evicts by deleting a dict's first entry.

``cache.pop(next(iter(cache)))`` and ``del cache[next(iter(cache))]`` look
O(1) but are not: a dict leaves a deleted slot behind at the front of its
entry table, and finding the first live entry walks every one of them
until the next resize.  Once a hot cache is full, each eviction pays for
that walk, which made key-space hashing on a wide key space several
times slower than it needs to be.  Memos of derivable values reset when
full (``cache.clear()``); an order that matters gets an explicit cursor
(``KeyDictionary._evict_at``).
"""

from __future__ import annotations

import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

EVICTION_IDIOMS = re.compile(r"\.pop\(\s*next\(\s*iter\(|\bdel\s+[^\n]*\[\s*next\(\s*iter\(")


def _offenders(text: str) -> list[str]:
    return [line.strip() for line in text.splitlines() if EVICTION_IDIOMS.search(line)]


def test_pattern_catches_both_idioms():
    assert _offenders("cache.pop(next(iter(cache)))")
    assert _offenders("    del self._forward[next(iter(self._forward))]")
    assert not _offenders("victim = next(iter(bucket.keys))")
    assert not _offenders("cache.clear()")


def test_src_has_no_first_entry_eviction():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        found += [f"{path.relative_to(SRC)}: {line}" for line in _offenders(path.read_text())]
    assert not found, "first-entry dict eviction (O(n) once full):\n" + "\n".join(found)
