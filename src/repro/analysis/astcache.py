"""Single-parse AST cache shared by the static-analysis tools.

``vet`` runs the per-module rules and the program model over one parse
of each file, and ``lockgraph`` and ``sanitize`` build the same model;
a process that runs more than one of them (the test suite does) reads
and ``ast.parse``s each file once.  The cache keys on
``(mtime_ns, size)`` so an editor save invalidates exactly the file it
touched, and one process-wide instance is enough: the tools run in the
same interpreter, and the analyses only ever *read* the trees.

Parse failures are cached too (as the :class:`SyntaxError`), so a broken
file costs one parse attempt per invocation rather than one per tool.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass
from typing import Dict, Optional, Tuple


@dataclass
class ParsedModule:
    """One source file, read and parsed exactly once."""

    path: str
    source: str
    tree: Optional[ast.Module]
    error: Optional[SyntaxError]

    @property
    def ok(self) -> bool:
        return self.tree is not None


#: path -> ((mtime_ns, size), parsed module)
_CACHE: Dict[str, Tuple[Tuple[int, int], ParsedModule]] = {}
#: observability counters, asserted on by the cache tests
STATS = {"hits": 0, "parses": 0}


def parse_source(source: str, path: str = "<string>") -> ParsedModule:
    """Parse source text (uncached — there is no file to key on)."""
    STATS["parses"] += 1
    try:
        return ParsedModule(path, source, ast.parse(source, filename=path),
                            None)
    except SyntaxError as exc:
        return ParsedModule(path, source, None, exc)


def parse_module(path: str) -> ParsedModule:
    """Read and parse ``path``, memoized on ``(mtime_ns, size)``."""
    stat = os.stat(path)
    key = (stat.st_mtime_ns, stat.st_size)
    cached = _CACHE.get(path)
    if cached is not None and cached[0] == key:
        STATS["hits"] += 1
        return cached[1]
    with open(path, encoding="utf-8") as handle:
        parsed = parse_source(handle.read(), path)
    _CACHE[path] = (key, parsed)
    return parsed


def clear() -> None:
    """Drop the cache (tests; long-lived sessions editing sources)."""
    _CACHE.clear()
    STATS["hits"] = STATS["parses"] = 0
