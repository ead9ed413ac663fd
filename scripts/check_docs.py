#!/usr/bin/env python
"""Execute the runnable snippets in README.md and docs/*.md — docs can't rot.

Every fenced code block whose info string is exactly ``bash`` or ``python``
is executed; blocks tagged anything else (``console``, ``text``, ``json``,
...) are prose.  Blocks run in file order, all files sharing one scratch
working directory that contains a symlink to the repository's ``examples/``
tree — so the documented commands run verbatim against the bundled
``examples/data/example-social.txt``, artifacts a snippet writes (e.g.
``social.rcsr``) are visible to later snippets, and nothing touches the
checkout or the user's real caches (``REPRO_GRAPH_CACHE`` /
``REPRO_RESULT_CACHE`` point into the scratch directory).

Usage::

    python scripts/check_docs.py [README.md docs/serving.md ...]

With no arguments, checks ``README.md`` and every ``docs/*.md``.  Exits
non-zero on the first failing snippet, printing the file, the line of the
opening fence, the snippet and its output.

Prose that describes code without running it carries a staleness marker,
``<!-- staleness-marker: pkg.module.name ... -->``; every dotted name in one
must still import, so renaming or deleting what a paragraph is about fails
the check until the paragraph is revisited.
"""

from __future__ import annotations

import os
import pkgutil
import re
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import List

REPO_ROOT = Path(__file__).resolve().parent.parent

RUNNERS = {
    "bash": ["bash", "-euo", "pipefail", "-c"],
    "python": [sys.executable, "-c"],
}

_FENCE_RE = re.compile(r"^(`{3,})([^`]*)$")
_MARKER_RE = re.compile(r"<!--\s*staleness-marker:(.*?)-->", re.DOTALL)

#: Per-snippet wall-clock budget; a doc snippet that needs more than this is
#: a benchmark, not documentation.
TIMEOUT_SECONDS = 300


@dataclass
class Snippet:
    source: Path
    line: int
    language: str
    code: str

    @property
    def label(self) -> str:
        return f"{self.source}:{self.line} [{self.language}]"


def extract_snippets(path: Path) -> List[Snippet]:
    """The runnable fenced blocks of one markdown file, in order."""
    snippets: List[Snippet] = []
    fence = None  # (backticks, language, start_line, lines)
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        match = _FENCE_RE.match(raw.strip())
        if fence is None:
            if match:
                fence = (match.group(1), match.group(2).strip(), lineno, [])
            continue
        backticks, language, start, lines = fence
        if match and match.group(1) == backticks and not match.group(2).strip():
            if language in RUNNERS:
                snippets.append(Snippet(path, start, language, "\n".join(lines) + "\n"))
            fence = None
        else:
            lines.append(raw)
    if fence is not None:
        raise SystemExit(f"{path}:{fence[2]}: unclosed code fence")
    return snippets


def resolves(dotted: str) -> bool:
    """Whether ``pkg.module.attr`` still names something importable."""
    try:
        pkgutil.resolve_name(dotted)
    except (ImportError, AttributeError):
        return False
    return True


def stale_markers(path: Path) -> List[str]:
    """The names in ``path``'s staleness markers that no longer resolve."""
    names = [n for body in _MARKER_RE.findall(path.read_text()) for n in body.split()]
    return [name for name in names if not resolves(name)]


def run_snippet(snippet: Snippet, cwd: Path, env: dict) -> subprocess.CompletedProcess:
    command = [*RUNNERS[snippet.language], snippet.code]
    return subprocess.run(
        command,
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=TIMEOUT_SECONDS,
    )


def main(argv: List[str]) -> int:
    if len(argv) > 1:
        files = [Path(arg) for arg in argv[1:]]
    else:
        files = [REPO_ROOT / "README.md", *sorted((REPO_ROOT / "docs").glob("*.md"))]
    missing = [f for f in files if not f.is_file()]
    if missing:
        print(f"error: no such file(s): {', '.join(map(str, missing))}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(REPO_ROOT / "src"))
    stale = [(f, name) for f in files for name in stale_markers(f)]
    for source, name in stale:
        print(f"FAIL {source}: staleness-marker {name} no longer resolves")
    if stale:
        return 1

    snippets = [s for f in files for s in extract_snippets(f)]
    if not snippets:
        print("no runnable snippets found")
        return 0

    with tempfile.TemporaryDirectory(prefix="repro-docs-") as scratch:
        scratch_path = Path(scratch)
        (scratch_path / "examples").symlink_to(REPO_ROOT / "examples")
        env = dict(os.environ)
        src = str(REPO_ROOT / "src")
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        env["REPRO_GRAPH_CACHE"] = str(scratch_path / "graph-cache")
        env["REPRO_RESULT_CACHE"] = str(scratch_path / "result-cache")

        failures = 0
        for snippet in snippets:
            try:
                proc = run_snippet(snippet, scratch_path, env)
            except subprocess.TimeoutExpired:
                print(f"FAIL {snippet.label}: timed out after {TIMEOUT_SECONDS}s")
                failures += 1
                continue
            if proc.returncode != 0:
                failures += 1
                print(f"FAIL {snippet.label} (exit {proc.returncode})")
                print("  | " + snippet.code.rstrip().replace("\n", "\n  | "))
                output = (proc.stdout + proc.stderr).strip()
                if output:
                    print("  > " + output.replace("\n", "\n  > "))
            else:
                print(f"ok   {snippet.label}")
        print(f"{len(snippets) - failures}/{len(snippets)} snippets passed")
        return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
