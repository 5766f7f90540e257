"""Correctness gate: every command run and every verify check is one
operation, and each operation either matches the reference or fails.

The reference (reference.json) was captured from the seed commit at
seed 0.  Verify check statuses do not depend on U, so they are compared
at every seed.  At seed 0 the eggbox DOT must match its SHA-256 byte
for byte; at other seeds only the U-independent parts are compared: the
cluster labels and the number of starred (idempotent) cells.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field

_STATUS_LINE = re.compile(r"^(PASS|FAIL|SKIP)\s+(\S+)")
_CLUSTER_LABEL = re.compile(r'^\s*label="(codim [^"]*)";', re.M)
_CELL_LABEL = re.compile(r'^\s*h\S+ \[label="\d+(\**)"\];', re.M)


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)


def stdout_statuses(stdout: str) -> dict[str, str]:
    return {m.group(2): m.group(1).lower() for m in map(_STATUS_LINE.match, stdout.splitlines()) if m}


def gate_verify(tally: Tally, name: str, rc, stdout: str, out_text: str | None,
                expected: dict[str, str], enum_cap: int, rank_cap: int) -> dict | None:
    """Gate one verify run; returns its parsed --out JSON when readable.

    The command fails on a nonzero exit, an unreadable report, a cap
    other than the one requested, any FAIL line, or stdout and JSON
    disagreeing.  Each check fails when its status differs from the
    reference or is missing.
    """
    problem = None if rc == 0 else f"exit status {rc}"
    report = None
    try:
        report = json.loads(out_text or "")
    except ValueError:
        problem = problem or "unreadable --out JSON"
    statuses: dict[str, str] = {}
    if report is not None:
        try:
            statuses = {c["name"]: c["status"] for c in report["checks"]}
            used = (report["instance"]["enum_cap"], report["instance"]["rank_cap"])
        except (KeyError, TypeError):
            problem, report, statuses = problem or "malformed --out JSON", None, {}
        else:
            printed = stdout_statuses(stdout)
            faults = (
                (used != (enum_cap, rank_cap), f"caps used {used} differ from requested {(enum_cap, rank_cap)}"),
                ("fail" in printed.values(), "FAIL line on stdout"),
                (printed != statuses, "stdout statuses differ from --out JSON"),
            )
            problem = problem or next((what for bad, what in faults if bad), None)
    tally.record(problem is None, f"{name}: {problem}")
    for check, want in expected.items():
        got = statuses.get(check)
        tally.record(got == want, f"{name}.{check}: status {got}, reference {want}")
    return report


def dot_summary(dot: str) -> dict:
    """The U-independent parts of an eggbox DOT file: cluster labels, and
    how many cells are starred (idempotent) and double-starred (minimal)."""
    stars = _CELL_LABEL.findall(dot)
    return {
        "cluster_labels": _CLUSTER_LABEL.findall(dot),
        "starred_cells": sum(1 for s in stars if s),
        "double_starred_cells": sum(1 for s in stars if len(s) > 1),
    }


def gate_eggbox(tally: Tally, name: str, rc, dot: bytes | None, expected: dict, seed: int) -> None:
    if rc != 0 or dot is None:
        problem = f"exit status {rc}"
    elif seed == 0 and hashlib.sha256(dot).hexdigest() != expected["sha256"]:
        problem = "DOT differs from the seed-0 reference"
    else:
        summary = dot_summary(dot.decode("utf-8", errors="replace"))
        ok = summary == {k: expected[k] for k in summary}
        problem = None if ok else f"DOT summary {summary} differs from the reference"
    tally.record(problem is None, f"{name}: {problem}")
