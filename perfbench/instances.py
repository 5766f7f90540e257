"""Seeded instance files for the benchmark workloads.

Seed 0 reproduces the shipped instances: the `configs/*.cfg` files
verbatim, and the standard U (span of the first r unit vectors) for the
stretch instances.  Seed k > 0 redraws every instance's U, in workload
order, from `random.Random(k)` and writes it as `u_basis`.  The program
under test only ever sees the files written here.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Spec:
    """One instance of a workload: where its file is and what it holds."""

    name: str
    path: str


def parse_cfg(text: str) -> dict:
    """The p, n, r and u_basis rows of a flat key = value instance file."""
    values = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            key, _, val = line.partition("=")
            values[key.strip().lower()] = val.strip()
    p, n, r = (int(values[k]) for k in ("p", "n", "r"))
    rows = None
    if values.get("u_basis"):
        rows = tuple(
            tuple(int(x) for x in (tok.split(",") if "," in tok else tok))
            for tok in values["u_basis"].split()
        )
    return {"p": p, "n": n, "r": r, "u_rows": rows}


def rank_mod_p(rows, p: int) -> int:
    """Rank over GF(p) by plain Gaussian elimination."""
    work = [list(row) for row in rows]
    rank = 0
    width = len(work[0]) if work else 0
    for col in range(width):
        pivot = next((i for i in range(rank, len(work)) if work[i][col] % p), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        inv = pow(work[rank][col], -1, p)
        work[rank] = [x * inv % p for x in work[rank]]
        for i in range(len(work)):
            if i != rank and work[i][col] % p:
                c = work[i][col]
                work[i] = [(x - c * y) % p for x, y in zip(work[i], work[rank])]
        rank += 1
    return rank


def random_u(rng: random.Random, p: int, n: int, r: int) -> tuple:
    """r rows of GF(p)^n drawn until they are linearly independent."""
    while True:
        rows = tuple(tuple(rng.randrange(p) for _ in range(n)) for _ in range(r))
        if rank_mod_p(rows, p) == r:
            return rows


def format_cfg(p: int, n: int, r: int, u_rows) -> str:
    lines = [f"p = {p}", f"n = {n}", f"r = {r}"]
    if u_rows:
        sep = "" if p <= 10 else ","
        lines.append("u_basis = " + " ".join(sep.join(str(x) for x in row) for row in u_rows))
    return "\n".join(lines) + "\n"


def generate(sources, seed: int, out_dir: str) -> list[Spec]:
    """Write one instance file per source into out_dir.

    Each source is (name, shipped_text) for a shipped config, or
    (name, (p, n, r)) for an instance with the standard U.
    """
    if seed < 0:
        raise ValueError("seed must be non-negative")
    rng = random.Random(seed)
    specs = []
    for name, source in sources:
        if isinstance(source, str):
            fields = parse_cfg(source)
            p, n, r = fields["p"], fields["n"], fields["r"]
            text = source
        else:
            p, n, r = source
            text = format_cfg(p, n, r, None)
        if seed:
            text = format_cfg(p, n, r, random_u(rng, p, n, r))
        path = os.path.join(out_dir, f"{name}.cfg")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        specs.append(Spec(name, path))
    return specs
