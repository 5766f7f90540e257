"""Mutants of the verify checks: does each condition in them matter?

Run from the repository root:

    python tests/mutate_checks.py
    python tests/mutate_checks.py --functions _check_factorizations

It copies src/, tests/ and configs/ into a fresh temporary directory.
Then, one mutant at a time, it changes one operator inside the named
top-level functions of src/glsemi/cli.py in that copy and runs
`pytest -x -q` on TESTS against it, for at most TIMEOUT_S seconds.  A
comparison moves to its neighbour (== and !=, is and is not, in and not
in, < and <=, > and >=), a boolean `and` becomes `or` and back, and so
does an array one, `&` and `|`.  A mutant that no test fails survives.
The number of mutants is printed first, each mutant's verdict as it
finishes, then the counts and the survivors.

The mutated function is rewritten with ast.unparse and spliced back in
place of its own lines, so the rest of the module keeps its text.  A
first run with every function unparsed but unchanged must pass, or the
run stops.  pytest does not collect this file (its name does not start
with test_), and it uses the standard library only.
"""

from __future__ import annotations

import argparse
import ast
import copy
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODULE = "src/glsemi/cli.py"
TIMEOUT_S = 900.0
FUNCTIONS = ("_check_ideal_structure", "_check_factorizations")
TESTS = ("tests/test_cli.py", "tests/test_golden.py", "tests/test_acceptance.py")
SWAPS = {
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq,
    ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.In: ast.NotIn, ast.NotIn: ast.In,
    ast.Lt: ast.LtE, ast.LtE: ast.Lt,
    ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.And: ast.Or, ast.Or: ast.And,
    ast.BitAnd: ast.BitOr, ast.BitOr: ast.BitAnd,
}
SYMBOLS = {
    ast.Eq: "==", ast.NotEq: "!=", ast.Is: "is", ast.IsNot: "is not", ast.In: "in",
    ast.NotIn: "not in", ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=",
    ast.And: "and", ast.Or: "or", ast.BitAnd: "&", ast.BitOr: "|",
}


def sites(func: ast.FunctionDef):
    """(walk position, op index, node) for every operator of func that
    SWAPS moves, in source order; the op index is None for a BoolOp or
    a BinOp."""
    found = []
    for pos, node in enumerate(ast.walk(func)):
        if isinstance(node, ast.Compare):
            found += [(pos, i, node) for i, op in enumerate(node.ops) if type(op) in SWAPS]
        elif isinstance(node, (ast.BoolOp, ast.BinOp)) and type(node.op) in SWAPS:
            found.append((pos, None, node))
    return sorted(found, key=lambda site: (site[2].lineno, site[2].col_offset, site[1] or 0))


def mutated(func: ast.FunctionDef, pos: int, i: int | None) -> tuple[str, str]:
    """(source of func with the site at walk position pos changed, what changed)."""
    twin = copy.deepcopy(func)
    node = list(ast.walk(twin))[pos]
    old = node.op if i is None else node.ops[i]
    new = SWAPS[type(old)]()
    if i is None:
        node.op = new
    else:
        node.ops[i] = new
    return ast.unparse(twin), f"{SYMBOLS[type(old)]} -> {SYMBOLS[type(new)]}"


def splice(text: str, func: ast.FunctionDef, body: str) -> str:
    # The module's text with func's lines replaced by body (a top-level def).
    lines = text.splitlines(keepends=True)
    return "".join(lines[: func.lineno - 1]) + body + "\n" + "".join(lines[func.end_lineno :])


def run_tests(work: pathlib.Path) -> str:
    """'pass', 'fail' or 'timeout' for pytest -x on the copy."""
    env = {**os.environ, "PYTHONPATH": str(work / "src")}
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *TESTS]
    try:
        done = subprocess.run(cmd, cwd=work, env=env, capture_output=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "timeout"
    return "pass" if done.returncode == 0 else "fail"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--functions", nargs="+", default=list(FUNCTIONS), help="top-level functions to mutate")
    args = parser.parse_args(argv)

    text = (ROOT / MODULE).read_text()
    funcs = {node.name: node for node in ast.parse(text).body if isinstance(node, ast.FunctionDef)}
    missing = [name for name in args.functions if name not in funcs]
    if missing:
        parser.error(f"no top-level function {', '.join(missing)} in {MODULE}")
    # Bottom-up, so splicing one function leaves the line numbers of those above it.
    chosen = sorted((funcs[name] for name in args.functions), key=lambda f: f.lineno, reverse=True)
    unparsed = {func.name: ast.unparse(func) for func in chosen}

    def module(bodies):
        # The module's text with each chosen function replaced by bodies[name].
        out = text
        for func in chosen:
            out = splice(out, func, bodies[func.name])
        return out

    mutants, seen = [], {}  # (label, module source); seen: sites per line
    for func in reversed(chosen):
        for pos, i, node in sites(func):
            body, change = mutated(func, pos, i)
            seen[node.lineno] = nth = seen.get(node.lineno, 0) + 1
            mutants.append((f"{func.name}:{node.lineno}.{nth} {change}", module({**unparsed, func.name: body})))
    print(f"{len(mutants)} mutants", flush=True)

    work = pathlib.Path(tempfile.mkdtemp(prefix="mutate-"))
    try:
        for part in ("src", "tests", "configs"):
            shutil.copytree(ROOT / part, work / part, ignore=shutil.ignore_patterns("__pycache__"))
        target = work / MODULE
        target.write_text(module(unparsed))
        if run_tests(work) != "pass":
            print("the unmutated copy fails its tests; no mutant was run", file=sys.stderr)
            return 2
        survivors, tally = [], {"killed": 0, "survived": 0, "timeout": 0}
        for label, source in mutants:
            target.write_text(source)  # every other chosen function unparsed, as in the first run
            start = time.perf_counter()
            verdict = {"fail": "killed", "pass": "survived", "timeout": "timeout"}[run_tests(work)]
            tally[verdict] += 1
            if verdict == "survived":
                survivors.append(label)
            print(f"{verdict:8s} {label} [{time.perf_counter() - start:.0f}s]", flush=True)
        print(f"{len(mutants)} mutants: {tally['killed']} killed, {tally['survived']} survived, {tally['timeout']} timed out")
        for label in survivors:
            print(f"survivor: {label}")
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
