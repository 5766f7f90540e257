"""Mutants of the verify checks: does each condition in them matter?

Run from the repository root:

    python tests/mutate_checks.py
    python tests/mutate_checks.py --functions _check_factorizations gl_restriction._Batch.sigma

It copies src/, tests/ and configs/ into a fresh temporary directory.
Then, one mutant at a time, it changes one operator inside the named
functions in that copy and runs `pytest -x -q` on TESTS against it, for
at most TIMEOUT_S seconds.  A bare name is a top-level function of
src/glsemi/cli.py; module.function and module.Class.method name one in
any module of src/glsemi.  A comparison moves to its neighbour (== and
!=, is and is not, in and not in, < and <=, > and >=), a boolean `and`
becomes `or` and back, and so does an array one, `&` and `|`, and `+`
becomes `-` and back, `+=` and `-=` too.  An integer constant c becomes
c + 1 and c - 1, and a slice bound b that is no constant becomes b + 1
and b - 1 (a constant bound is the constant's).  A mutant that no test
fails survives.
The number of mutants is printed first, each mutant's verdict as it
finishes, then the counts and the survivors.

The mutated function is rewritten with ast.unparse and spliced back in
place of its own lines, indented as they were, so the rest of the module
keeps its text.  A first run with every function unparsed but unchanged
must pass, or the run stops.  pytest does not collect this file (its
name does not start with test_), and it uses the standard library only.
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
import textwrap
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = "src/glsemi"
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
    ast.Add: ast.Sub, ast.Sub: ast.Add,
}
SYMBOLS = {
    ast.Eq: "==", ast.NotEq: "!=", ast.Is: "is", ast.IsNot: "is not", ast.In: "in",
    ast.NotIn: "not in", ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=",
    ast.And: "and", ast.Or: "or", ast.BitAnd: "&", ast.BitOr: "|", ast.Add: "+", ast.Sub: "-",
}
STEPS = (1, -1)


def sites(func: ast.FunctionDef):
    """(walk position, change, node) for every site of func that a mutant
    moves, in source order.  change is the op index of a Compare, None
    for the op of a BoolOp, BinOp or AugAssign, a step of STEPS for an
    integer constant, and (bound, step) for a Slice's bound that is no
    constant."""
    found = []
    for pos, node in enumerate(ast.walk(func)):
        if isinstance(node, ast.Compare):
            found += [(pos, i, node) for i, op in enumerate(node.ops) if type(op) in SWAPS]
        elif isinstance(node, (ast.BoolOp, ast.BinOp, ast.AugAssign)) and type(node.op) in SWAPS:
            found.append((pos, None, node))
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            found += [(pos, step, node) for step in STEPS]
        elif isinstance(node, ast.Slice):
            bounds = [b for b in ("lower", "upper") if not isinstance(getattr(node, b), (ast.Constant, type(None)))]
            found += [(pos, (b, step), node) for b in bounds for step in STEPS]
    return sorted(found, key=lambda site: (site[2].lineno, site[2].col_offset))


def mutated(func: ast.FunctionDef, pos: int, change) -> tuple[str, str]:
    """(source of func with the site at walk position pos changed, what changed)."""
    twin = copy.deepcopy(func)
    node = list(ast.walk(twin))[pos]
    if isinstance(node, ast.Constant):
        old, node.value = node.value, node.value + change
        return ast.unparse(twin), f"{old} -> {node.value}"
    if isinstance(node, ast.Slice):
        bound, step = change
        old = getattr(node, bound)
        setattr(node, bound, ast.BinOp(old, ast.Add() if step > 0 else ast.Sub(), ast.Constant(1)))
        return ast.unparse(twin), f"{ast.unparse(old)} -> {ast.unparse(getattr(node, bound))}"
    old = node.op if change is None else node.ops[change]
    new = SWAPS[type(old)]()
    if change is None:
        node.op = new
    else:
        node.ops[change] = new
    return ast.unparse(twin), f"{SYMBOLS[type(old)]} -> {SYMBOLS[type(new)]}"


def find(name: str) -> tuple[str, ast.FunctionDef | None]:
    """(module path, def) that name names: a bare name in cli.py,
    module.function or module.Class.method; the def is None when the
    module holds no such function."""
    module, path = name.split(".", 1) if "." in name else ("cli", name)
    source = ROOT / PACKAGE / f"{module}.py"
    node = ast.parse(source.read_text()) if source.is_file() else None
    for part in path.split("."):
        node = next((d for d in getattr(node, "body", ()) if isinstance(d, (ast.ClassDef, ast.FunctionDef)) and d.name == part), None)
    return f"{PACKAGE}/{module}.py", node if isinstance(node, ast.FunctionDef) else None


def splice(text: str, func: ast.FunctionDef, body: str) -> str:
    # The module's text with func's lines, decorators included, replaced by
    # body, indented as func is.
    lines = text.splitlines(keepends=True)
    start = min([func.lineno, *(d.lineno for d in func.decorator_list)])
    return "".join(lines[: start - 1]) + textwrap.indent(body, " " * func.col_offset) + "\n" + "".join(lines[func.end_lineno :])


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
    parser.add_argument("--functions", nargs="+", default=list(FUNCTIONS), help="functions to mutate: name, module.name or module.Class.name")
    args = parser.parse_args(argv)

    found = {name: find(name) for name in args.functions}
    missing = [name for name, (_, func) in found.items() if func is None]
    if missing:
        parser.error(f"no function {', '.join(missing)} in {PACKAGE}")
    # Per module, its chosen (name, def) bottom-up, so splicing one function
    # leaves the line numbers of those above it.
    chosen = {}
    for name, (path, func) in sorted(found.items(), key=lambda item: -item[1][1].lineno):
        chosen.setdefault(path, []).append((name, func))
    texts = {path: (ROOT / path).read_text() for path in chosen}
    unparsed = {name: ast.unparse(func) for name, (_, func) in found.items()}

    def module(path, bodies):
        # The module's text with each chosen function in it replaced by bodies[name].
        out = texts[path]
        for name, func in chosen[path]:
            out = splice(out, func, bodies[name])
        return out

    mutants, seen = [], {}  # (label, module path, module source); seen: sites per line
    for name, (path, func) in found.items():
        for pos, change, node in sites(func):
            body, label = mutated(func, pos, change)
            seen[path, node.lineno] = nth = seen.get((path, node.lineno), 0) + 1
            mutants.append((f"{name}:{node.lineno}.{nth} {label}", path, module(path, {**unparsed, name: body})))
    print(f"{len(mutants)} mutants", flush=True)

    work = pathlib.Path(tempfile.mkdtemp(prefix="mutate-"))
    try:
        for part in ("src", "tests", "configs"):
            shutil.copytree(ROOT / part, work / part, ignore=shutil.ignore_patterns("__pycache__"))
        for path in texts:
            (work / path).write_text(module(path, unparsed))
        if run_tests(work) != "pass":
            print("the unmutated copy fails its tests; no mutant was run", file=sys.stderr)
            return 2
        survivors, tally = [], {"killed": 0, "survived": 0, "timeout": 0}
        for label, path, source in mutants:
            (work / path).write_text(source)  # every other chosen function unparsed, as in the first run
            start = time.perf_counter()
            verdict = {"fail": "killed", "pass": "survived", "timeout": "timeout"}[run_tests(work)]
            (work / path).write_text(module(path, unparsed))
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
