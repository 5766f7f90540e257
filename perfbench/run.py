"""glsemi benchmark: timed CLI sweeps, a correctness gate, and a traced run.

    python3 perfbench/run.py --workload verify-grid --seed 0 --seconds 10 --trace 0

Run from the repository root.  The harness writes the workload's
instance files from --seed, then runs each command of the sweep in a
fresh child process, one at a time, so the program's caches start cold
and each child's peak RSS belongs to that command alone.  Whole sweeps
repeat until --seconds have been measured; sweep metrics are medians
over sweeps.

--trace 0 prints the end-to-end metrics:
    wall_s       time inside glsemi.cli.main, summed over the sweep
    setup_s      cold `import glsemi` + enumerate_semigroup, summed over
                 the workload's instances, each in its own process;
                 median of SETUP_REPEATS repetitions
    peak_rss_mb  largest ru_maxrss of any command process
--trace 1 runs the sweep untraced and then once traced, and prints the
per-layer metrics (see per_layer_names).  failed_ops is printed on
both, and is the `failed` / `attempted` pair of the last line, which
is one JSON object: {"correct", "attempted", "failed", "metrics"}.

Every run also writes perfbench/out/<workload>/result.json with an
environment stamp and the per-command details.  Exits 2 without a
result when the program's sources are not next to the benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy

import gate
import instances
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CONFIGS = os.path.join(ROOT, "configs")

SETUP_REPEATS = 3
RUN_DEADLINE_S = 170.0

CHECKS = (
    "order_law", "complement_count", "green_agreement", "ideal_structure",
    "minimal_idempotents", "regularity", "factorizations", "generation",
    "rank_identity", "unit_decomposition", "subgroup_isomorphisms",
    "nonnormality", "isomorphism_theorem", "j_class_count",
)


@dataclass(frozen=True)
class Workload:
    command: str
    sources: tuple  # (name, shipped config name | (p, n, r))
    cap: int
    rank_cap: int | None = None


# Why these workloads: the cost sits in a different layer for each
# command.  verify-grid is dominated by gf_linalg under the factorization
# and unit-decomposition constructors; eggbox-stretch by the member list,
# Cayley build and the semigroup_core oracles, with gf_linalg near 2%.
# Caps are passed explicitly; 2000 and 4 are the program's defaults.
WORKLOADS = {
    "verify-grid": Workload(
        "verify",
        tuple((name, name) for name in
              ("p2n2r1", "p3n2r1", "p2n3r2", "p2n3r1", "p2n3r1_shifted", "p2n4r2")),
        cap=2000,
        rank_cap=4,
    ),
    "eggbox-stretch": Workload("eggbox", (("p2n4r3", (2, 4, 3)), ("p2n4r1", (2, 4, 1))), cap=4096),
}

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

LAYER_FUNCTIONS = {
    "gf_linalg": (
        "vec_mat", "mat_mul", "rref_canonical", "image", "kernel", "extend_basis",
        "linear_map", "mat_inverse", "preimage_vector", "enumerate_complements", "is_complement",
    ),
    "gl_restriction": (
        "enumerate_semigroup", "_profiles", "green_char_partitions",
        "factor_through", "dclass_witness", "regular_witness", "raise_factor",
        "sandwich_factor", "decompose_unit", "decompose_fix_u",
        "special_subgroup", "subgroup_iso_check", "unit_group_subtable", "rank_value",
        "minimal_idempotents",
    ),
    "semigroup_core": (
        "SemigroupTable", "SemigroupTable.green", "minimal_idempotents_oracle", "idempotents",
        "verify_ideal", "principal_ideal", "closure_indices", "rank_search", "subtable",
    ),
    "isomorphism": ("decide_isomorphic",),
}
COVERAGE = {
    "cli.check.factorizations.pairs": ("factorizations", ("factored", "infeasible_rejected")),
    "cli.check.unit_decomposition.decompositions": ("unit_decomposition", ("decompositions",)),
}


def per_layer_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in reporting order."""
    out = []
    for module, functions in LAYER_FUNCTIONS.items():
        for fn in functions:
            out += [(f"{module}.{fn}.calls", "count"), (f"{module}.{fn}.self_s", "s")]
    out.append((f"{tracing.ENUMERATE}.builds", "count"))
    out += [(f"cli.check.{name}_s", "s") for name in CHECKS]
    out += [(name, "count") for name in COVERAGE]
    out += [(f"{module}.self_s", "s") for module in tracing.MODULES]
    out.append(("trace.overhead_s", "s"))
    return out


@dataclass
class Sweep:
    wall_s: float = 0.0
    peak_kb: int = 0
    layer: dict = field(default_factory=dict)
    commands: list = field(default_factory=list)


class Runner:
    def __init__(self, name: str, seed: int, work_dir: str):
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.work_dir = work_dir
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.tally = gate.Tally()
        with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as handle:
            self.reference = json.load(handle)[self.workload.command]
        self.env = dict(os.environ, PYTHONPATH=SRC)
        sources = []
        for name, source in self.workload.sources:
            if isinstance(source, str):
                with open(os.path.join(CONFIGS, f"{source}.cfg"), encoding="utf-8") as handle:
                    source = handle.read()
            sources.append((name, source))
        self.specs = instances.generate(sources, seed, work_dir)

    def _child(self, args: list[str]) -> subprocess.CompletedProcess:
        timeout = max(1.0, self.deadline - time.monotonic())
        return subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), *args],
            cwd=self.work_dir, env=self.env, capture_output=True, text=True, timeout=timeout,
        )

    def setup_s(self) -> list[float]:
        """Per repetition, the summed setup time over the instances.

        Setup children run up to nproc at a time: each one times only its
        own import and enumeration, and the timed sweeps come after.
        """
        jobs = [(rep, spec) for rep in range(SETUP_REPEATS) for spec in self.specs]

        def one(job):
            spec = job[1]
            done = self._child(["setup", spec.path, str(self.workload.cap)])
            if done.returncode != 0:
                raise RuntimeError(f"setup of {spec.name} failed:\n{done.stderr}")
            timing = json.loads(done.stdout.splitlines()[-1])
            return timing["import_s"] + timing["enumerate_s"]

        reps = [0.0] * SETUP_REPEATS
        with ThreadPoolExecutor(max_workers=nproc()) as pool:
            for (rep, _), seconds in zip(jobs, pool.map(one, jobs)):
                reps[rep] += seconds
        return reps

    def sweep(self, traced: bool, tag: str) -> Sweep:
        wl = self.workload
        out = Sweep()
        checks = dict.fromkeys(CHECKS, 0.0)
        coverage = dict.fromkeys(COVERAGE, 0)
        for spec in self.specs:
            base = os.path.join(self.work_dir, f"{tag}-{spec.name}")
            out_path = base + (".json" if wl.command == "verify" else ".dot")
            spans = base + ".npz" if traced else "-"
            argv = [wl.command, "--instance", spec.path, "--cap", str(wl.cap)]
            if wl.rank_cap is not None:
                argv += ["--rank-cap", str(wl.rank_cap)]
            argv += ["--out", out_path]
            rc, stdout = None, ""
            try:
                done = self._child(["command", base + ".result", spans, *argv])
            except subprocess.TimeoutExpired:
                done = None
            if done is not None:
                rc, stdout = done.returncode, done.stdout
                if rc == 0:
                    with open(base + ".result", encoding="utf-8") as handle:
                        result = json.load(handle)
                    rc = result["rc"]
                    out.commands.append({"instance": spec.name, **result})
                    out.wall_s += result["seconds"]
                    out.peak_kb = max(out.peak_kb, result["maxrss_kb"])
                    if traced:
                        self._add_spans(out.layer, tracing.load_summary(spans))
            produced = None
            if os.path.exists(out_path):
                with open(out_path, "rb") as handle:
                    produced = handle.read()
            ref = self.reference[spec.name]
            if wl.command == "verify":
                report = gate.gate_verify(self.tally, spec.name, rc, stdout,
                                          produced.decode(errors="replace") if produced else None,
                                          ref, wl.cap, wl.rank_cap)
                for check in (report or {}).get("checks", []):
                    checks[check["name"]] += check["seconds"]
                    for metric, (name, keys) in COVERAGE.items():
                        if check["name"] == name:
                            coverage[metric] += sum(check["counts"].get(k, 0) for k in keys)
            else:
                gate.gate_eggbox(self.tally, spec.name, rc, produced, ref, self.seed)
        if not traced:
            out.layer.update({f"cli.check.{k}_s": v for k, v in checks.items()})
            out.layer.update(coverage)
        return out

    @staticmethod
    def _add_spans(layer: dict, summary: dict) -> None:
        for name, counts in summary.items():
            slot = layer.setdefault(name, {})
            for key, value in counts.items():
                slot[key] = slot.get(key, 0) + value


def layer_metrics(untraced: dict, traced: Sweep, overhead: float) -> dict:
    spans = traced.layer
    values = {}
    for module, functions in LAYER_FUNCTIONS.items():
        for fn in functions:
            slot = spans.get(f"{module}.{fn}", {})
            values[f"{module}.{fn}.calls"] = slot.get("calls", 0)
            values[f"{module}.{fn}.self_s"] = slot.get("self_s", 0.0)
    values[f"{tracing.ENUMERATE}.builds"] = spans.get(tracing.ENUMERATE, {}).get("builds", 0)
    values.update(untraced)
    for module in tracing.MODULES:
        values[f"{module}.self_s"] = sum(
            slot["self_s"] for name, slot in spans.items() if name.split(".", 1)[0] == module
        )
    values["trace.overhead_s"] = overhead
    return values


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def environment() -> dict:
    head = "unknown"
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            path = os.path.join(git, ref)
            if os.path.exists(path):
                with open(path, encoding="utf-8") as handle:
                    head = handle.read().strip()
            else:
                with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
                    head = next((ln.split()[0] for ln in handle if ln.rstrip().endswith(" " + ref)), ref)
    except OSError:
        pass
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((ln.split(":", 1)[1].strip() for ln in handle if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "git_sha": head,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": nproc(),
        "cpu_model": cpu,
        "loadavg_1m_start": os.getloadavg()[0],
    }


def median_of(sweeps: list[Sweep], key) -> float:
    return statistics.median(key(s) for s in sweeps)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(SRC, "glsemi", "cli.py")) or not os.path.isdir(CONFIGS):
        print(f"error: glsemi sources not found under {ROOT}", file=sys.stderr)
        return 2

    env = environment()
    work_dir = os.path.join(HERE, "out", args.workload)
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    runner = Runner(args.workload, args.seed, work_dir)

    setup_reps = runner.setup_s() if args.trace == 0 else []
    sweeps = []
    started = time.perf_counter()
    while not sweeps or time.perf_counter() - started < args.seconds:
        sweeps.append(runner.sweep(traced=False, tag=f"sweep{len(sweeps)}"))
    wall = median_of(sweeps, lambda s: s.wall_s)
    if args.trace == 0:
        metrics = {
            "wall_s": wall,
            "setup_s": statistics.median(setup_reps),
            "peak_rss_mb": max(s.peak_kb for s in sweeps) / 1024.0,
        }
        units = dict(END_TO_END)
        traced = None
    else:
        traced = runner.sweep(traced=True, tag="traced")
        untraced = {k: median_of(sweeps, lambda s: s.layer[k]) for k in sweeps[0].layer}
        metrics = layer_metrics(untraced, traced, traced.wall_s - wall)
        units = dict(per_layer_names())
    env["loadavg_1m_end"] = os.getloadavg()[0]

    tally = runner.tally
    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(sweeps)} sweep(s) of {len(runner.specs)} commands")
    for name, value in metrics.items():
        print(f"{name} {value} {units[name]}")
    ratio = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"failed_ops {ratio} ({tally.failed}/{tally.attempted} operations)")
    for problem in tally.problems:
        print(f"FAILED {problem}")
    result = {
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    with open(os.path.join(work_dir, "result.json"), "w", encoding="utf-8") as handle:
        json.dump({"env": env, "seed": args.seed, "setup_reps": setup_reps,
                   "sweeps": [s.commands for s in sweeps],
                   "traced_sweep": traced.commands if traced else None, "problems": tally.problems,
                   **result}, handle, indent=2)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
