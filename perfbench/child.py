"""One benchmark child process; the harness starts a fresh one per step.

    child.py setup <instance.cfg> <cap>
        Cold `import glsemi`, then `enumerate_semigroup(inst, cap)`.
        Prints {"import_s", "enumerate_s"} as JSON.

    child.py command <result.json> <spans.npz | -> <glsemi argv...>
        Runs `glsemi.cli.main(argv)` and writes {"rc", "seconds",
        "maxrss_kb"} to result.json.  With a spans path the call is
        traced (see tracing.py) and the spans are written there at exit.

The harness puts the program's `src` directory on PYTHONPATH.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time


def setup(cfg_path: str, cap: int) -> None:
    from instances import parse_cfg

    with open(cfg_path, encoding="utf-8") as handle:
        fields = parse_cfg(handle.read())
    t0 = time.perf_counter()
    import glsemi  # noqa: F401  (the cold import is what is timed)
    from glsemi.gl_restriction import enumerate_semigroup, make_instance

    t1 = time.perf_counter()
    inst = make_instance(fields["p"], fields["n"], fields["r"], fields["u_rows"])
    t2 = time.perf_counter()
    enumerate_semigroup(inst, cap)
    t3 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "enumerate_s": t3 - t2}))


def command(result_path: str, spans_path: str, argv: list[str]) -> None:
    from glsemi import cli

    main = cli.main
    tracer = None
    if spans_path != "-":
        from tracing import ROOT, Tracer, install

        tracer = Tracer()
        install(tracer)
        main = tracer.wrap(ROOT, main)
    t0 = time.perf_counter()
    rc = main(argv)
    seconds = time.perf_counter() - t0
    maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump({"rc": rc, "seconds": seconds, "maxrss_kb": maxrss}, handle)
    if tracer is not None:
        tracer.dump(spans_path)


if __name__ == "__main__":
    mode, *rest = sys.argv[1:]
    if mode == "setup":
        setup(rest[0], int(rest[1]))
    elif mode == "command":
        command(rest[0], rest[1], rest[2:])
    else:
        sys.exit(f"unknown mode {mode!r}")
    # Skip interpreter teardown: freeing a large table takes seconds and
    # is neither measured nor needed.
    sys.stdout.flush()
    os._exit(0)
