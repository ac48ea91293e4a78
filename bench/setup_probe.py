"""Time homeplan's set-up in a fresh process and print it as one JSON line.

Set-up is what a run pays before its first episode: importing the package,
building the tool library (which parses every ground-truth precondition),
loading the feedback message table and generating the workload's suite.

    python3 bench/setup_probe.py <workload> <seed> [--trace]
    python3 bench/setup_probe.py --reference

With ``--trace`` the precondition parser is wrapped in spans after the
import, and its call count and self time are printed too.

``--reference`` times a fixed set of standard-library imports instead, in
the same kind of fresh process. Set-up is mostly importing (unmarshalling
modules and loading extension modules), and on a shared host that work
speeds up and slows down together; run.py reports set-up as a multiple of
this reference (see ``REFERENCE_S`` there).
"""

from __future__ import annotations

import argparse
import importlib
import json
import time

from workloads import WORKLOADS, build_suite, use_checkout_sources

# A fixed mix of standard-library packages and extension modules, about
# 0.1 s of importing in all. They are imported in a process of their own, so
# it does not matter which of them set-up imports too.
REFERENCE_IMPORTS = (
    "asyncio", "email.mime.multipart", "http.cookiejar", "xml.dom.minidom", "sqlite3",
    "decimal", "unittest.mock", "tarfile", "csv", "uuid", "ipaddress", "difflib",
    "statistics", "logging.handlers", "concurrent.futures", "pydoc",
)


def reference() -> dict:
    started = time.perf_counter()
    for name in REFERENCE_IMPORTS:
        importlib.import_module(name)
    return {"reference_s": time.perf_counter() - started}


def setup(workload_name: str, seed: int, trace: bool) -> dict:
    use_checkout_sources()
    started = time.perf_counter()
    import homeplan.agent  # noqa: F401  (the modules a suite run imports)
    import homeplan.suite  # noqa: F401
    from homeplan.grounding import MessageTable
    from homeplan.tools import builtin_tool_library

    tracer = None
    if trace:
        from tracer import SETUP_FUNCTIONS, Tracer

        tracer = Tracer(record_spans=False)
        tracer.install(SETUP_FUNCTIONS, ())
    library = builtin_tool_library()
    MessageTable.load()
    suite, _ = build_suite(WORKLOADS[workload_name], seed)
    elapsed = time.perf_counter() - started

    result = {"setup_s": elapsed, "tools": len(library), "tasks": len(suite.tasks)}
    if tracer is not None:
        tracer.restore()
        layer = tracer.layers()["formula.parse_precondition"]
        result["parse_calls"] = layer["calls"]
        result["parse_self_s"] = layer["self_s"]
    return result


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", nargs="?", choices=sorted(WORKLOADS))
    parser.add_argument("seed", nargs="?", type=int)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--reference", action="store_true")
    args = parser.parse_args()
    if args.reference:
        print(json.dumps(reference()))
    elif args.workload is None or args.seed is None:
        parser.error("a workload and a seed are required")
    else:
        print(json.dumps(setup(args.workload, args.seed, args.trace)))


if __name__ == "__main__":
    main()
