"""Run the benchmark suite.

Two ways in, one code path underneath.

The driver's contract (``BENCHMARK.json``)::

    python3 benchmarks/suite/run.py --workload W --seed N --seconds S --trace 0|1

runs one workload once and prints, as the last line of standard output, one
JSON object ``{"correct", "attempted", "failed", "metrics"}`` — the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.

The whole suite::

    PYTHONPATH=src python benchmarks/suite/run.py --seed 11 --out result.json

runs all four workloads, untraced then traced, prints every metric by name
with its unit, writes one JSON document for ``compare.py`` and exits non-zero
when any output was wrong. ``--smoke`` does the same at toy size.

Either way each workload runs in a fresh child process (``--child``), so
``peak_rss_mb`` and the interning dictionary are the workload's own. The
child gets no ``REPRO_*`` variable (the process-default configuration is what
is measured) and ``PYTHONHASHSEED=0``, so that set and dict iteration orders —
and with them the exact work done — repeat. It is the same at every seed:
the hash seed alone moved ``commit_lag_p50_ms`` by 19 % between runs of one
input, which is the interpreter's lottery and no property of the inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from typing import Dict, List, Optional

SUITE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(SUITE))
SOURCES = os.path.join(ROOT, "src")
sys.path[:0] = [SUITE, SOURCES]

import metrics  # noqa: E402  (the catalogue; imports nothing of the program)


def child_main(args: argparse.Namespace) -> int:
    """The workload's own process: run it, print the result document."""
    import workloads

    result = workloads.run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), smoke=args.smoke,
        fault=args.plant_fault.split(",") if args.plant_fault else (),
        trace_out=args.trace_out,
    )
    print(json.dumps(result))
    return 0


def spawn(workload: str, seed: int, seconds: float, trace: int, smoke: bool,
          fault: str = "", trace_out: Optional[str] = None) -> Dict[str, object]:
    """Run one workload in a fresh process and return its result document."""
    environment = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    environment["PYTHONHASHSEED"] = "0"
    command = [sys.executable, os.path.abspath(__file__), "--child",
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        command.append("--smoke")
    if fault:
        command += ["--plant-fault", fault]
    if trace_out:
        command += ["--trace-out", trace_out]
    done = subprocess.run(command, env=environment, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{workload}: child exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def print_metrics(workload: str, result: Dict[str, object]) -> None:
    """Every metric by name with its unit; layer rows say what they should move."""
    moves = {layer.name: layer.moves for layer in metrics.PER_LAYER}
    for name, metric in result["metrics"].items():
        value = metric["value"]
        shown = "null" if value is None else f"{value:.6g}"
        note = f"  -> {moves[name]}" if moves.get(name) else ""
        print(f"{workload:16s} {name:48s} {shown:>12s} {metric['unit']:8s}{note}")
    verdict = "ok" if result["correct"] else "WRONG"
    print(f"{workload:16s} {'error_rate':48s} "
          f"{result['failed'] / result['attempted']:12.6g} ratio   "
          f"({result['failed']} of {result['attempted']} operations failed: {verdict})")
    for name, value in result.get("info", {}).items():
        print(f"{workload:16s}   info {name} = {value:.6g}")
    for message in result.get("failures", []):
        print(f"{workload:16s}   failure: {message}")
    if result.get("probes_missing"):
        print(f"{workload:16s}   probes missing: {', '.join(result['probes_missing'])}")


def contract_line(result: Dict[str, object]) -> str:
    """The driver's result line: numbers only.

    A per-layer metric whose probe target is gone is ``null`` in the suite's
    document; here it is 0, and ``harness.probes_missing`` says how many are.
    """
    metrics = {
        name: {"value": 0 if m["value"] is None else m["value"], "unit": m["unit"]}
        for name, m in result["metrics"].items()
    }
    return json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


def fingerprint(seed: int, seconds: float, smoke: bool) -> Dict[str, object]:
    """Where and how the numbers were taken."""
    from repro import Warehouse
    from repro.workloads.tpcd import standard_views, tpcd_catalog

    try:
        commit = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    try:
        from repro.compiler import resolve_compile
        compiled: object = resolve_compile(None)
    except ImportError:
        compiled = "unknown"
    return {
        "python": platform.python_version(), "platform": platform.platform(),
        "nproc": os.cpu_count(), "git_commit": commit,
        "engine": Warehouse.specify(tpcd_catalog(), standard_views()).engine,
        "compile_plans": compiled, "seed": seed, "seconds": seconds, "smoke": smoke,
    }


def suite_main(args: argparse.Namespace) -> int:
    document = {"schema": 1, "fingerprint": fingerprint(args.seed, args.seconds, args.smoke),
                "workloads": {}}
    wrong: List[str] = []
    for workload in metrics.WORKLOADS:
        end_to_end = spawn(workload, args.seed, args.seconds, 0, args.smoke, args.plant_fault)
        per_layer = spawn(workload, args.seed, args.seconds, 1, args.smoke)
        print_metrics(workload, end_to_end)
        print_metrics(workload, per_layer)
        document["workloads"][workload] = {"end_to_end": end_to_end, "per_layer": per_layer}
        if not (end_to_end["correct"] and per_layer["correct"]):
            wrong.append(workload)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(document, handle, indent=1)
    if wrong:
        print(f"WRONG RESULTS on: {', '.join(wrong)}", file=sys.stderr)
        return 1
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this one workload (the driver's contract)")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=metrics.RUN_SECONDS,
                        help="size of the timed phases (BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="toy sizes: a self-test, not a measurement")
    parser.add_argument("--out", help="suite mode: write the JSON document here")
    parser.add_argument("--trace-out", help="traced run: write the spans here as JSONL")
    parser.add_argument("--plant-fault", default="",
                        help="self-test: corrupt the first checked 'answer' and/or 'relation'")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SOURCES, "repro")):
        print(f"run.py: no program to measure: {SOURCES}/repro is missing", file=sys.stderr)
        return 2
    if args.child:
        return child_main(args)
    if args.workload is None:
        return suite_main(args)
    result = spawn(args.workload, args.seed, args.seconds, args.trace, args.smoke,
                   args.plant_fault, args.trace_out)
    print_metrics(args.workload, result)
    print(contract_line(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
