"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``demo``
    Replay the paper's Figure 1 scenario end to end (specification,
    query translation, incremental maintenance).
``spec FILE``
    Read a schema-and-views description (JSON, see below) and print the
    computed warehouse specification — complements, inverses, minimality
    certificate, and self-maintenance analysis.
``lint FILE [FILE ...]``
    Statically analyze spec files: expression typechecking (E01xx) plus
    the paper-semantics lint pass (W00xx — PSJ form, condition
    satisfiability, Theorem 2.2 preconditions, complement quality, view
    hygiene). ``--format json`` emits the CI artifact format; ``--strict``
    fails on INFO-level findings too. Exit status: 0 clean, 1 findings,
    2 unreadable input. The diagnostic catalog is docs/lint.md.
``prove`` / ``prove-sharding`` / ``prove-query FILE [FILE ...]``
    The three static provers behind one verdict CLI (docs/prover.md,
    "The certificate kernel"). Each decides its question per spec file:
    PROVED emits a self-validating, machine-checkable certificate,
    REFUTED a minimal replay-verified witness, UNKNOWN neither.
    ``--certificates DIR`` writes one JSON document per file (the CI
    artifact; two files sharing a stem are refused); ``--strict`` makes
    UNKNOWN a failure. Exit status: 0 every verdict matches its
    expectation, 1 otherwise, 2 unreadable input.

    * ``prove`` — independence: the certificate holds the Equation (4)
      inversions and the facts they rest on, the witness is a shrunk
      two-database pair showing non-injectivity (Proposition 2.1).
    * ``prove-sharding`` — the ``"sharding"`` section: assembly modes,
      co-partitioned groups, per-update-shape footprints and batch
      commutativity (hashed like the spec certificate of ``compile``);
      the witness is an interleaving that diverges, or a source state
      whose global image no shard assembly rebuilds.
    * ``prove-query`` — the ``"queries"`` section (or synthesized
      identity queries): the rewritten ``Q ∘ W^{-1}``, the inversions or
      view folds it leans on, a static read set with zero source
      relations and a kernel-level cost estimate (digest-compatible
      with the translated-plan cache); the witness is a two-database
      pair where warehouse state underdetermines the answer. A query
      that pinned ``"expect": "unknown"`` passes ``--strict``.
``compile FILE [FILE ...]``
    Offline view of the refresh plans (``repro.compiler``,
    docs/compiler.md): certify each spec file against the prover's PROVED
    certificate and derive the plan of every single-relation update
    shape. ``--explain`` dumps those plans (pruned / patch / fused
    classification per warehouse relation) — the expressions the
    interpreter runs on a refresh of that shape. Exit status: 0 every
    spec certified, 1 a spec was refused, 2 unreadable input.
``tpcd [--scale S]``
    Generate a TPC-D-like instance, specify its warehouse, and print the
    storage breakdown.
``obs explain``
    Replay the Figure 1 refresh with tracing enabled and print the
    annotated operator trees (``Warehouse.explain()``) plus the metric
    registry — the quickest way to *see* the observability layer.
``obs report FILE``
    Summarize a JSONL trace file (written by a
    :class:`~repro.obs.trace.JsonlSink`) into a per-operator table.

``spec`` input format::

    {
      "relations": [
        {"name": "Sale", "attributes": ["item", "clerk"]},
        {"name": "Emp", "attributes": ["clerk", "age"], "key": ["clerk"]}
      ],
      "inclusions": [
        {"lhs": "Sale", "lhs_attributes": ["clerk"],
         "rhs": "Emp", "rhs_attributes": ["clerk"]}
      ],
      "views": [{"name": "Sold", "definition": "Sale join Emp"}]
    }
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Callable, List, Mapping, NamedTuple, Optional

from repro import Catalog, Database, View, Warehouse, parse, specify
from repro.analysis import kernel
from repro.analysis.concurrency import prove_sharding_target
from repro.analysis.kernel import QUERY_KIND, SHARDING_KIND, FileResult
from repro.analysis.prover import prove_target
from repro.analysis.query import prove_queries_target
from repro.core.minimality import is_minimal_certificate
from repro.core.selfmaint import self_maintenance_analysis
from repro.storage.persist import catalog_from_dict


def _cmd_demo(_args) -> int:
    catalog = Catalog()
    catalog.relation("Sale", ("item", "clerk"))
    catalog.relation("Emp", ("clerk", "age"), key=("clerk",))
    sources = Database(catalog)
    sources.load("Sale", [("TV set", "Mary"), ("VCR", "Mary"), ("PC", "John")])
    sources.load("Emp", [("Mary", 23), ("John", 25), ("Paula", 32)])

    warehouse = Warehouse.specify(catalog, [View("Sold", parse("Sale join Emp"))])
    print(warehouse.describe())
    warehouse.initialize(sources)
    print("\nstorage:", warehouse.storage_by_relation())

    query = "pi[clerk](Sale) union pi[clerk](Emp)"
    print(f"\nQ  = {query}")
    print(f"Q^ = {warehouse.translate(query)}")
    print("answer:", sorted(warehouse.answer(query).rows))

    update = sources.insert("Sale", [("Computer", "Paula")])
    warehouse.apply(update)
    print("\nafter inserting (Computer, Paula) into Sale:")
    print("Sold:", sorted(warehouse.relation("Sold").rows))
    return 0


def _cmd_spec(args) -> int:
    with open(args.file) as handle:
        data = json.load(handle)
    catalog = catalog_from_dict(
        {
            "relations": data["relations"],
            "inclusions": data.get("inclusions", []),
            "checks": data.get("checks", {}),
        }
    )
    views = [View(v["name"], parse(v["definition"])) for v in data["views"]]
    spec = specify(catalog, views, method=args.method)
    print(spec.describe())
    certificate = is_minimal_certificate(spec)
    print(
        f"\nminimality: {'certified (' + str(certificate.theorem) + ')' if certificate.certified else 'no certificate'}"
    )
    print(f"  {certificate.reason}")
    report = self_maintenance_analysis(catalog, views)
    print("\nself-maintenance analysis:")
    print("  " + report.describe().replace("\n", "\n  "))
    return 0


def _cmd_lint(args) -> int:
    from repro.analysis.report import (
        exit_code,
        lint_file,
        render_json,
        render_text,
    )

    extra_ignore = []
    for chunk in args.ignore or ():
        extra_ignore.extend(code.strip() for code in chunk.split(",") if code.strip())
    reports = [
        lint_file(path, method=args.method, extra_ignore=extra_ignore)
        for path in args.files
    ]
    if args.format == "json":
        output = render_json(reports, strict=args.strict)
    else:
        output = render_text(reports, strict=args.strict)
    print(output)
    return exit_code(reports, strict=args.strict)


class _Prover(NamedTuple):
    """One row of the verdict-CLI table: what a prover subcommand adds."""

    decide: Callable[..., FileResult]  # decides one loaded spec file
    kind: Optional[str]  # the certificate kind of its documents
    suffix: str  # certificate file suffix under --certificates
    help: str
    flags: Mapping[str, Mapping[str, Any]] = {}  # argparse flags beyond the shared


_PROVERS = {
    "prove": _Prover(
        prove_target,
        None,
        ".cert.json",
        "statically prove or refute spec independence (docs/prover.md)",
        {
            "--max-model-size": dict(
                type=int,
                default=None,
                metavar="N",
                help="max rows per relation in the counterexample search "
                "(default: the spec file's prover.max_model_size, or 2)",
            )
        },
    ),
    "prove-sharding": _Prover(
        prove_sharding_target,
        SHARDING_KIND,
        ".sharding.json",
        "statically prove or refute sharded-layout soundness "
        "(docs/integrator.md)",
    ),
    "prove-query": _Prover(
        prove_queries_target,
        QUERY_KIND,
        ".query.json",
        "statically prove or refute warehouse-answerability of "
        "declared queries (docs/translation.md)",
    ),
}


def _cmd_prove(args) -> int:
    prover = _PROVERS[args.command]
    options = {"method": args.method}
    if "--max-model-size" in prover.flags:
        options["max_model_size"] = args.max_model_size
    results = [
        kernel.decide_file(path, prover.decide, prover.kind, **options)
        for path in args.files
    ]
    if args.certificates:
        try:
            kernel.write_documents(results, args.certificates, prover.suffix)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    if args.format == "json":
        document = kernel.report_document(results, strict=args.strict)
        print(kernel.document_json(document))
    else:
        print(kernel.render_text(results, strict=args.strict))
    return kernel.exit_code(results, strict=args.strict)


def _cmd_compile(args) -> int:
    from repro.analysis.specfile import load_target
    from repro.compiler import certify, fused_plan
    from repro.errors import CompileError, ReproError

    failures = 0
    for path in args.files:
        try:
            target = load_target(path)
        except (OSError, json.JSONDecodeError, ReproError) as exc:
            print(f"error: {path}: {exc}", file=sys.stderr)
            return 2
        try:
            spec = specify(target.catalog, target.views, method=args.method)
            certificate = certify(spec)
        except CompileError as exc:
            print(f"{path}: REFUSED — {exc}")
            failures += 1
            continue
        except ReproError as exc:
            # The spec itself cannot be derived (e.g. star-schema views
            # that need method="star"); report it like a refusal rather
            # than crashing the sweep.
            print(f"{path}: REFUSED — cannot derive spec: {exc}")
            failures += 1
            continue
        shapes = sorted(spec.catalog.relation_names())
        print(
            f"{path}: COMPILED — certificate {certificate.digest[:12]}..., "
            f"{len(shapes)} update shape(s)"
        )
        if args.explain:
            for relation in shapes:
                plan = fused_plan(spec, {relation})
                print(f"  shape {relation}:")
                print("    " + plan.describe().replace("\n", "\n    "))
    return 1 if failures else 0


def _cmd_obs(args) -> int:
    if args.obs_command == "report":
        from repro.obs.report import report_file

        try:
            print(report_file(args.file, sort=args.sort, limit=args.limit))
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        return 0

    # obs explain: the Figure 1 refresh, traced end to end.
    catalog = Catalog()
    catalog.relation("Sale", ("item", "clerk"))
    catalog.relation("Emp", ("clerk", "age"), key=("clerk",))
    sources = Database(catalog)
    sources.load("Sale", [("TV set", "Mary"), ("VCR", "Mary"), ("PC", "John")])
    sources.load("Emp", [("Mary", 23), ("John", 25), ("Paula", 32)])

    warehouse = Warehouse.specify(catalog, [View("Sold", parse("Sale join Emp"))])
    sink = None
    if args.trace_out:
        from repro.obs import JsonlSink

        sink = JsonlSink(args.trace_out)
    warehouse.enable_tracing(sink=sink)
    warehouse.initialize(sources)
    print(warehouse.explain(name="initialize"))

    update = sources.insert("Sale", [("Computer", "Paula")])
    warehouse.apply(update)
    print()
    print(warehouse.explain(name="refresh"))
    print("\nmetrics:")
    print(warehouse.metrics.describe())
    if sink is not None:
        sink.close()
        print(f"\ntrace written to {args.trace_out}")
    return 0


def _cmd_tpcd(args) -> int:
    from repro.workloads import tpcd_instance

    instance = tpcd_instance(scale=args.scale)
    warehouse = Warehouse.specify(instance.catalog, instance.views)
    warehouse.initialize(instance.database)
    print(f"TPC-D-like instance at scale {args.scale}")
    print("source rows:   ", instance.sizes())
    print("warehouse rows:", warehouse.storage_by_relation())
    empty = [
        c.name for c in warehouse.spec.complements.values() if c.provably_empty
    ]
    print("complements proven empty:", empty)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Complements for Data Warehouses (ICDE 1999) — reproduction CLI",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("demo", help="replay the Figure 1 scenario")

    spec_parser = commands.add_parser(
        "spec", help="compute a warehouse specification from a JSON description"
    )
    spec_parser.add_argument("file", help="schema-and-views JSON file")
    spec_parser.add_argument(
        "--method",
        choices=("thm22", "prop22", "trivial"),
        default="thm22",
        help="complement computation method (default: thm22)",
    )

    lint_parser = commands.add_parser(
        "lint", help="statically analyze warehouse spec files (docs/lint.md)"
    )
    lint_parser.add_argument("files", nargs="+", help="spec JSON file(s)")
    lint_parser.add_argument(
        "--method",
        choices=("thm22", "prop22", "trivial"),
        default="thm22",
        help="complement method for the spec-level checks (default: thm22)",
    )
    lint_parser.add_argument(
        "--format", choices=("text", "json"), default="text"
    )
    lint_parser.add_argument(
        "--strict",
        action="store_true",
        help="fail on INFO-level findings too",
    )
    lint_parser.add_argument(
        "--ignore",
        action="append",
        metavar="CODES",
        help="comma-separated diagnostic codes to suppress (repeatable)",
    )

    for command, prover in _PROVERS.items():
        prove_parser = commands.add_parser(command, help=prover.help)
        prove_parser.add_argument("files", nargs="+", help="spec JSON file(s)")
        prove_parser.add_argument(
            "--method",
            choices=("thm22", "prop22", "trivial"),
            default="thm22",
            help="complement construction method (default: thm22)",
        )
        prove_parser.add_argument(
            "--format", choices=("text", "json"), default="text"
        )
        prove_parser.add_argument(
            "--strict",
            action="store_true",
            help="treat UNKNOWN verdicts as failures "
            '(unless a query pinned "expect": "unknown")',
        )
        prove_parser.add_argument(
            "--certificates",
            default=None,
            metavar="DIR",
            help="write one certificate JSON per input file into DIR",
        )
        for flag, spec in prover.flags.items():
            prove_parser.add_argument(flag, **spec)

    compile_parser = commands.add_parser(
        "compile",
        help="certify spec files and print their refresh plans (docs/compiler.md)",
    )
    compile_parser.add_argument("files", nargs="+", help="spec JSON file(s)")
    compile_parser.add_argument(
        "--method",
        choices=("thm22", "prop22", "trivial"),
        default="thm22",
        help="complement construction method (default: thm22)",
    )
    compile_parser.add_argument(
        "--explain",
        action="store_true",
        help="dump the fused per-update-shape plans",
    )

    tpcd_parser = commands.add_parser("tpcd", help="TPC-D-like warehouse summary")
    tpcd_parser.add_argument("--scale", type=float, default=1.0)

    obs_parser = commands.add_parser(
        "obs", help="observability: explain traces, summarize JSONL trace files"
    )
    obs_commands = obs_parser.add_subparsers(dest="obs_command", required=True)
    explain_parser = obs_commands.add_parser(
        "explain", help="trace the Figure 1 refresh and print explain() output"
    )
    explain_parser.add_argument(
        "--trace-out", default=None, help="also write the spans to this JSONL file"
    )
    report_parser = obs_commands.add_parser(
        "report", help="summarize a JSONL trace file into a per-operator table"
    )
    report_parser.add_argument("file", help="JSONL trace file (JsonlSink output)")
    report_parser.add_argument(
        "--sort", choices=("total", "count", "name"), default="total"
    )
    report_parser.add_argument("--limit", type=int, default=None)

    args = parser.parse_args(argv)
    handlers = {
        "demo": _cmd_demo,
        "spec": _cmd_spec,
        "lint": _cmd_lint,
        "prove": _cmd_prove,
        "prove-sharding": _cmd_prove,
        "prove-query": _cmd_prove,
        "compile": _cmd_compile,
        "tpcd": _cmd_tpcd,
        "obs": _cmd_obs,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
