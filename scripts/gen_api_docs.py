#!/usr/bin/env python3
"""Regenerate docs/api.md from the public symbols' docstrings.

Run from the repository root:  python scripts/gen_api_docs.py
"""

import importlib
import inspect
import io
import pathlib

MODULES = [
    "repro.schema.schema", "repro.schema.constraints", "repro.schema.catalog",
    "repro.storage.relation", "repro.storage.database", "repro.storage.update",
    "repro.storage.persist", "repro.storage.engine", "repro.storage.columnar",
    "repro.storage.snapshot", "repro.storage.patch",
    "repro.algebra.conditions", "repro.algebra.expressions", "repro.algebra.evaluator",
    "repro.algebra.parser", "repro.algebra.simplify", "repro.algebra.optimize",
    "repro.algebra.rewriting", "repro.algebra.deltas", "repro.algebra.containment",
    "repro.algebra.visitors",
    "repro.views.psj", "repro.views.analysis",
    "repro.analysis.diagnostics", "repro.analysis.typecheck",
    "repro.analysis.satisfiability", "repro.analysis.lint",
    "repro.analysis.specfile", "repro.analysis.report",
    "repro.analysis.dataflow", "repro.analysis.digest",
    "repro.analysis.kernel", "repro.analysis.prover",
    "repro.analysis.concurrency",
    "repro.analysis.query", "repro.analysis.query_lint",
    "repro.core.covers", "repro.core.complement", "repro.core.independence",
    "repro.core.translation", "repro.core.maintenance", "repro.core.warehouse",
    "repro.core.minimality", "repro.core.selfmaint", "repro.core.star",
    "repro.core.aggregates", "repro.core.auxviews", "repro.core.hybrid",
    "repro.core.sharding",
    "repro.obs.trace", "repro.obs.metrics", "repro.obs.explain", "repro.obs.report",
    "repro.integrator.source", "repro.integrator.channel", "repro.integrator.integrator",
    "repro.integrator.async_integrator",
    "repro.workloads.generator", "repro.workloads.queries", "repro.workloads.tpcd",
    "repro.compiler", "repro.compiler.certificate", "repro.compiler.fuse",
    "repro.compiler.runtime",
]


def main() -> None:
    out = io.StringIO()
    out.write("# API reference (generated)\n\n")
    out.write("One-line summaries of every public symbol, generated from the\n")
    out.write("docstrings (`python scripts/gen_api_docs.py` regenerates this file).\n")
    for modname in MODULES:
        mod = importlib.import_module(modname)
        out.write(f"\n## `{modname}`\n\n")
        first = (mod.__doc__ or "").strip().splitlines()[0]
        out.write(f"{first}\n\n")
        for name, obj in sorted(vars(mod).items()):
            if name.startswith("_"):
                continue
            if getattr(obj, "__module__", None) != modname:
                continue
            if not (inspect.isclass(obj) or inspect.isfunction(obj)):
                continue
            doc = (inspect.getdoc(obj) or "").strip().splitlines()
            summary = doc[0] if doc else ""
            kind = "class" if inspect.isclass(obj) else "def"
            out.write(f"- **`{name}`** ({kind}) — {summary}\n")
            if inspect.isclass(obj):
                for mname, meth in sorted(vars(obj).items()):
                    if mname.startswith("_"):
                        continue
                    if not (
                        inspect.isfunction(meth)
                        or isinstance(meth, (classmethod, staticmethod, property))
                    ):
                        continue
                    target = meth
                    if isinstance(meth, (classmethod, staticmethod)):
                        target = meth.__func__
                    if isinstance(meth, property):
                        target = meth.fget
                    mdoc = (inspect.getdoc(target) or "").strip().splitlines()
                    msummary = mdoc[0] if mdoc else ""
                    out.write(f"  - `{mname}` — {msummary}\n")
    pathlib.Path("docs/api.md").write_text(out.getvalue())
    print(f"wrote docs/api.md ({len(out.getvalue().splitlines())} lines)")


if __name__ == "__main__":
    main()
