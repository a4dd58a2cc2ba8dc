"""Self-tests of the benchmark suite, at toy size.

    python -m pytest benchmarks/suite/tests -q

Not part of tier-1 (``pyproject.toml`` collects ``tests/`` only): these spawn
the suite several times and take about a minute.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

SUITE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(os.path.dirname(SUITE))
sys.path[:0] = [SUITE, os.path.join(ROOT, "src")]

import compare  # noqa: E402
import metrics  # noqa: E402
import probes  # noqa: E402
import streams  # noqa: E402
import workloads  # noqa: E402
from repro.workloads.tpcd import tpcd_instance  # noqa: E402

RUN = [sys.executable, os.path.join(SUITE, "run.py")]
#: Workloads whose traced counts must repeat exactly. ``ingest_serve`` is
#: open loop: how many notifications one drain folds depends on arrival
#: timing, by design, so only its end state is exact.
CLOSED_LOOP = ("refresh_trickle", "refresh_bulk", "query_serve")


def run_suite(tmp_path_factory, seed: int, tag: str) -> dict:
    out = tmp_path_factory.mktemp("suite") / f"{tag}.json"
    done = subprocess.run([*RUN, "--smoke", "--seed", str(seed), "--out", str(out)],
                          stdout=subprocess.PIPE, text=True)
    assert done.returncode == 0, done.stdout
    with open(out) as handle:
        document = json.load(handle)
    document["stdout"] = done.stdout
    document["path"] = str(out)
    return document


@pytest.fixture(scope="module")
def first(tmp_path_factory):
    return run_suite(tmp_path_factory, 11, "seed11a")


@pytest.fixture(scope="module")
def benchmark_file():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_benchmark_json_is_the_catalogue_and_within_the_contract(benchmark_file):
    assert benchmark_file == metrics.benchmark_json()
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    names = [w["name"] for w in benchmark_file["workloads"]]
    assert 2 <= len(names) <= 8
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in benchmark_file["workloads"])
    assert 1 <= len(benchmark_file["end_to_end"]) <= 16
    assert 1 <= len(benchmark_file["per_layer"]) <= 128
    for metric in benchmark_file["end_to_end"] + benchmark_file["per_layer"]:
        names.append(metric["name"])
        assert unit.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    assert all(name.match(n) for n in names) and len(set(names)) == len(names)
    assert all(0 < m["bound"] <= 0.25 for m in benchmark_file["end_to_end"])
    setup = [m for m in benchmark_file["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in benchmark_file["end_to_end"])


def test_output_has_every_named_metric_with_its_unit(first, benchmark_file):
    assert set(first["workloads"]) == {w["name"] for w in benchmark_file["workloads"]}
    for workload, parts in first["workloads"].items():
        for part, section in (("end_to_end", "end_to_end"), ("per_layer", "per_layer")):
            got = parts[part]["metrics"]
            want = {m["name"]: m["unit"] for m in benchmark_file[section]}
            assert {n: m["unit"] for n, m in got.items()} == want, (workload, part)
            assert parts[part]["correct"] and parts[part]["failed"] == 0
            assert parts[part]["attempted"] >= 1
        assert all(m["value"] > 0 for m in parts["end_to_end"]["metrics"].values())
        assert parts["per_layer"]["probes_missing"] == []
        assert f"{workload:16s} setup_s" in first["stdout"]
    fingerprint = first["fingerprint"]
    assert {"python", "platform", "nproc", "git_commit", "engine", "compile_plans",
            "seed"} <= set(fingerprint)


def counts(document: dict, workload: str) -> dict:
    layers = document["workloads"][workload]["per_layer"]["metrics"]
    picked = {n: m["value"] for n, m in layers.items()
              if n.endswith((".calls", ".rows_in")) or n.endswith("_rows")}
    picked["storage_ratio"] = (
        document["workloads"][workload]["end_to_end"]["metrics"]["storage_ratio"]["value"])
    return picked


def test_counts_repeat_at_one_seed_and_differ_at_another(first, tmp_path_factory):
    again = run_suite(tmp_path_factory, 11, "seed11b")
    other = run_suite(tmp_path_factory, 12, "seed12")
    for workload in CLOSED_LOOP:
        assert counts(first, workload) == counts(again, workload), workload
        assert counts(first, workload) != counts(other, workload), workload
    ratios = [counts(doc, "ingest_serve")["storage_ratio"] for doc in (first, again, other)]
    assert ratios[0] == ratios[1] != ratios[2]


def test_compare_cli_passes_a_document_against_itself_and_fails_a_regression(first, tmp_path):
    compare_py = [sys.executable, os.path.join(SUITE, "compare.py")]
    same = subprocess.run([*compare_py, first["path"], first["path"]],
                          stdout=subprocess.PIPE, text=True)
    assert same.returncode == 0 and " worse" not in same.stdout
    assert "storage_ratio" in same.stdout and "error_rate" in same.stdout

    with open(first["path"]) as handle:
        slower = json.load(handle)
    trickle = slower["workloads"]["refresh_trickle"]["end_to_end"]
    trickle["metrics"]["refresh_p50_ms"]["value"] *= 2
    slower["workloads"]["query_serve"]["end_to_end"]["failed"] = 1
    path = tmp_path / "slower.json"
    path.write_text(json.dumps(slower))
    worse = subprocess.run([*compare_py, "--old", first["path"], "--new", str(path)],
                           stdout=subprocess.PIPE, text=True)
    assert worse.returncode != 0
    rows = [line.split() for line in worse.stdout.splitlines() if " worse" in line]
    assert sorted(row[:2] for row in rows) == [
        ["query_serve", "error_rate"], ["refresh_trickle", "refresh_p50_ms"]]


def test_planted_fault_is_counted_and_fails_the_run():
    done = subprocess.run(
        [*RUN, "--workload", "query_serve", "--smoke", "--seed", "11",
         "--plant-fault", "answer,relation"], stdout=subprocess.PIPE, text=True)
    assert done.returncode != 0
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert line["correct"] is False and line["failed"] == 2
    assert line["failed"] / line["attempted"] > 0


def test_missing_probe_target_yields_null_not_a_crash():
    table = tuple(
        p._replace(target="Update.renamed_away") if p.prefix == "storage.update.compose" else p
        for p in probes.PROBES)
    result = workloads.run_workload("refresh_bulk", 11, 1.0, trace=True, smoke=True,
                                    probe_table=table)
    assert result["correct"]
    assert result["probes_missing"] == ["repro.storage.update:Update.renamed_away"]
    layers = result["metrics"]
    assert layers["storage.update.compose.calls"]["value"] is None
    assert layers["harness.probes_missing"]["value"] == 1
    assert layers["core.warehouse.apply.calls"]["value"] > 0


def test_traced_pass_attributes_the_time_and_nests_spans(tmp_path):
    trace = tmp_path / "spans.jsonl"
    result = workloads.run_workload("ingest_serve", 11, 1.0, trace=True, smoke=True,
                                    trace_out=str(trace))
    layers = {n: m["value"] for n, m in result["metrics"].items()}
    assert layers["harness.unattributed_share"] < 0.10
    assert layers["harness.trace_overhead_ratio"] > 0
    spans = [json.loads(line) for line in trace.read_text().splitlines()]
    by_id = {span["id"]: span for span in spans}
    for span in spans:
        if span["name"] == "core.sharding.snapshot":
            # The reader task's spans never hang under the integrator's.
            assert by_id[span["unit"]]["name"] != "integrator.process_batch"
        if span["name"] == "core.sharding.apply_to_shard":
            assert by_id[span["parent"]]["name"] == "integrator.process_batch"


@pytest.mark.parametrize("seed", [11, 12])
def test_generated_streams_respect_constraints_and_keep_their_size(seed):
    instance = tpcd_instance(scale=2, seed=seed)
    for composition in (streams.TRICKLE_BLOCK, streams.INGEST_BLOCK):
        gen = streams.StreamGenerator(instance, seed)
        warm = gen.shapes(composition)
        streams.self_check(instance, warm, gen.notifications(200, composition))
    gen = streams.StreamGenerator(instance, seed)
    warm, timed = gen.bulk(6, 40)
    streams.self_check(instance, warm, timed)
    queries = gen.queries(200)
    shares = {k: sum(q.klass == k for q in queries) for k in streams.QUERY_CLASSES}
    assert shares == {"point": 60, "join": 50, "union": 30, "factjoin": 40,
                      "antijoin": 10, "scan": 10}
    assert sum(q.fresh for q in queries) == 60


def test_compare_verdicts():
    assert compare.judge([10.0], [10.5], "lower", 0.10) == "same"
    assert compare.judge([10.0], [12.0], "lower", 0.10) == "worse"
    assert compare.judge([10.0], [12.0], "higher", 0.10) == "better"
    # Wide spread, overlapping sides: the runs cannot tell.
    assert compare.judge([8, 10, 12, 14], [9, 11, 13, 15], "lower", 0.10) == "unresolved"
    # Wide spread but every new run beats every old one.
    assert compare.judge([20, 24, 28, 32], [8, 10, 12, 14], "lower", 0.10) == "better"


def test_exits_non_zero_without_a_result_where_the_program_is_absent(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(SUITE, tmp_path / "benchmarks" / "suite",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/suite/run.py", "--workload", "refresh_trickle",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    assert done.returncode != 0 and done.stdout.strip() == ""
