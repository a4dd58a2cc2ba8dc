"""Unit tests for ``python -m repro prove-sharding``."""

from __future__ import annotations

import json
from pathlib import Path

from repro.__main__ import main

PROVED_SPEC = {
    "relations": [
        {"name": "Sale", "attributes": ["item", "clerk"]},
        {"name": "Emp", "attributes": ["clerk", "age"], "key": ["clerk"]},
    ],
    "views": [{"name": "Sold", "definition": "Sale join Emp"}],
    "sharding": {
        "routings": [{"relation": "Sale", "attribute": "item", "shards": 2}],
        "expect": "proved",
    },
}

REFUTED_SPEC = {
    "relations": [
        {"name": "Orders", "attributes": ["okey", "item"], "key": ["okey"]},
        {"name": "Shipments", "attributes": ["okey", "carrier"], "key": ["okey"]},
    ],
    "views": [{"name": "Fulfilled", "definition": "Orders join Shipments"}],
    "sharding": {
        "routings": [
            {"relation": "Orders", "attribute": "okey", "boundaries": [4]},
            {"relation": "Shipments", "attribute": "okey", "shards": 2},
        ],
        "expect": "refuted",
    },
}

UNSHARDED_SPEC = {
    "relations": [{"name": "Sale", "attributes": ["item", "clerk"]}],
    "views": [{"name": "V", "definition": "Sale"}],
}


def write(tmp_path, data, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


class TestExitCodes:
    def test_proved_as_expected_exits_zero(self, tmp_path, capsys):
        assert main(["prove-sharding", write(tmp_path, PROVED_SPEC)]) == 0
        out = capsys.readouterr().out
        assert "PROVED" in out
        assert "OK" in out

    def test_refuted_as_expected_exits_zero(self, tmp_path, capsys):
        assert main(["prove-sharding", write(tmp_path, REFUTED_SPEC)]) == 0
        out = capsys.readouterr().out
        assert "REFUTED" in out
        # The replayed counterexample is printed under the verdict line.
        assert "=> Fulfilled: global" in out

    def test_expectation_mismatch_exits_one(self, tmp_path, capsys):
        spec = json.loads(json.dumps(REFUTED_SPEC))
        spec["sharding"]["expect"] = "proved"
        assert main(["prove-sharding", write(tmp_path, spec)]) == 1
        assert "unexpected" in capsys.readouterr().out

    def test_unsharded_spec_passes(self, tmp_path, capsys):
        assert main(["prove-sharding", write(tmp_path, UNSHARDED_SPEC)]) == 0
        assert "UNSHARDED" in capsys.readouterr().out

    def test_load_error_exits_two(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["prove-sharding", str(path)]) == 2

    def test_strict_passes_when_everything_is_decided(self, tmp_path, capsys):
        # Strict mode turns UNKNOWN into failure; on fully-decided specs it
        # must stay green (the CI invocation). The UNKNOWN-fails semantics
        # are unit-tested against the kernel's exit_code directly.
        proved = write(tmp_path, PROVED_SPEC, "proved.json")
        refuted = write(tmp_path, REFUTED_SPEC, "refuted.json")
        assert main(["prove-sharding", "--strict", proved, refuted]) == 0


class TestJsonFormat:
    def test_json_document_shape(self, tmp_path, capsys):
        path = write(tmp_path, PROVED_SPEC)
        assert main(["prove-sharding", path, "--format", "json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["ok"] is True
        assert document["summary"]["proved"] == 1
        (result,) = document["results"]
        assert result["verdict"] == "PROVED"
        assert "digest" in result
        assert result["certificate"]["shards"] == 2

    def test_json_refuted_carries_witness(self, tmp_path, capsys):
        path = write(tmp_path, REFUTED_SPEC)
        assert main(["prove-sharding", path, "--format", "json"]) == 0
        document = json.loads(capsys.readouterr().out)
        (result,) = document["results"]
        assert result["verdict"] == "REFUTED"
        assert result["witness"]["kind"] == "sharding"


class TestCertificatesFlag:
    def test_writes_one_document_per_file(self, tmp_path, capsys):
        out_dir = tmp_path / "certs"
        proved = write(tmp_path, PROVED_SPEC, "proved.json")
        refuted = write(tmp_path, REFUTED_SPEC, "refuted.json")
        assert (
            main(
                [
                    "prove-sharding",
                    proved,
                    refuted,
                    "--certificates",
                    str(out_dir),
                ]
            )
            == 0
        )
        proved_doc = json.loads((out_dir / "proved.sharding.json").read_text())
        refuted_doc = json.loads((out_dir / "refuted.sharding.json").read_text())
        assert proved_doc["verdict"] == "PROVED"
        assert refuted_doc["verdict"] == "REFUTED"

