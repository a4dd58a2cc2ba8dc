"""Unit tests for the ``python -m repro`` CLI."""

from __future__ import annotations

import json

import pytest

from repro.__main__ import main


class TestDemo:
    def test_demo_runs(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "C_Emp" in out
        assert "Computer" in out


class TestSpec:
    def write_spec_file(self, tmp_path, inclusions=()):
        data = {
            "relations": [
                {"name": "Sale", "attributes": ["item", "clerk"]},
                {"name": "Emp", "attributes": ["clerk", "age"], "key": ["clerk"]},
            ],
            "inclusions": list(inclusions),
            "views": [{"name": "Sold", "definition": "Sale join Emp"}],
        }
        path = tmp_path / "schema.json"
        path.write_text(json.dumps(data))
        return str(path)

    def test_spec_output(self, tmp_path, capsys):
        path = self.write_spec_file(tmp_path)
        assert main(["spec", path]) == 0
        out = capsys.readouterr().out
        assert "C_Sale = Sale minus pi[item, clerk](Sold)" in out
        assert "minimality" in out
        assert "self-maintenance" in out

    def test_spec_with_ri_prunes(self, tmp_path, capsys):
        path = self.write_spec_file(
            tmp_path,
            inclusions=[
                {
                    "lhs": "Sale",
                    "lhs_attributes": ["clerk"],
                    "rhs": "Emp",
                    "rhs_attributes": ["clerk"],
                }
            ],
        )
        assert main(["spec", path]) == 0
        out = capsys.readouterr().out
        assert "provably empty" in out

    def test_spec_method_flag(self, tmp_path, capsys):
        path = self.write_spec_file(tmp_path)
        assert main(["spec", path, "--method", "trivial"]) == 0
        out = capsys.readouterr().out
        assert "method: trivial" in out


class TestTpcd:
    def test_tpcd_summary(self, capsys):
        assert main(["tpcd", "--scale", "0.2"]) == 0
        out = capsys.readouterr().out
        assert "SalesFact" in out
        assert "complements proven empty" in out


class TestObs:
    def test_obs_explain_replays_figure1(self, capsys):
        assert main(["obs", "explain"]) == 0
        out = capsys.readouterr().out
        assert "initialize" in out
        assert "refresh" in out
        assert "fastpath=anti_join" in out
        assert "fastpath=semi_join" in out
        assert "warehouse.refreshes" in out  # metrics dump at the end

    def test_obs_explain_trace_out(self, tmp_path, capsys):
        path = tmp_path / "figure1.jsonl"
        assert main(["obs", "explain", "--trace-out", str(path)]) == 0
        lines = [line for line in path.read_text().splitlines() if line.strip()]
        records = [json.loads(line) for line in lines]
        assert any(r["name"] == "refresh" for r in records)
        assert any(r["name"] == "read" for r in records)

    def test_obs_report_on_trace_file(self, tmp_path, capsys):
        path = tmp_path / "figure1.jsonl"
        assert main(["obs", "explain", "--trace-out", str(path)]) == 0
        capsys.readouterr()  # discard the explain output
        assert main(["obs", "report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "trace(s)" in out
        assert "read:" in out  # per-relation read rows

    def test_obs_report_sort_and_limit(self, tmp_path, capsys):
        path = tmp_path / "figure1.jsonl"
        main(["obs", "explain", "--trace-out", str(path)])
        capsys.readouterr()
        assert main(["obs", "report", str(path), "--sort", "count", "--limit", "3"]) == 0
        out = capsys.readouterr().out
        assert "trace(s)" in out

    def test_obs_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main(["obs"])


class TestProveCertificates:
    """The one command body behind prove / prove-sharding / prove-query."""

    SPEC = {
        "relations": [{"name": "Emp", "attributes": ["clerk", "age"]}],
        "views": [{"name": "Staff", "definition": "Emp"}],
    }

    @pytest.mark.parametrize("command", ["prove", "prove-sharding", "prove-query"])
    def test_duplicate_stems_are_refused_before_writing(
        self, command, tmp_path, capsys
    ):
        paths = []
        for folder in ("a", "b"):
            (tmp_path / folder).mkdir()
            path = tmp_path / folder / "x.json"
            path.write_text(json.dumps(self.SPEC))
            paths.append(str(path))
        out = tmp_path / "out"
        assert main([command, *paths, "--certificates", str(out)]) == 2
        err = capsys.readouterr().err
        assert paths[0] in err and paths[1] in err
        assert not out.exists()

    def test_distinct_stems_each_get_a_document(self, tmp_path, capsys):
        paths = []
        for name in ("x.json", "y.json"):
            (tmp_path / name).write_text(json.dumps(self.SPEC))
            paths.append(str(tmp_path / name))
        out = tmp_path / "out"
        assert main(["prove", *paths, "--certificates", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["x.cert.json", "y.cert.json"]


class TestArgErrors:
    def test_missing_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["nope"])
