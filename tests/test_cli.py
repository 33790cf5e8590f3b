import contextlib
import csv
import io
import json
import os
import pathlib
import re
import subprocess
import sys
import tempfile
import textwrap

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mesoscale import cli
from mesoscale.cli import main
from mesoscale.graph import parse_edge_list

# subprocesses import the package under test, whether or not it is installed
SRC = os.path.dirname(os.path.dirname(cli.__file__))
PROC_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, [SRC, os.environ.get("PYTHONPATH")]))}


def run_cli(*argv, cwd=None):
    """Invoke the CLI in-process, capturing exit code is enough for most tests."""
    return main(list(argv))


def run_cli_proc(*argv, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "mesoscale.cli", *argv],
        capture_output=True, text=True, cwd=cwd, env=PROC_ENV,
    )


@pytest.fixture(scope="module")
def karate_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "karate.json"
    code = run_cli("analyze", "--dataset", "karate", "--samples", "1200",
                   "--burn-in", "300", "--seed", "1", "--out", str(out))
    assert code == 0
    return json.loads(out.read_text())


class TestAnalyze:
    def test_report_schema(self, karate_report):
        r = karate_report
        assert r["schema_version"] == 1
        assert r["input"]["source"] == "dataset:karate"
        assert r["input"]["n"] == 34
        assert r["input"]["m"] == 78
        assert len(r["input"]["edge_list_sha256"]) == 64
        assert r["config"]["chain"]["total_samples"] == 1200
        assert r["config"]["chain"]["seed"] == 1
        assert r["config"]["hyperparameters"]["pi"] == 0.5
        v = r["verdict"]
        total = (v["p_assortative"] + v["p_core_periphery"]
                 + v["p_disassortative"])
        assert total == pytest.approx(1.0, abs=1e-12)
        assert v["n_samples"] == 900
        assert len(r["membership"]) == 34
        assert "1" in r["membership"]  # classic member numbering
        assert len(r["group_size_posterior"]) == 35
        assert r["density"]["bins"] == 50
        assert 0 <= r["swap_acceptance_rate"] <= 1
        assert "duration_seconds" not in r  # only with --timing

    def test_membership_values_are_probabilities(self, karate_report):
        values = list(karate_report["membership"].values())
        assert all(0.0 <= v <= 1.0 for v in values)

    def test_analyze_file_path(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("a b\nb c\nc a\n")
        out = tmp_path / "r.json"
        code = run_cli("analyze", str(path), "--samples", "200",
                       "--burn-in", "50", "--out", str(out))
        assert code == 0
        r = json.loads(out.read_text())
        assert r["input"]["n"] == 3
        assert set(r["membership"]) == {"a", "b", "c"}

    def test_node_sidecar_adds_isolated_nodes(self, tmp_path):
        edges = tmp_path / "edges.txt"
        edges.write_text("a b\n")
        nodes = tmp_path / "nodes.txt"
        nodes.write_text("a\nb\nhermit\n")
        out = tmp_path / "r.json"
        code = run_cli("analyze", str(edges), "--nodes", str(nodes),
                       "--samples", "100", "--burn-in", "10", "--out", str(out))
        assert code == 0
        assert json.loads(out.read_text())["input"]["n"] == 3

    @pytest.mark.parametrize("sidecar, message", [
        ("a b\nc\n", "line 1: expected one node name, got 2"),
        ("a\nc\na\n", "node list repeats the name 'a'"),
    ], ids=["two-names-on-a-line", "repeated-name"])
    def test_malformed_node_sidecar_is_data_error(self, tmp_path, capsys,
                                                  monkeypatch, sidecar, message):
        """One name per line, each once: the parser once split the file on
        any whitespace and merged repeated names, and ran with n = 3 and 2."""
        monkeypatch.setattr(cli, "run_chain", None)  # not reached
        edges = tmp_path / "edges.txt"
        edges.write_text("a c\n")
        nodes = tmp_path / "nodes.txt"
        nodes.write_text(sidecar)
        assert run_cli("analyze", str(edges), "--nodes", str(nodes)) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and message in err
        assert err.count("\n") == 1

    def test_burn_in_exceeding_samples_is_usage_error(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("0 1\n")
        assert run_cli("analyze", str(path), "--samples", "100",
                       "--burn-in", "200") == 1

    def test_no_retained_draws_is_usage_error(self, capsys):
        assert run_cli("analyze", "--dataset", "karate", "--samples", "10",
                       "--burn-in", "5", "--thin", "10") == 1
        assert "no draws retained" in capsys.readouterr().err

    def test_empty_edge_file_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "empty.txt"
        path.write_text("")
        assert run_cli("analyze", str(path), "--samples", "100",
                       "--burn-in", "10") == 2
        assert "no nodes" in capsys.readouterr().err

    def test_coassign_beyond_memory_is_usage_error(self, monkeypatch, capsys):
        """The tally alone exceeds memory: 2 density bins take 96 bytes."""
        from mesoscale import sampler
        monkeypatch.setattr(sampler, "physical_memory", lambda: 1024)
        assert run_cli("analyze", "--dataset", "karate", "--samples", "100",
                       "--burn-in", "10", "--bins", "2", "--coassign") == 1
        # summed with the 90 draws' 3780 bytes and the bins' 96
        assert f"needs {4 * 34 * 34 + 3780 + 96} bytes" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, have, need", [
        (("--samples", "100000000000", "--burn-in", "0"), 23999,
         "needs 4200000002400 bytes"),
        (("--chains", "100000000", "--samples", "20", "--burn-in", "10"), 23999,
         "needs 42000002400 bytes"),
        (("--samples", "100", "--burn-in", "10", "--bins", "100000000000"), 23999,
         "needs 4800000003780 bytes"),
        (("--samples", "572", "--burn-in", "0"), 23999, "needs 26424 bytes"),
        (("--samples", "100", "--burn-in", "10", "--bins", "500"), 23999,
         "needs 27780 bytes"),
        (("--samples", "100", "--burn-in", "10", "--emit-traces", "traces.csv"), 23999,
         "--emit-traces: 25290) needs 31470 bytes"),
        # each part fits alone (3780, 2400 and 25290 bytes), their sum does not
        (("--samples", "100", "--burn-in", "10", "--emit-traces", "traces.csv"), 30000,
         "the run (90 draws: 3780, --bins 50: 2400, --emit-traces: 25290) "
         "needs 31470 bytes"),
    ], ids=["samples", "chains", "bins", "draws-small", "bins-small", "traces-small",
            "parts-fit-alone"])
    def test_arrays_beyond_memory_are_usage_errors(self, monkeypatch, capsys,
                                                   tmp_path, argv, have, need):
        """Retained draws (42 bytes each: p and the verdict's temporaries),
        density bins (48 bytes each) and the --emit-traces text (281 bytes a
        draw) beyond physical memory together fail with one error line, which
        names their sum, before any sampling."""
        from mesoscale import sampler
        monkeypatch.setattr(sampler, "physical_memory", lambda: have)
        monkeypatch.setattr(sampler, "init_chain", None)  # must not be reached
        monkeypatch.chdir(tmp_path)
        assert run_cli("analyze", "--dataset", "karate", *argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert need in err
        assert list(tmp_path.iterdir()) == []

    def test_non_finite_prior_is_usage_error(self, monkeypatch, capsys):
        from mesoscale import sampler
        monkeypatch.setattr(sampler, "init_chain", None)  # must not be reached
        for flag, value in (("--pi", "nan"), ("--a0", "nan"), ("--a0", "inf")):
            assert run_cli("analyze", "--dataset", "karate", "--samples", "100",
                           "--burn-in", "10", flag, value) == 1
            assert "error:" in capsys.readouterr().err

    def test_too_few_bins_is_usage_error(self, monkeypatch, capsys):
        from mesoscale import sampler
        monkeypatch.setattr(sampler, "init_chain", None)  # must not be reached
        for bins in ("1", "0", "-3"):
            assert run_cli("analyze", "--dataset", "karate", "--samples", "100",
                           "--burn-in", "10", "--bins", bins) == 1
            assert "--bins must be at least 2" in capsys.readouterr().err

    def test_output_in_missing_directory_is_usage_error(self, tmp_path, capsys,
                                                        monkeypatch):
        monkeypatch.setattr(cli, "run_chain", None)  # must not be reached
        missing = tmp_path / "missing"
        for flag in ("--out", "--emit-traces", "--emit-densities"):
            assert run_cli("analyze", "--dataset", "karate", "--samples", "30",
                           "--burn-in", "10", flag, str(missing / "r.csv")) == 1
            assert capsys.readouterr().err.startswith("error:")
        assert not missing.exists()

    def test_parse_error_is_data_error(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 0\n")
        assert run_cli("analyze", str(path), "--samples", "100",
                       "--burn-in", "10") == 2

    def test_missing_file_is_data_error(self):
        assert run_cli("analyze", "/nonexistent/edges.txt",
                       "--samples", "100", "--burn-in", "10") == 2

    def test_densities_csv_is_the_report_density_block(self, tmp_path):
        out, dens = tmp_path / "r.json", tmp_path / "d.csv"
        assert run_cli("analyze", "--dataset", "karate", "--samples", "300",
                       "--burn-in", "100", "--bins", "7", "--out", str(out),
                       "--emit-densities", str(dens)) == 0
        density = json.loads(out.read_text())["density"]
        rows = [line.split(",") for line in dens.read_text().splitlines()[1:]]
        assert density["bins"] == 7 and len(rows) == 3 * 7
        for name in ("p11", "p12", "p22"):
            edges, mass = density[name]["bin_edges"], density[name]["mass"]
            assert [tuple(map(float, row[1:])) for row in rows
                    if row[0] == name] == list(zip(edges, edges[1:], mass))

    def test_csv_format_and_emissions(self, tmp_path):
        out = tmp_path / "r.csv"
        traces = tmp_path / "traces.csv"
        dens = tmp_path / "dens.csv"
        code = run_cli("analyze", "--dataset", "karate", "--samples", "300",
                       "--burn-in", "100", "--seed", "2",
                       "--format", "csv", "--out", str(out),
                       "--emit-traces", str(traces),
                       "--emit-densities", str(dens))
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "key,value"
        assert any(line.startswith("verdict.p_core_periphery,") for line in lines)
        trace_lines = traces.read_text().splitlines()
        assert trace_lines[0] == "draw,p11,p12,p22"
        assert len(trace_lines) == 1 + 200
        dens_lines = dens.read_text().splitlines()
        assert dens_lines[0] == "component,bin_left,bin_right,mass"
        assert len(dens_lines) == 1 + 3 * 50

    def test_csv_quotes_names_with_commas_and_quotes(self, tmp_path):
        edges = tmp_path / "g.edges"
        edges.write_text('a,b c\nc d"e\nd"e a,b\n')
        out = tmp_path / "r.csv"
        assert run_cli("analyze", str(edges), "--samples", "30", "--burn-in", "10",
                       "--format", "csv", "--out", str(out)) == 0
        with out.open(newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["key", "value"]
        assert all(len(row) == 2 for row in rows)
        keys = [key for key, _ in rows]
        assert {"membership.a,b", 'membership.d"e', "membership.c"} <= set(keys)


class TestGenerate:
    def test_output_in_missing_directory_is_usage_error(self, tmp_path, capsys,
                                                        monkeypatch):
        monkeypatch.setattr(cli, "generate_sbm", None)  # must not be reached
        missing = tmp_path / "missing"
        assert run_cli("generate", "--n", "10", "--p11", "0.5", "--p12", "0.1",
                       "--p22", "0.5", "--out", str(missing / "net")) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not missing.exists()
        assert list(tmp_path.iterdir()) == []

    def test_writes_reproducible_files(self, tmp_path):
        args = ("generate", "--n", "100", "--frac", "0.4", "--p11", "0.20",
                "--p12", "0.15", "--p22", "0.10", "--seed", "7",
                "--out", str(tmp_path / "net"))
        assert run_cli(*args) == 0
        edges_text = (tmp_path / "net.edges").read_text()
        labels_text = (tmp_path / "net.labels").read_text()
        assert run_cli(*args) == 0
        assert (tmp_path / "net.edges").read_text() == edges_text
        assert (tmp_path / "net.labels").read_text() == labels_text

        g = parse_edge_list(edges_text)
        labels = dict(line.split() for line in labels_text.splitlines())
        assert len(labels) == 100
        assert sum(1 for v in labels.values() if v == "1") == 40
        assert g.n <= 100  # isolated nodes don't appear in the edge list

    def test_node_file_keeps_isolated_nodes(self, tmp_path, capsys):
        """With PREFIX.nodes, analyze fits all --n nodes, isolated ones too."""
        prefix = tmp_path / "sbm"
        assert run_cli("generate", "--n", "5", "--p11", "0.5", "--p12", "0.5",
                       "--p22", "0.5", "--out", str(prefix)) == 0
        assert f"{prefix}.nodes" in capsys.readouterr().err
        assert parse_edge_list((tmp_path / "sbm.edges").read_text()).n < 5
        out = tmp_path / "r.json"
        assert run_cli("analyze", f"{prefix}.edges", "--nodes", f"{prefix}.nodes",
                       "--samples", "30", "--burn-in", "10", "--out", str(out)) == 0
        assert json.loads(out.read_text())["input"]["n"] == 5

    def test_probability_out_of_range_is_usage_error(self, tmp_path, capsys):
        assert run_cli("generate", "--n", "10", "--p11", "1.2", "--p12", "0.1",
                       "--p22", "0.1", "--out", str(tmp_path / "x")) == 1
        assert "--p11 must lie in [0, 1], got 1.2" in capsys.readouterr().err

    def test_zero_nodes_is_usage_error(self, tmp_path, capsys):
        assert run_cli("generate", "--n", "0", "--p11", "0.5", "--p12", "0.5",
                       "--p22", "0.5", "--out", str(tmp_path / "w")) == 1
        assert "--n must be at least 1, got 0" in capsys.readouterr().err

    def test_sizes_override(self, tmp_path):
        assert run_cli("generate", "--n", "10", "--sizes", "3,7",
                       "--p11", "1.0", "--p12", "1.0", "--p22", "1.0",
                       "--out", str(tmp_path / "y")) == 0
        labels = (tmp_path / "y.labels").read_text().splitlines()
        assert sum(1 for line in labels if line.endswith(" 1")) == 3

    def test_sizes_without_two_values_is_usage_error(self, tmp_path, capsys,
                                                     monkeypatch):
        monkeypatch.setattr(cli, "generate_sbm", None)  # must not be reached
        with pytest.raises(SystemExit) as exc:
            run_cli("generate", "--n", "10", "--sizes", "3", "--p11", "0.5",
                    "--p12", "0.5", "--p22", "0.5", "--out", str(tmp_path / "z"))
        assert exc.value.code == 1
        assert "--sizes: expected two block sizes n1,n2" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_sizes_not_summing_is_usage_error(self, tmp_path):
        assert run_cli("generate", "--n", "10", "--sizes", "3,5",
                       "--p11", "0.5", "--p12", "0.5", "--p22", "0.5",
                       "--out", str(tmp_path / "z")) == 1


class TestSimulate:
    def test_default_grid_has_nine_points(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run_cli("simulate", "--n", "24", "--replicates", "1",
                       "--samples", "60", "--burn-in", "20",
                       "--out", str(out))
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1 + 9
        grid = [float(line.split(",")[0]) for line in lines[1:]]
        assert grid == pytest.approx([0.05, 0.075, 0.10, 0.125, 0.15,
                                      0.175, 0.20, 0.225, 0.25])

    def test_rows_normalized_and_raw_emission(self, tmp_path):
        out = tmp_path / "sweep.csv"
        raw = tmp_path / "raw.csv"
        code = run_cli("simulate", "--n", "20", "--grid", "0.1,0.5",
                       "--replicates", "2", "--samples", "80",
                       "--burn-in", "20", "--out", str(out),
                       "--raw-out", str(raw))
        assert code == 0
        for line in out.read_text().strip().splitlines()[1:]:
            cols = [float(t) for t in line.split(",")]
            assert cols[1] + cols[3] + cols[5] == pytest.approx(1.0, abs=1e-9)
            assert all(0 <= cols[k] <= 1 for k in (1, 3, 5))
        raw_lines = raw.read_text().strip().splitlines()
        assert raw_lines[0] == "p12,replicate,p_assortative,p_cp,p_disassortative"
        assert len(raw_lines) == 1 + 2 * 2

    def test_zero_nodes_is_usage_error(self, capsys):
        assert run_cli("simulate", "--n", "0", "--grid", "0.1", "--replicates",
                       "1", "--samples", "50", "--burn-in", "10") == 1
        assert "--n must be at least 1, got 0" in capsys.readouterr().err

    def test_output_in_missing_directory_is_usage_error(self, tmp_path, capsys,
                                                        monkeypatch):
        monkeypatch.setattr(cli, "run_sweep", None)  # must not be reached
        missing = tmp_path / "missing"
        for flag in ("--out", "--raw-out"):
            assert run_cli("simulate", "--n", "16", "--grid", "0.2",
                           "--replicates", "1", "--samples", "50",
                           "--burn-in", "10", flag, str(missing / "s.csv")) == 1
            assert capsys.readouterr().err.startswith("error:")
        assert not missing.exists()

    def test_grid_value_out_of_range_fails_before_any_fit(self, monkeypatch,
                                                          capsys):
        from mesoscale import synth
        monkeypatch.setattr(synth, "run_chain", None)  # must not be reached
        assert run_cli("simulate", "--grid", "0.1,1.5", "--replicates", "20",
                       "--samples", "50", "--burn-in", "10") == 1
        assert "[0, 1]" in capsys.readouterr().err

    @pytest.mark.parametrize("grid, points", [
        ("0.9:1:0.15", (0.9,)),
        ("0.05:0.2:0.1", (0.05, 0.15)),
        ("0.1:0.3:0.1", (0.1, 0.2, 0.3)),
        ("0.05:0.25:0.025", cli.PAPER_GRID),
    ], ids=["grid-range-last-point", "step-past-stop", "inexact-quotient",
            "paper-grid"])
    def test_grid_range_stops_at_stop(self, grid, points):
        """A range holds every start + k*step up to stop and none past it."""
        assert cli._parse_grid(grid) == points

    def test_bad_grid_is_usage_error(self, tmp_path):
        assert run_cli("simulate", "--grid", "0.3:0.1", "--replicates", "1",
                       "--samples", "50", "--burn-in", "10") == 1

    @pytest.mark.parametrize("grid, message", [
        ("", "comma list or start:stop:step"),
        ("0.25:0.05:0.025", "stop >= start"),
        ("0.05:0.25:0", "step > 0"),
    ], ids=["empty", "descending", "zero-step"])
    def test_grid_errors_name_the_option(self, monkeypatch, capsys, grid,
                                         message):
        """An empty grid is not the paper grid, and a descending range is
        refused with a message naming --grid; neither runs a fit."""
        from mesoscale import synth
        monkeypatch.setattr(synth, "run_chain", None)  # must not be reached
        assert run_cli("simulate", f"--grid={grid}", "--replicates", "1",
                       "--samples", "50", "--burn-in", "10") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --grid") and message in err

    def test_grid_beyond_memory_is_usage_error(self, monkeypatch, capsys):
        """A range's points are counted before any array is built: 0:1:1e-9
        holds 10^9 of them, about 64 bytes each."""
        from mesoscale import sampler, synth
        monkeypatch.setattr(sampler, "physical_memory", lambda: 10**9)
        monkeypatch.setattr(cli.np, "linspace", None)  # must not be reached
        monkeypatch.setattr(synth, "run_chain", None)
        assert run_cli("simulate", "--grid", "0:1:1e-9", "--replicates", "1",
                       "--samples", "50", "--burn-in", "10") == 1
        err = capsys.readouterr().err
        assert err == ("error: --grid 0:1:1e-9 needs 64000000064 bytes, more "
                       "than the 1000000000 bytes of physical memory\n")


class TestOracle:
    def test_triangle_verdict(self, tmp_path):
        path = tmp_path / "tri.txt"
        path.write_text("0 1\n1 2\n0 2\n")
        out = tmp_path / "o.json"
        assert run_cli("oracle", str(path), "--out", str(out)) == 0
        report = json.loads(out.read_text())
        v = report["verdict"]
        total = v["p_assortative"] + v["p_core_periphery"] + v["p_disassortative"]
        assert total == pytest.approx(1.0, abs=1e-8)
        assert 0 < report["quadrature_error"] < 1e-2

    def test_triangle_verdict_at_small_shapes(self, tmp_path):
        """a0 = b0 = 0.2, where 2e6 direct Monte Carlo draws give (0.2630,
        0.3769, 0.3601) +- 0.0003."""
        path = tmp_path / "tri.txt"
        path.write_text("0 1\n1 2\n0 2\n")
        out = tmp_path / "o.json"
        assert run_cli("oracle", str(path), "--a0", "0.2", "--b0", "0.2",
                       "--out", str(out)) == 0
        report = json.loads(out.read_text())
        v = report["verdict"]
        assert (v["p_assortative"], v["p_core_periphery"], v["p_disassortative"]) \
            == pytest.approx((0.263, 0.377, 0.360), abs=1e-3)
        assert report["quadrature_error"] < 1e-2

    def test_too_few_quadrature_points_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "tri.txt"
        path.write_text("0 1\n1 2\n0 2\n")
        for points in ("0", "1", "2"):
            assert run_cli("oracle", str(path), "--quad-points", points) == 1
            assert "--quad-points must be at least 3" in capsys.readouterr().err

    def test_quadrature_grid_beyond_memory_is_usage_error(self, tmp_path,
                                                          capsys, monkeypatch):
        from mesoscale import sampler
        monkeypatch.setattr(sampler, "physical_memory", lambda: 10**9)
        monkeypatch.setattr(cli, "exact_structure_posterior", None)  # not reached
        path = tmp_path / "tri.txt"
        path.write_text("0 1\n1 2\n0 2\n")
        assert run_cli("oracle", str(path), "--quad-points", "1000000000000") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --quad-points 1000000000000 needs "
                              "16000000000000 bytes") and err.count("\n") == 1

    @pytest.mark.parametrize("prior", [["--a0", "1e6"],
                                       ["--a0", "1e300", "--b0", "1e300"],
                                       ["--a0", "0.01"]],
                             ids=["a0-1e6", "a0-b0-1e300", "a0-0.01"])
    def test_impossible_verdict_is_numeric_error(self, tmp_path, prior):
        """Quadrature error bounds of 0.28, 0.5 and 0.38 on the triangle exit 3
        with one line on stderr and no warning."""
        path = tmp_path / "tri.txt"
        path.write_text("0 1\n1 2\n0 2\n")
        proc = run_cli_proc("oracle", str(path), *prior)
        assert proc.returncode == 3 and proc.stdout == ""
        assert proc.stderr.startswith("numerical error: the quadrature error bound")
        assert proc.stderr.count("\n") == 1

    def test_coarse_grid_is_numeric_error(self, tmp_path, capsys):
        """65 points on a 14-node SBM bound the error by 0.13: exit 3, and the
        message says to raise --quad-points."""
        prefix = str(tmp_path / "sbm")
        assert run_cli("generate", "--n", "14", "--sizes", "6,8", "--p11", "0.7",
                       "--p12", "0.3", "--p22", "0.2", "--seed", "13",
                       "--out", prefix) == 0
        capsys.readouterr()
        assert run_cli("oracle", f"{prefix}.edges", "--nodes", f"{prefix}.nodes",
                       "--quad-points", "65") == 3
        err = capsys.readouterr().err
        assert err == ("numerical error: the quadrature error bound 0.13 exceeds "
                       "0.01; raise --quad-points\n")

    def test_report_echoes_prior(self, tmp_path):
        path = tmp_path / "tri.txt"
        path.write_text("0 1\n1 2\n0 2\n")
        out = tmp_path / "o.json"
        assert run_cli("oracle", str(path), "--pi", "0.2", "--a0-12", "0.5",
                       "--out", str(out)) == 0
        hyper = json.loads(out.read_text())["config"]["hyperparameters"]
        assert hyper == {"a0_11": 1.0, "b0_11": 1.0, "a0_12": 0.5, "b0_12": 1.0,
                         "a0_22": 1.0, "b0_22": 1.0, "pi": 0.2}

    def test_output_in_missing_directory_is_usage_error(self, tmp_path, capsys,
                                                        monkeypatch):
        monkeypatch.setattr(cli, "exact_structure_posterior", None)  # not reached
        path = tmp_path / "tri.txt"
        path.write_text("0 1\n1 2\n0 2\n")
        missing = tmp_path / "missing"
        assert run_cli("oracle", str(path), "--out", str(missing / "o.json")) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not missing.exists()

    def test_large_graph_refused(self, tmp_path):
        path = tmp_path / "big.txt"
        path.write_text("".join(f"{i} {i+1}\n" for i in range(19)))
        assert run_cli("oracle", str(path)) == 1


class TestDeterminism:
    def test_repeated_analyze_runs_are_byte_identical(self, tmp_path):
        outs = []
        for rep in range(2):
            proc = run_cli_proc(
                "analyze", "--dataset", "karate", "--samples", "500",
                "--burn-in", "100", "--seed", "11",
            )
            assert proc.returncode == 0
            outs.append(proc.stdout)
        assert outs[0] == outs[1]
        assert outs[0].lstrip().startswith("{")

    def test_repeated_simulate_runs_are_byte_identical(self, tmp_path):
        outs = []
        for rep in range(2):
            proc = run_cli_proc(
                "simulate", "--n", "16", "--grid", "0.2", "--replicates", "2",
                "--samples", "50", "--burn-in", "10", "--seed", "3",
            )
            assert proc.returncode == 0
            outs.append(proc.stdout)
        assert outs[0] == outs[1]


def test_cli_entry_point_help():
    proc = run_cli_proc("--help")
    assert proc.returncode == 0
    for sub in ("analyze", "generate", "simulate", "oracle"):
        assert sub in proc.stdout


ANALYZE = ["analyze", "--dataset", "karate", "--samples", "30", "--burn-in", "10"]
SIMULATE = ["simulate", "--grid", "0.1", "--replicates", "1", "--samples", "30",
            "--burn-in", "10"]
GENERATE = ["generate", "--n", "10", "--p11", "0.5", "--p12", "0.1", "--p22", "0.5"]
ORACLE = ["oracle", "--dataset", "karate"]


@pytest.mark.parametrize("command", [ANALYZE, SIMULATE, GENERATE],
                         ids=["analyze", "simulate", "generate"])
def test_negative_seed_is_usage_error(command, monkeypatch, capsys, tmp_path):
    for name in ("run_chain", "run_sweep", "generate_sbm"):
        monkeypatch.setattr(cli, name, None)  # must not be reached
    with pytest.raises(SystemExit) as exc:
        run_cli(*command, "--seed", "-1", "--out", str(tmp_path / "x"))
    assert exc.value.code == 1
    assert "argument --seed: must be at least 0" in capsys.readouterr().err


@pytest.mark.parametrize("command, option, message", [
    (ANALYZE, ["--samples", "0"], "error: --samples must be at least 1, got 0"),
    (ANALYZE, ["--thin", "0"], "error: --thin must be at least 1, got 0"),
    (ANALYZE, ["--chains", "0"], "error: --chains must be at least 1, got 0"),
    (SIMULATE, ["--samples", "0"], "error: --samples must be at least 1, got 0"),
    (SIMULATE, ["--replicates", "0"], "error: --replicates must be at least 1, got 0"),
    (SIMULATE, ["--frac", "1.5"], "argument --frac: must be in [0.0, 1.0], got 1.5"),
    (ANALYZE, ["--burn-in", "-5"], "error: --burn-in must be at least 0, got -5"),
    (SIMULATE, ["--burn-in", "-5"], "error: --burn-in must be at least 0, got -5"),
    (GENERATE, ["--frac", "nan"], "argument --frac: must be in [0.0, 1.0]"),
    (GENERATE, ["--sizes=-3,19"],
     "error: --sizes (-3,19) must be nonnegative and sum to --n (10)"),
    # a value that starts with '-' reaches its option's own check
    (GENERATE, ["--sizes", "-3,19"],
     "error: --sizes (-3,19) must be nonnegative and sum to --n (10)"),
    (GENERATE, ["--sizes", "2,2"],
     "error: --sizes (2,2) must be nonnegative and sum to --n (10)"),
    (GENERATE, ["--p11", "1.5"], "error: --p11 must lie in [0, 1], got 1.5"),
    (GENERATE, ["--p12", "nan"], "error: --p12 must lie in [0, 1], got nan"),
    (GENERATE, ["--p22", "-0.1"], "error: --p22 must lie in [0, 1], got -0.1"),
    (SIMULATE, ["--p11", "1.5"], "error: --p11 must lie in [0, 1], got 1.5"),
    (SIMULATE, ["--p22", "nan"], "error: --p22 must lie in [0, 1], got nan"),
    (SIMULATE, ["--grid", "0.1,1.5"], "error: --grid values must lie in [0, 1], got 1.5"),
    (SIMULATE, ["--grid", "nan"], "error: --grid values must lie in [0, 1], got nan"),
    (SIMULATE, ["--grid", "0.9:1.2:0.1"],
     "error: --grid values must lie in [0, 1], got 1.2"),
    (SIMULATE, ["--grid", "0:1e-11:1e-12"],
     "error: --grid points must differ, got 0.0 twice"),
    (SIMULATE, ["--grid", "0.1,0.1"], "error: --grid points must differ, got 0.1 twice"),
    (ANALYZE, ["--samples", "100", "--burn-in", "10", "--thin", "1000"],
     "error: no draws retained: --thin (1000) exceeds --samples minus "
     "--burn-in (90)"),
    (ANALYZE, ["--pi", "1"], "error: --pi must lie strictly in (0, 1), got 1.0"),
    (ANALYZE, ["--pi", "-inf"], "error: --pi must lie strictly in (0, 1), got -inf"),
    (ANALYZE, ["--pi", "--a0", "1"], "argument --pi: expected one argument"),
    (ORACLE, ["--pi", "0"], "error: --pi must lie strictly in (0, 1), got 0.0"),
    (ANALYZE, ["--a0", "-1"],
     "error: --a0-11 (or --a0) must be finite and positive, got -1.0"),
    (ANALYZE, ["--a0", "-1e-3"],
     "error: --a0-11 (or --a0) must be finite and positive, got -0.001"),
    (ANALYZE, ["--b0-22", "inf"],
     "error: --b0-22 (or --b0) must be finite and positive, got inf"),
    (ORACLE, ["--a0-12", "0"],
     "error: --a0-12 (or --a0) must be finite and positive, got 0.0"),
    (ANALYZE, ["--b0", "-1"],
     "error: --b0-11 (or --b0) must be finite and positive, got -1.0"),
    (["analyze", "--dataset", "karate", "--coassign"],
     ["--samples", str(2**23 + 1), "--burn-in", "0"],
     "error: --coassign tallies at most 8388608 retained draws exactly, got "
     "8388609 (--chains times the draws each chain retains)"),
], ids=["analyze-samples", "thin", "chains", "simulate-samples", "replicates",
        "simulate-frac", "analyze-burn-in", "simulate-burn-in", "generate-frac",
        "sizes", "sizes-dash", "sizes-not-n", "generate-p11", "generate-p12-nan",
        "generate-p22", "simulate-p11", "simulate-p22-nan", "grid-value",
        "grid-nan", "grid-range-stop", "grid-range-repeats", "grid-list-repeats",
        "thin-retains-nothing", "pi", "pi-minus-inf", "pi-no-value",
        "oracle-pi", "a0", "a0-exponent", "b0-22", "oracle-a0-12", "b0", "coassign"])
def test_bad_value_names_the_option(command, option, message, monkeypatch,
                                    capsys, tmp_path):
    """Exit 1 before any work, with a message naming the option: argparse
    rejects a missing value, a value that does not parse and a bad --seed or
    --frac, the config objects (ChainConfig, Hyperparameters, GeneratorSpec,
    SweepSpec) every other value out of range, "-inf" and "-3,19" too."""
    for name in ("run_chain", "run_sweep", "generate_sbm", "_load_graph",
                 "exact_structure_posterior"):
        monkeypatch.setattr(cli, name, None)  # must not be reached
    try:
        code = run_cli(*command, *option, "--out", str(tmp_path / "x"))
    except SystemExit as exc:
        code = exc.code
    assert code == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command", [ANALYZE, SIMULATE],
                         ids=["analyze", "simulate"])
@pytest.mark.parametrize("burn_in", ["100", "200"])
def test_burn_in_not_below_samples_names_both_options(command, burn_in,
                                                      monkeypatch, capsys,
                                                      tmp_path):
    for name in ("run_chain", "run_sweep"):
        monkeypatch.setattr(cli, name, None)  # must not be reached
    assert run_cli(*command, "--samples", "100", "--burn-in", burn_in,
                   "--out", str(tmp_path / "x")) == 1
    assert capsys.readouterr().err == (
        f"error: --burn-in ({burn_in}) must be smaller than --samples (100)\n")


@pytest.mark.parametrize("command", [
    ["generate", "--n", "30000", "--p11", "0.001", "--p12", "0.001", "--p22", "0.001"],
    ["simulate", "--n", "30000", "--p11", "0.001", "--p22", "0.001", "--grid", "0.001",
     "--replicates", "1", "--samples", "30", "--burn-in", "10"],
], ids=["generate", "simulate"])
def test_graph_beyond_memory_is_usage_error(command, monkeypatch, capsys, tmp_path):
    """A graph whose generation would not fit (2.5 MB, 160 bytes a node and
    240 an expected edge) is refused before any array is built or any fit
    runs."""
    from mesoscale import sampler, synth
    monkeypatch.setattr(sampler, "physical_memory", lambda: 10**8)
    monkeypatch.setattr(cli, "generate_sbm", None)  # must not be reached
    monkeypatch.setattr(synth, "run_chain", None)
    assert run_cli(*command, "--out", str(tmp_path / "x")) == 1
    assert capsys.readouterr().err == (
        "error: --n 30000 needs 115296400 bytes, more than the 100000000 "
        "bytes of physical memory\n")
    assert list(tmp_path.iterdir()) == []


def raise_memory_error(message):
    def allocate(*args, **kwargs):
        raise MemoryError(message)
    return allocate


@pytest.mark.parametrize("command, module, name, message, err", [
    (["simulate", "--n", "18000", "--p11", "0.001", "--p22", "0.001", "--grid",
      "0.001", "--replicates", "1", "--samples", "30", "--burn-in", "10"],
     "synth", "generate_sbm", "Unable to allocate 445. MiB for an array",
     "error: out of memory: Unable to allocate 445. MiB for an array\n"),
    (["analyze", "--dataset", "karate"], "cli", "run_chain", "",
     "error: out of memory\n"),
], ids=["simulate-generate_sbm", "analyze-run_chain"])
def test_memory_error_is_usage_error(command, module, name, message, err,
                                     monkeypatch, capsys, tmp_path):
    """An allocation that fails below physical memory, as under an
    address-space limit, exits 1 with one error line, not a traceback."""
    from mesoscale import synth
    monkeypatch.setattr({"cli": cli, "synth": synth}[module], name,
                        raise_memory_error(message))
    assert run_cli(*command, "--out", str(tmp_path / "x")) == 1
    assert capsys.readouterr().err == err
    assert list(tmp_path.iterdir()) == []


def test_every_public_name_resolves():
    import mesoscale
    assert [name for name in mesoscale.__all__ if not hasattr(mesoscale, name)] == []


def test_only_the_oracle_imports_scipy(tmp_path):
    """analyze, simulate and generate (without --coassign) run on numpy
    alone; the oracle loads scipy.special and nothing heavier."""
    code = textwrap.dedent(f"""
        import sys
        import mesoscale
        import mesoscale.cli
        out = {str(tmp_path)!r}
        for argv in (
            ["analyze", "--dataset", "karate", "--samples", "40",
             "--burn-in", "10", "--out", out + "/a.json",
             "--emit-traces", out + "/t.csv", "--emit-densities", out + "/d.csv"],
            ["simulate", "--n", "12", "--grid", "0.1", "--replicates", "1",
             "--samples", "40", "--burn-in", "10", "--out", out + "/s.csv"],
            ["generate", "--n", "10", "--p11", "0.5", "--p12", "0.1",
             "--p22", "0.5", "--out", out + "/g"],
        ):
            assert mesoscale.cli.main(argv) == 0, argv
        print(sorted(m for m in sys.modules
                     if m == "scipy" or m.startswith("scipy.")))
        mesoscale.exact_structure_posterior(
            mesoscale.Graph.from_edges([(0, 1)], n=3),
            mesoscale.Hyperparameters.uniform())
        print([m in sys.modules
               for m in ("scipy.special", "scipy.stats", "scipy.integrate")])
    """)
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=PROC_ENV)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "[True, False, False]"]



@pytest.mark.parametrize("bad_file", ["edges", "nodes"])
@pytest.mark.parametrize("command", [["analyze", "--samples", "30", "--burn-in", "10"],
                                     ["oracle"]], ids=["analyze", "oracle"])
def test_input_that_is_not_utf8_is_data_error(command, bad_file, monkeypatch,
                                              capsys, tmp_path):
    """A 0xff byte in the edge list or the --nodes sidecar exits 2 with one
    line naming the file, before any work."""
    for name in ("run_chain", "exact_structure_posterior"):
        monkeypatch.setattr(cli, name, None)  # must not be reached
    files = {"edges": b"a b\n", "nodes": b"a\nb\n"}
    files[bad_file] += b"\xff\n"
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    assert run_cli(*command, str(tmp_path / "edges"),
                   "--nodes", str(tmp_path / "nodes")) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"data error: cannot read {tmp_path / bad_file}: ")
    assert "can't decode byte 0xff" in err and err.count("\n") == 1


# The exit-code promise as a property: tiny inputs and option values from
# boundary sets, each run twice in-process.
NAMES = ("a", "b", "c", "d", "e")
EDGE_LINES = st.one_of(  # duplicates too, in either orientation
    st.lists(st.sampled_from(NAMES), min_size=2, max_size=2, unique=True).map(
        lambda uv: " ".join(uv).encode()),
    st.sampled_from([b"# comment", b"", b"b a\r"]),
)
BAD_LINES = (b"c c", b"a", b"a b c", b"\xff b")
SIDECAR_LINES = st.lists(st.sampled_from([b"a", b"f", b"g", b""]), max_size=3)
BAD_SIDECAR_LINES = (b"f g", b"\xfe", b"a")
PRIOR_OPTIONS = {
    "--pi": ["0.2", "0.7", "1e-300", "0", "1", "nan", "-inf"],
    "--a0": ["0.5", "3", "1e-300", "1e300", "0", "-1", "nan", "inf"],
    "--b0": ["0.3", "1e300"], "--a0-12": ["2", "1e-300"], "--b0-22": ["2", "1e300"],
}
OPTIONS = {  # the first value of each list is drawn most often
    "analyze": {
        "--samples": ["12", "2", "1", "0"], "--burn-in": ["3", "0", "1", "-1"],
        "--thin": ["3", "20", "0"], "--chains": ["2", "0"], "--seed": ["7", "-1"],
        "--bins": ["2", "5", "1", "0"], "--format": ["csv"],
        **PRIOR_OPTIONS,
    },
    "oracle": {"--quad-points": ["3", "17", "2", "0"], **PRIOR_OPTIONS},
    "generate": {
        "--n": ["6", "1", "2", "0", "-1"], "--p11": ["0.5", "0", "1", "nan"],
        "--p12": ["0.3", "0", "1.5"], "--p22": ["0.2", "1", "-0.1"],
        "--frac": ["0", "1", "1.5"], "--sizes": ["2,4", "0,6", "1,1", "-1,7", "3"],
        "--seed": ["3", "-1"],
    },
    "simulate": {
        "--n": ["6", "1", "2", "0"], "--grid": ["0.1", "0,1", "0:0.2:0.1", "0.1,0.1",
                                                "nan", "0.9:1.2:0.1"],
        "--replicates": ["2", "1", "0"], "--samples": ["6", "2", "0"],
        "--burn-in": ["1", "0", "5", "-1"], "--p11": ["0", "1", "nan"],
        "--p22": ["0.5", "1.5"], "--frac": ["0", "1"], "--seed": ["4", "-1"],
    },
}
REQUIRED = {  # each run stays short: no default chain, sweep or graph size
    "analyze": ("--samples", "--burn-in"), "oracle": (),
    "generate": ("--n", "--p11", "--p12", "--p22"),
    "simulate": ("--n", "--grid", "--replicates", "--samples", "--burn-in"),
}
OUTPUTS = {"analyze": ("--out", "--emit-traces", "--emit-densities"),
           "oracle": ("--out",), "generate": ("--out",),
           "simulate": ("--out", "--raw-out")}
NON_FINITE = re.compile(rb"\b(nan|inf|infinity)\b", re.IGNORECASE)


def with_one_bad_line(draw, lines, bad_lines) -> bytes:
    """Lines drawn from a strategy, and in a third of the files one bad line."""
    lines = draw(lines)
    bad = draw(st.sampled_from((None,) * 2 * len(bad_lines) + bad_lines))
    if bad is not None:
        lines.insert(draw(st.integers(0, len(lines))), bad)
    return b"\n".join(lines)


@st.composite
def cli_calls(draw):
    """(argv without files, edge-list bytes, sidecar bytes or None, output
    options): the required options and at most two others."""
    command = draw(st.sampled_from(sorted(OPTIONS)))
    values, required = OPTIONS[command], REQUIRED[command]
    chosen = required + tuple(draw(st.lists(st.sampled_from(
        [option for option in values if option not in required]),
        max_size=2, unique=True)))
    argv = [command]
    for option in chosen:
        value = draw(st.sampled_from(values[option][:1] * 4 + values[option]))
        argv += [option, value]
    if command == "analyze" and draw(st.booleans()):
        argv.append("--coassign")
    edges = with_one_bad_line(draw, st.lists(EDGE_LINES, min_size=1, max_size=6),
                              BAD_LINES)
    sidecar = None
    if draw(st.sampled_from([False, False, True])):
        sidecar = with_one_bad_line(draw, SIDECAR_LINES, BAD_SIDECAR_LINES)
    outputs = draw(st.lists(st.sampled_from(OUTPUTS[command]), unique=True))
    return argv, edges, sidecar, outputs


def run_in_process(argv: list[str], outdir) -> tuple[int, str, bytes]:
    """main(argv) as (exit code, stderr, stdout and every file it wrote),
    with the files removed."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    out = stdout.getvalue().encode()
    for path in sorted(outdir.iterdir()):
        out += b"\0" + path.name.encode() + b"\0" + path.read_bytes()
        path.unlink()
    return code, stderr.getvalue(), out


@given(cli_calls())
@settings(max_examples=200, derandomize=True, deadline=None)
def test_every_input_runs_or_exits_with_one_documented_line(call):
    """Exit 0, 1, 2 or 3; a nonzero exit prints one stderr line and no
    traceback; no output holds NaN or infinity; a second run of the same
    arguments writes the same bytes."""
    argv, edges, sidecar, outputs = call
    with tempfile.TemporaryDirectory() as tmp:
        inputs, outdir = pathlib.Path(tmp, "in"), pathlib.Path(tmp, "out")
        inputs.mkdir()
        outdir.mkdir()
        if argv[0] in ("analyze", "oracle"):
            (inputs / "edges").write_bytes(edges)
            argv = [*argv, str(inputs / "edges")]
            if sidecar is not None:
                (inputs / "nodes").write_bytes(sidecar)
                argv += ["--nodes", str(inputs / "nodes")]
        if argv[0] == "generate" and "--out" not in outputs:
            outputs = ["--out", *outputs]  # else it writes to the working directory
        for option in outputs:
            argv += [option, str(outdir / option.lstrip("-"))]
        code, err, out = run_in_process(argv, outdir)
        again = run_in_process(argv, outdir)
    assert code in (0, 1, 2, 3), (argv, code, err)
    if code:
        assert err.count("\n") == 1 and err.endswith("\n"), (argv, err)
        assert "Traceback" not in err
        # every drawn option was given a value, "-inf" and "-1" too
        assert "expected one argument" not in err, (argv, err)
    assert not NON_FINITE.search(out), (argv, out)
    # analyze's closing stderr line holds the wall time
    assert again[::2] == (code, out) and (not code or again[1] == err), argv
