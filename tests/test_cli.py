import json
import subprocess
import sys

import pytest

from mesoscale import cli
from mesoscale.cli import main
from mesoscale.graph import parse_edge_list


def run_cli(*argv, cwd=None):
    """Invoke the CLI in-process, capturing exit code is enough for most tests."""
    return main(list(argv))


def run_cli_proc(*argv, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "mesoscale.cli", *argv],
        capture_output=True, text=True, cwd=cwd,
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
        from mesoscale import sampler
        monkeypatch.setattr(sampler, "physical_memory", lambda: 1024)
        assert run_cli("analyze", "--dataset", "karate", "--samples", "100",
                       "--burn-in", "10", "--coassign") == 1
        assert f"needs {8 * 34 * 34} bytes" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, need", [
        (("--samples", "100000000000", "--burn-in", "0"),
         "needs 2400000000000 bytes"),
        (("--chains", "100000000", "--samples", "20", "--burn-in", "10"),
         "needs 24000000000 bytes"),
        (("--samples", "100", "--burn-in", "10", "--bins", "100000000000"),
         "needs 4800000000000 bytes"),
        (("--samples", "1000", "--burn-in", "0"), "needs 24000 bytes"),
        (("--samples", "100", "--burn-in", "10", "--bins", "500"),
         "needs 24000 bytes"),
    ], ids=["samples", "chains", "bins", "draws-small", "bins-small"])
    def test_arrays_beyond_memory_are_usage_errors(self, monkeypatch, capsys,
                                                   argv, need):
        """Draws (24 bytes each) and density bins (48 bytes each) beyond
        physical memory fail with one error line before any sampling."""
        from mesoscale import sampler
        monkeypatch.setattr(sampler, "physical_memory", lambda: 23999)
        monkeypatch.setattr(sampler, "init_chain", None)  # must not be reached
        assert run_cli("analyze", "--dataset", "karate", *argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert need in err

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
            with pytest.raises(SystemExit) as exc:
                run_cli("analyze", "--dataset", "karate", "--samples", "100",
                        "--burn-in", "10", "--bins", bins)
            assert exc.value.code == 1
            assert "--bins: must be at least 2" in capsys.readouterr().err

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

    def test_probability_out_of_range_is_usage_error(self, tmp_path):
        assert run_cli("generate", "--n", "10", "--p11", "1.2",
                       "--p12", "0.1", "--p22", "0.1",
                       "--out", str(tmp_path / "x")) == 1

    def test_zero_nodes_is_usage_error(self, tmp_path):
        assert run_cli("generate", "--n", "0", "--p11", "0.5", "--p12", "0.5",
                       "--p22", "0.5", "--out", str(tmp_path / "w")) == 1

    def test_sizes_override(self, tmp_path):
        assert run_cli("generate", "--n", "10", "--sizes", "3,7",
                       "--p11", "1.0", "--p12", "1.0", "--p22", "1.0",
                       "--out", str(tmp_path / "y")) == 0
        labels = (tmp_path / "y.labels").read_text().splitlines()
        assert sum(1 for line in labels if line.endswith(" 1")) == 3

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

    def test_zero_nodes_is_usage_error(self):
        assert run_cli("simulate", "--n", "0", "--grid", "0.1",
                       "--replicates", "1", "--samples", "50",
                       "--burn-in", "10") == 1

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

    def test_bad_grid_is_usage_error(self, tmp_path):
        assert run_cli("simulate", "--grid", "0.3:0.1", "--replicates", "1",
                       "--samples", "50", "--burn-in", "10") == 1


class TestOracle:
    def test_triangle_verdict(self, tmp_path):
        path = tmp_path / "tri.txt"
        path.write_text("0 1\n1 2\n0 2\n")
        out = tmp_path / "o.json"
        assert run_cli("oracle", str(path), "--out", str(out)) == 0
        v = json.loads(out.read_text())["verdict"]
        total = v["p_assortative"] + v["p_core_periphery"] + v["p_disassortative"]
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_too_few_quadrature_points_is_usage_error(self, tmp_path):
        path = tmp_path / "tri.txt"
        path.write_text("0 1\n1 2\n0 2\n")
        for points in ("0", "1"):
            assert run_cli("oracle", str(path), "--quad-points", points) == 1

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


def test_cli_import_leaves_out_oracle_only_scipy_modules():
    # no command needs these, not even the oracle; importing them costs ~1 s
    code = ("import sys, mesoscale.cli; "
            "from mesoscale import Graph, Hyperparameters, "
            "exact_structure_posterior; "
            "exact_structure_posterior(Graph.from_edges([(0, 1)], n=3), "
            "Hyperparameters.uniform(3)); "
            "print([m for m in ('scipy.stats', 'scipy.integrate') "
            "if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
