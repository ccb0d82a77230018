"""Tests for the modules/consensus CLI subcommands."""

import pytest

from repro.cli import main
from repro.data.io import read_edge_list


@pytest.fixture
def workspace(tmp_path):
    ds = tmp_path / "ds.npz"
    net = tmp_path / "net.npz"
    assert main(["generate", "--genes", "25", "--samples", "150",
                 "--seed", "4", "--out", str(ds)]) == 0
    assert main(["reconstruct", str(ds), "--out", str(tmp_path / "e.tsv"),
                 "--network-out", str(net), "--permutations", "15"]) == 0
    return ds, net, tmp_path


class TestModulesCommand:
    def test_modularity(self, workspace, capsys):
        ds, net, _ = workspace
        capsys.readouterr()
        rc = main(["modules", str(net), "--min-size", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "modularity modules" in out

    def test_components_with_truth(self, workspace, capsys):
        ds, net, _ = workspace
        capsys.readouterr()
        rc = main(["modules", str(net), "--method", "components",
                   "--truth", str(ds)])
        assert rc == 0
        assert "regulatory coherence" in capsys.readouterr().out

    def test_missing_network(self, tmp_path, capsys):
        rc = main(["modules", str(tmp_path / "nope.npz")])
        assert rc == 2


class TestConsensusCommand:
    def test_end_to_end(self, workspace, capsys):
        ds, _, tmp = workspace
        out = tmp / "consensus.tsv"
        capsys.readouterr()
        rc = main(["consensus", str(ds), "--out", str(out),
                   "--rounds", "4", "--permutations", "10"])
        assert rc == 0
        assert "4 rounds" in capsys.readouterr().out
        read_edge_list(out)  # parses

    def test_missing_input(self, tmp_path, capsys):
        rc = main(["consensus", str(tmp_path / "nope.npz"),
                   "--out", str(tmp_path / "o.tsv")])
        assert rc == 2

    def test_strict_frequency_fewer_edges(self, workspace):
        ds, _, tmp = workspace
        loose, strict = tmp / "l.tsv", tmp / "s.tsv"
        main(["consensus", str(ds), "--out", str(loose), "--rounds", "4",
              "--permutations", "10", "--min-frequency", "0.25"])
        main(["consensus", str(ds), "--out", str(strict), "--rounds", "4",
              "--permutations", "10", "--min-frequency", "1.0"])
        assert len(read_edge_list(strict)) <= len(read_edge_list(loose))


class TestReconstructExtensions:
    def test_exact_testing_flag(self, workspace, tmp_path):
        ds, _, tmp = workspace
        out = tmp / "exact.tsv"
        rc = main(["reconstruct", str(ds), "--out", str(out),
                   "--testing", "exact", "--correction", "none",
                   "--alpha", "0.01", "--permutations", "120"])
        assert rc == 0
        read_edge_list(out)

    def test_underresolved_exact_config_reports_error(self, workspace, tmp_path, capsys):
        ds, _, tmp = workspace
        rc = main(["reconstruct", str(ds), "--out", str(tmp / "x.tsv"),
                   "--testing", "exact", "--correction", "bonferroni",
                   "--permutations", "10"])
        assert rc == 2
        assert "resolves p-values" in capsys.readouterr().err

    def test_exact_rejects_kernel_flags(self, workspace, tmp_path, capsys):
        ds, _, tmp = workspace
        for flags in (["--kernel", "sparse"], ["--kernel-dtype", "float32"]):
            rc = main(["reconstruct", str(ds), "--out", str(tmp / "x.tsv"),
                       "--testing", "exact", "--correction", "none",
                       "--permutations", "10", *flags])
            assert rc == 2
            assert "testing='exact'" in capsys.readouterr().err

    def test_record_written_and_verifies(self, workspace, tmp_path):
        ds, _, tmp = workspace
        record_path = tmp / "run.json"
        rc = main(["reconstruct", str(ds), "--out", str(tmp / "r.tsv"),
                   "--record", str(record_path), "--permutations", "12"])
        assert rc == 0
        from repro.core.provenance import load_run_record, verify_run_record
        from repro.data import load_dataset

        record = load_run_record(record_path)
        assert verify_run_record(record, load_dataset(ds).expression) == []


class TestSweepCommand:
    def test_prints_table(self, capsys):
        rc = main(["sweep", "--genes", "500", "--top", "4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "fastest 4 configurations" in out
        assert "Xeon Phi" in out
