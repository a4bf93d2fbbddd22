"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import main


class TestCLI:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "Sampling Dead Block Prediction" in out
        assert "sampler" in out
        assert "mix10" in out
        assert "multicore_comparison(..., mixes=" in out

    def test_storage(self, capsys):
        assert main(["storage"]) == 0
        out = capsys.readouterr().out
        assert "13.75" in out

    def test_power(self, capsys):
        assert main(["power"]) == 0
        out = capsys.readouterr().out
        assert "sampler" in out

    def test_run_single_benchmark(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "32")
        monkeypatch.setenv("REPRO_INSTRUCTIONS", "30000")
        assert main(["run", "hmmer", "sampler"]) == 0
        out = capsys.readouterr().out
        assert "normalized to LRU" in out
        assert "hmmer" in out

    def test_profile(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "32")
        monkeypatch.setenv("REPRO_INSTRUCTIONS", "20000")
        assert main(["profile", "hmmer"]) == 0
        out = capsys.readouterr().out
        assert "reuse profile: hmmer" in out
        assert "cold" in out

    def test_profile_rejects_unknown_benchmark(self):
        with pytest.raises(SystemExit):
            main(["profile", "nope"])

    def test_run_rejects_unknown_benchmark(self):
        with pytest.raises(SystemExit):
            main(["run", "not_a_benchmark"])

    @pytest.mark.parametrize("mix", ["mix1", "mcf+hmmer+lbm+milc"])
    def test_run_names_a_mix_and_where_mixes_run(self, mix):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", mix, "sampler"])
        message = str(excinfo.value.code)
        assert repr(mix) in message and "4-core mix" in message
        assert "unknown workload" not in message
        assert "multicore_comparison(..., mixes=" in message
        assert "bench_fig10_multicore.py" in message

    def test_run_reports_an_ad_hoc_mix_member_that_does_not_resolve(self):
        with pytest.raises(SystemExit, match="unresolvable members"):
            main(["run", "mcf+nope", "sampler"])

    def test_run_rejects_unknown_technique(self):
        with pytest.raises(SystemExit):
            main(["run", "hmmer", "not_a_technique"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])
