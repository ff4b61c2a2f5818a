import numpy as np
import pytest

from specsource.cli import EXIT_CONFIG, main
from specsource.config import config_hash, load_run_config
from specsource.errors import ConfigError

BASIC = """\
data: data.csv
output: out
seed: 7
scenario:
  label: demo
  specific_source: s1
  specific_fragments: [1, 2]
  trace:
    fragments: [3]
mcmc:
  iterations: 2000
  burn_in: 500
"""


def write_cfg(tmp_path, text, name="run.yaml"):
    p = tmp_path / name
    p.write_text(text)
    return p


class TestLoadRunConfig:
    def test_basic_fields(self, tmp_path):
        cfg = load_run_config(write_cfg(tmp_path, BASIC))
        assert cfg.data_path == tmp_path / "data.csv"
        assert cfg.output == tmp_path / "out"
        assert cfg.mcmc.seed == 7
        assert cfg.mcmc.iterations == 2000
        assert cfg.scenario.specific_source_id == "s1"
        assert cfg.scenario.trace_fragments == (3,)
        assert cfg.scenario.same_source
        assert cfg.specific_prior is None
        assert cfg.study is None

    def test_seed_and_output_overrides(self, tmp_path):
        cfg = load_run_config(
            write_cfg(tmp_path, BASIC), seed_override=99, output_override="/tmp/x"
        )
        assert cfg.mcmc.seed == 99
        assert str(cfg.output) == "/tmp/x"

    def test_mcmc_seed_rejected(self, tmp_path):
        bad = BASIC + "  \n"
        bad = bad.replace("burn_in: 500", "burn_in: 500\n  seed: 3")
        with pytest.raises(ConfigError, match="top-level 'seed'"):
            load_run_config(write_cfg(tmp_path, bad))

    def test_bad_yaml(self, tmp_path):
        with pytest.raises(ConfigError, match="not valid YAML"):
            load_run_config(write_cfg(tmp_path, "data: [unclosed"))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_run_config(tmp_path / "absent.yaml")

    def test_bad_report_format(self, tmp_path):
        with pytest.raises(ConfigError, match="report_format"):
            load_run_config(write_cfg(tmp_path, BASIC + "report_format: pdf\n"))

    def test_priors_parsed(self, tmp_path):
        text = BASIC + """\
specific_prior:
  mean: [0, 0, 0]
  mean_covariance: {diagonal: 3000.0}
  scale: {diagonal: [0.01, 0.00005, 0.0005]}
  df: 3
alternative_prior:
  mean: [0, 0, 0]
  mean_covariance: {diagonal: 3000.0}
  between_scale: {matrix: [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}
  between_df: 3
  within_scale: {diagonal: [0.01, 0.00005, 0.0005]}
  within_df: 3
"""
        cfg = load_run_config(write_cfg(tmp_path, text))
        assert cfg.specific_prior.cov_df == 3.0
        assert np.allclose(
            cfg.specific_prior.cov_scale.values, np.diag([0.01, 0.00005, 0.0005])
        )
        assert np.allclose(cfg.alternative_prior.between_scale.values, np.eye(3))

    def test_wrong_diagonal_length(self, tmp_path):
        text = BASIC + """\
specific_prior:
  mean: [0, 0, 0]
  mean_covariance: {diagonal: [1, 2]}
  scale: {diagonal: 1.0}
  df: 3
"""
        with pytest.raises(ConfigError, match="length 3"):
            load_run_config(write_cfg(tmp_path, text))

    def test_study_defaults(self, tmp_path):
        text = "output: out\nseed: 1\nstudy:\n  grid: [10, 50]\n"
        cfg = load_run_config(write_cfg(tmp_path, text))
        assert cfg.study.grid == (10, 50)
        assert cfg.study.replicates == 20
        assert cfg.study.design.fragments_per_source == 5
        assert cfg.study.params.dim == 2

    def test_design_n_sources_rejected(self, tmp_path):
        text = "seed: 1\nstudy:\n  grid: [10]\n  design:\n    n_sources: 7\n"
        with pytest.raises(ConfigError, match=r"n_sources.*study\.grid"):
            load_run_config(write_cfg(tmp_path, text))

    @pytest.mark.parametrize(
        "command, text, key",
        [
            ("evaluate", BASIC.replace("iterations: 2000", "iterations: lots"), "mcmc.iterations"),
            ("evaluate", BASIC.replace("fragments: [1, 2]", "fragments: [1, two]"),
             "scenario.specific_fragments"),
            ("evaluate", BASIC + "specific_prior:\n  mean: [0, zero]\n"
             "  mean_covariance: 1.0\n  scale: 1.0\n  df: 3\n", "specific_prior.mean"),
            ("simulate", "seed: 1\nstudy:\n  grid: [10, ten]\n", "study.grid"),
            ("simulate", "seed: 1\nstudy:\n  grid: [10]\n  replicates: null\n",
             "study.replicates"),
        ],
    )
    def test_non_numeric_value_names_its_key(self, tmp_path, capsys, command, text, key):
        path = write_cfg(tmp_path, text)
        with pytest.raises(ConfigError, match=f"^{key} must be numeric"):
            load_run_config(path)
        assert main([command, "--config", str(path)]) == EXIT_CONFIG
        assert f"configuration error: {key} must be numeric" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "command, text, key",
        [
            ("simulate", "seed: 1\nstudy:\n  grid: [10]\n  design: [5]\n", "study.design"),
            ("evaluate", BASIC.replace("  trace:", "  exclude_sources: 5\n  trace:"),
             "scenario.exclude_sources"),
        ],
    )
    def test_wrong_container_type_names_its_key(self, tmp_path, capsys, command, text, key):
        path = write_cfg(tmp_path, text)
        with pytest.raises(ConfigError, match=f"^{key} must be a"):
            load_run_config(path)
        assert main([command, "--config", str(path)]) == EXIT_CONFIG
        assert f"configuration error: {key} must be a" in capsys.readouterr().err


class TestConfigHash:
    def test_output_excluded(self):
        a = config_hash({"seed": 1, "output": "x", "data": "d"})
        b = config_hash({"seed": 1, "output": "y", "data": "d"})
        assert a == b

    def test_seed_included(self):
        a = config_hash({"seed": 1, "data": "d"})
        b = config_hash({"seed": 2, "data": "d"})
        assert a != b
