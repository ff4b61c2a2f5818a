import pathlib
import re
from dataclasses import replace

import numpy as np
import pytest

from specsource.cli import EXIT_CONFIG, EXIT_DATA, EXIT_NUMERICAL, EXIT_OK, main
from specsource.evidence import load_dataset
from specsource.gibbs import (
    PURPOSE_SIMULATION,
    McmcSettings,
    SpecificPrior,
    gibbs_specific,
    stream_id,
    write_draws,
)
from specsource.simulate import (
    default_study_design,
    default_study_params,
    simulate_evidence,
    source_labels,
)
from specsource.stats import RngStream, SpdMatrix

from test_gibbs import edit_first_row

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
FIXTURE = REPO_ROOT / "data" / "glass_sim_class1.csv"


def quick_config(tmp_path, out_name="out", iterations=600, burn_in=100):
    text = f"""\
data: {FIXTURE}
output: {out_name}
seed: 11
report_format: structured
scenario:
  label: quick
  specific_source: w04
  specific_fragments: [1, 2, 3]
  trace:
    fragments: [4, 5]
  exclude_sources: [w02]
mcmc:
  iterations: {iterations}
  burn_in: {burn_in}
"""
    path = tmp_path / "run.yaml"
    path.write_text(text)
    return path


def strip_timestamp(text: str) -> str:
    return re.sub(r"^generated_at: .*$", "", text, flags=re.MULTILINE)


class TestEvaluateCommand:
    def test_writes_all_outputs(self, tmp_path):
        cfg = quick_config(tmp_path)
        assert main(["evaluate", "--config", str(cfg)]) == EXIT_OK
        out = tmp_path / "out"
        assert (out / "report.yaml").exists()
        assert (out / "draws_prosecution.csv").exists()
        assert (out / "draws_defense.csv").exists()
        assert (out / "diagnostics.txt").exists()
        body = (out / "report.yaml").read_text()
        assert "config_hash:" in body
        assert "tool_version: 0.1.0" in body

    def test_missing_data_file_exits_3_without_outputs(self, tmp_path):
        cfg_path = quick_config(tmp_path)
        text = cfg_path.read_text().replace(str(FIXTURE), str(tmp_path / "gone.csv"))
        cfg_path.write_text(text)
        assert main(["evaluate", "--config", str(cfg_path)]) == EXIT_DATA
        assert not (tmp_path / "out").exists()

    def test_same_seed_is_byte_identical_minus_timestamp(self, tmp_path):
        cfg = quick_config(tmp_path)
        assert main(["evaluate", "--config", str(cfg), "--out", str(tmp_path / "a")]) == EXIT_OK
        assert main(["evaluate", "--config", str(cfg), "--out", str(tmp_path / "b")]) == EXIT_OK
        a = strip_timestamp((tmp_path / "a" / "report.yaml").read_text())
        b = strip_timestamp((tmp_path / "b" / "report.yaml").read_text())
        assert a == b
        assert (tmp_path / "a" / "draws_defense.csv").read_bytes() == (
            tmp_path / "b" / "draws_defense.csv"
        ).read_bytes()

    def test_seed_override_changes_results(self, tmp_path):
        cfg = quick_config(tmp_path)
        main(["evaluate", "--config", str(cfg), "--out", str(tmp_path / "a")])
        main(["evaluate", "--config", str(cfg), "--out", str(tmp_path / "b"), "--seed", "12"])
        a = (tmp_path / "a" / "report.yaml").read_text()
        b = (tmp_path / "b" / "report.yaml").read_text()
        assert strip_timestamp(a) != strip_timestamp(b)
        assert "seed: 12" in b

    def test_text_report_format(self, tmp_path):
        cfg = quick_config(tmp_path)
        text = cfg.read_text().replace("report_format: structured", "report_format: text")
        cfg.write_text(text)
        assert main(["evaluate", "--config", str(cfg)]) == EXIT_OK
        body = (tmp_path / "out" / "report.txt").read_text()
        assert "V (plug-in)" in body and "V (full)" in body

    def test_low_acceptance_exits_4(self, tmp_path, capsys):
        # a specific-source prior mean pinned far from the controls
        cfg = quick_config(tmp_path)
        cfg.write_text(
            cfg.read_text()
            + "specific_prior:\n  mean: [5, 5, 5]\n  mean_covariance: 1.0e-8\n"
            "  scale: {diagonal: [0.01, 0.00005, 0.0005]}\n  df: 3\n"
        )
        assert main(["evaluate", "--config", str(cfg)]) == EXIT_NUMERICAL
        assert "prosecution-side sampler, chain 0: acceptance rate" in capsys.readouterr().err

    def test_bad_scenario_exits_3(self, tmp_path):
        cfg = quick_config(tmp_path)
        text = cfg.read_text().replace("specific_fragments: [1, 2, 3]",
                                       "specific_fragments: [1, 2, 3, 4, 5]")
        cfg.write_text(text)
        assert main(["evaluate", "--config", str(cfg)]) == EXIT_DATA


class TestSimulateCommand:
    def write_study(self, tmp_path, grid="[3, 5]"):
        path = tmp_path / "study.yaml"
        path.write_text(
            f"""\
output: study_out
seed: 5
study:
  grid: {grid}
  replicates: 2
mcmc:
  iterations: 400
  burn_in: 100
"""
        )
        return path

    def test_study_table_cardinality(self, tmp_path):
        cfg = self.write_study(tmp_path)
        assert main(["simulate", "--config", str(cfg)]) == EXIT_OK
        lines = (tmp_path / "study_out" / "convergence.csv").read_text().splitlines()
        assert len(lines) == 1 + 2 * 2

    def test_emit_datasets(self, tmp_path):
        cfg = self.write_study(tmp_path)
        assert main(["simulate", "--config", str(cfg), "--emit-datasets"]) == EXIT_OK
        files = sorted((tmp_path / "study_out" / "datasets").glob("*.csv"))
        assert [f.name for f in files] == [
            "evidence_n3_rep0.csv",
            "evidence_n3_rep1.csv",
            "evidence_n5_rep0.csv",
            "evidence_n5_rep1.csv",
        ]
        # each file reloads to the arrays its cell simulated, bit for bit
        for path in files:
            n, rep = map(int, re.findall(r"\d+", path.name))
            design = replace(default_study_design(), n_sources=n)
            stream = RngStream(5, stream_id(PURPOSE_SIMULATION, [3, 5].index(n), rep))
            controls, population, trace = simulate_evidence(
                default_study_params(), design, stream
            )
            dataset = load_dataset(path)
            groups = {
                sid: np.array([f.features for f in dataset.group(sid)])
                for sid in ("trace", "specific", *source_labels(n))
            }
            assert np.array_equal(groups.pop("trace"), trace)
            assert np.array_equal(groups.pop("specific"), controls)
            assert np.array_equal(np.array(list(groups.values())), population)

    def test_prior_sections_exit_2(self, tmp_path, capsys):
        cfg = self.write_study(tmp_path)
        cfg.write_text(
            cfg.read_text()
            + "specific_prior:\n  mean: [5.0, 5.0]\n  mean_covariance: {diagonal: 100.0}\n"
            + "  scale: {diagonal: 100.0}\n  df: 9.0\n"
        )
        assert main(["simulate", "--config", str(cfg)]) == EXIT_CONFIG
        assert "specific_prior" in capsys.readouterr().err
        assert not (tmp_path / "study_out").exists()

    @pytest.mark.parametrize(
        "config",
        [
            "configs/study.yaml",
            "perfbench/configs/study.yaml",
            "perfbench/configs/calibration.yaml",
        ],
    )
    def test_shipped_study_configs_are_accepted(self, config, tmp_path, monkeypatch):
        import specsource.cli as cli_module

        monkeypatch.setattr(cli_module, "convergence_study", lambda *args, **kwargs: [])
        out = tmp_path / "out"
        args = ["simulate", "--config", str(REPO_ROOT / config), "--out", str(out)]
        assert main(args) == EXIT_OK
        assert (out / "convergence.csv").read_text() == "n,replicate,log_v_full,log_v_plugin,gap\n"

    def test_descending_grid_exits_2(self, tmp_path):
        cfg = self.write_study(tmp_path, grid="[5, 3]")
        assert main(["simulate", "--config", str(cfg)]) == EXIT_CONFIG

    def test_missing_study_section_exits_2(self, tmp_path):
        cfg = quick_config(tmp_path)
        assert main(["simulate", "--config", str(cfg)]) == EXIT_CONFIG


class TestDiagnoseCommand:
    def make_draws(self, tmp_path, sigma_fixed=None):
        y = np.random.default_rng(2).normal(size=(3, 3)) * 0.1
        prior = SpecificPrior.glass_default()
        draws = gibbs_specific(
            y,
            prior,
            McmcSettings(iterations=300, burn_in=100, seed=4),
            sigma_fixed=sigma_fixed,
        )
        path = tmp_path / "draws.csv"
        write_draws(draws, path)
        return path

    def test_parameter_rows(self, tmp_path, capsys):
        path = self.make_draws(tmp_path)
        assert main(["diagnose", "--draws", str(path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.count("mu_") == 3
        assert out.count("sigma_s_") == 6

    def test_degenerate_column_flagged(self, tmp_path, capsys):
        path = self.make_draws(tmp_path, sigma_fixed=SpdMatrix(np.eye(3)))
        assert main(["diagnose", "--draws", str(path)]) == EXIT_OK
        assert "degenerate chain" in capsys.readouterr().out

    def test_truncated_file_exits_3(self, tmp_path, capsys):
        path = self.make_draws(tmp_path)
        blob = path.read_bytes()
        path.write_bytes(blob[: int(len(blob) * 0.7)])
        assert main(["diagnose", "--draws", str(path)]) == EXIT_DATA
        assert "byte offset" in capsys.readouterr().err

    def test_non_spd_stored_covariance_exits_3(self, tmp_path, capsys):
        path = self.make_draws(tmp_path)
        path.write_text(edit_first_row(path.read_text(), "sigma_s_1_1", "-1.0"))
        assert main(["diagnose", "--draws", str(path)]) == EXIT_DATA
        assert "corrupt draw file" in capsys.readouterr().err

    def test_row_count_mismatch_exits_3(self, tmp_path, capsys):
        path = self.make_draws(tmp_path)
        lines = path.read_text().splitlines(True)
        path.write_text("".join(lines[:-10]))
        assert main(["diagnose", "--draws", str(path)]) == EXIT_DATA
        assert "corrupt draw file: draw count" in capsys.readouterr().err
