"""Command-line interface.

Three subcommands: ``evaluate`` runs the full evidence-evaluation pipeline
from a config file, ``simulate`` runs the plug-in vs full-Bayes gap study,
and ``diagnose`` summarizes a saved draw file.  Outputs are deterministic
given config + seed; the only non-reproducible byte in any output is the
report's ``generated_at`` line.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numerical
error, 5 internal error.
"""

from __future__ import annotations

import argparse
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .config import load_run_config
from .errors import (
    ConfigError,
    DataError,
    DegenerateChainError,
    NumericalError,
    SpecSourceError,
)
from .evaluate import BayesFactorReport, evaluate_scenario
from .evidence import (
    Fragment,
    GroupedDataset,
    build_scenario,
    load_dataset,
    validate_evidence,
    write_dataset,
)
from .gibbs import (
    AlternativePrior,
    DrawSet,
    SpecificPrior,
    draw_columns,
    effective_sample_size,
    read_draws,
    write_draws,
)
from .simulate import convergence_study, source_labels, write_rows

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4
EXIT_INTERNAL = 5

_EPILOG = """\
exit codes:
  0  success
  2  configuration error (bad config file, invalid settings)
  3  data error (missing/malformed data, bad evidence selection)
  4  numerical error (factorization failure, degenerate chain)
  5  internal error
"""


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def structured_report(report: BayesFactorReport, timestamp: str) -> str:
    """Deterministic key/value rendering; only the timestamp line varies."""
    lines = ["schema: specsource/report/v1", f"generated_at: {timestamp}"]
    for key, value in report.fields().items():
        if isinstance(value, list):
            lines.append(f"{key}:")
            lines.extend(f"  - {item}" for item in value)
        else:
            lines.append(f"{key}: {_fmt(value)}")
    return "\n".join(lines) + "\n"


def text_report(report: BayesFactorReport, timestamp: str) -> str:
    f = report.fields()
    rows = [
        ("scenario", f["scenario"]),
        ("H_p", f["hypothesis_prosecution"]),
        ("H_d", f["hypothesis_defense"]),
        ("log numerator", _fmt(f["log_numerator"])),
        ("numerator MC-SE", _fmt(f["numerator_mc_se"])),
        ("log denominator (plug-in)", _fmt(f["log_denominator_plugin"])),
        ("log denominator (full)", _fmt(f["log_denominator_full"])),
        ("denominator MC-SE (full)", _fmt(f["full_mc_se"])),
        ("V (plug-in)", _fmt(f["v_plugin"])),
        ("log V (plug-in)", _fmt(f["log_v_plugin"])),
        ("MC-SE of log V (plug-in)", _fmt(f["mc_se_log_v_plugin"])),
        ("V (full)", _fmt(f["v_full"])),
        ("log V (full)", _fmt(f["log_v_full"])),
        ("MC-SE of log V (full)", _fmt(f["mc_se_log_v_full"])),
        ("draws (numerator/full)", f"{f['numerator_draws']}/{f['full_draws']}"),
        ("seed", str(f["seed"])),
        ("config hash", f["config_hash"]),
        ("tool version", f["tool_version"]),
    ]
    width = max(len(name) for name, _ in rows)
    body = "\n".join(f"{name:<{width}}  {value}" for name, value in rows)
    notes = "".join(f"\nnote: {n}" for n in f["notes"])
    return f"value of evidence report ({timestamp})\n{body}{notes}\n"


def diagnostics_table(draws: DrawSet) -> list[tuple[str, str, str, str]]:
    """Per-parameter (name, mean, ESS, MC-SE) rows; degenerate chains flagged."""
    cols, table = draw_columns(draws)
    out = []
    for j, name in enumerate(cols):
        series = table[:, j]
        mean = f"{series.mean():.17g}"
        try:
            ess = effective_sample_size(series)
            mcse = float(series.std(ddof=1)) / np.sqrt(ess)
            out.append((name, mean, f"{ess:.17g}", f"{mcse:.17g}"))
        except DegenerateChainError:
            out.append((name, mean, "degenerate chain", "n/a"))
        except ValueError:
            out.append((name, mean, f"{series.size}", "n/a"))
    return out


def _render_diagnostics(tag: str, draws: DrawSet) -> str:
    lines = [f"[{tag}] {draws.size} draws, model {draws.model}"]
    lines.append(f"{'parameter':<16} {'mean':>25} {'ESS':>25} {'MC-SE':>25}")
    for name, mean, ess, mcse in diagnostics_table(draws):
        lines.append(f"{name:<16} {mean:>25} {ess:>25} {mcse:>25}")
    return "\n".join(lines) + "\n"


def _cmd_evaluate(args) -> int:
    cfg = load_run_config(
        args.config, seed_override=args.seed, output_override=args.out
    )
    if cfg.data_path is None or cfg.scenario is None:
        raise ConfigError("evaluate needs 'data' and 'scenario' sections")
    dataset = load_dataset(cfg.data_path)
    evidence = build_scenario(dataset, cfg.scenario)
    check = validate_evidence(evidence)
    if not check.ok:
        raise DataError("; ".join(check.violations))

    specific_prior, alternative_prior = cfg.specific_prior, cfg.alternative_prior
    if specific_prior is None or alternative_prior is None:
        if dataset.dim != 3:
            raise ConfigError(
                "built-in prior defaults are for 3-dimensional data; "
                "specify specific_prior and alternative_prior explicitly"
            )
        specific_prior = specific_prior or SpecificPrior.glass_default()
        alternative_prior = alternative_prior or AlternativePrior.glass_default()

    result = evaluate_scenario(
        evidence,
        specific_prior,
        alternative_prior,
        cfg.mcmc,
        scenario=cfg.scenario.label or "unnamed-scenario",
        config_hash=cfg.hash(),
    )

    out = cfg.output
    out.mkdir(parents=True, exist_ok=True)
    timestamp = datetime.now(timezone.utc).isoformat()
    if cfg.report_format == "structured":
        report_path = out / "report.yaml"
        report_path.write_text(structured_report(result.report, timestamp))
    else:
        report_path = out / "report.txt"
        report_path.write_text(text_report(result.report, timestamp))
    write_draws(result.prosecution_draws, out / "draws_prosecution.csv")
    write_draws(result.defense_draws, out / "draws_defense.csv")
    diagnostics = _render_diagnostics(
        "prosecution", result.prosecution_draws
    ) + _render_diagnostics("defense", result.defense_draws)
    (out / "diagnostics.txt").write_text(diagnostics)

    print(f"report written to {report_path}")
    print(
        f"V (plug-in) = {result.report.v_plugin:.17g}, "
        f"V (full) = {result.report.v_full:.17g}"
    )
    return EXIT_OK


def _cmd_simulate(args) -> int:
    cfg = load_run_config(
        args.config, seed_override=args.seed, output_override=args.out
    )
    if cfg.study is None:
        raise ConfigError("simulate needs a 'study' section")
    priors = [s for s in ("specific_prior", "alternative_prior") if getattr(cfg, s) is not None]
    if priors:
        raise ConfigError(f"simulate ignores {' and '.join(priors)}: the study sets its own priors")
    out = cfg.output
    out.mkdir(parents=True, exist_ok=True)

    on_evidence = None
    if args.emit_datasets:
        datasets_dir = out / "datasets"
        datasets_dir.mkdir(exist_ok=True)

        def on_evidence(n, rep, evidence):
            controls, population, trace = evidence
            groups = [("trace", trace), ("specific", controls), *zip(source_labels(n), population)]
            frags = tuple(Fragment(sid, j + 1, y) for sid, ys in groups for j, y in enumerate(ys))
            names = tuple(f"x{i + 1}" for i in range(trace.shape[1]))
            write_dataset(
                GroupedDataset(frags, names), datasets_dir / f"evidence_n{n}_rep{rep}.csv"
            )

    rows = convergence_study(
        cfg.study.params,
        cfg.study.design,
        cfg.study.grid,
        cfg.study.replicates,
        cfg.mcmc,
        cfg.mcmc.seed,
        on_evidence=on_evidence,
    )
    table_path = out / "convergence.csv"
    write_rows(rows, table_path)
    print(f"study table written to {table_path} ({len(rows)} rows)")
    return EXIT_OK


def _cmd_diagnose(args) -> int:
    draws = read_draws(args.draws)
    sys.stdout.write(_render_diagnostics(Path(args.draws).name, draws))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specsource",
        description=__doc__.splitlines()[0] if __doc__ else "",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser(
        "evaluate", help="compute both values of evidence for one scenario"
    )
    p_eval.add_argument("--config", required=True, help="path to the run config")
    p_eval.add_argument("--seed", type=int, default=None, help="override config seed")
    p_eval.add_argument("--out", default=None, help="override output directory")
    p_eval.set_defaults(func=_cmd_evaluate)

    p_sim = sub.add_parser(
        "simulate", help="run the plug-in vs full-Bayes convergence study"
    )
    p_sim.add_argument("--config", required=True, help="path to the run config")
    p_sim.add_argument("--seed", type=int, default=None, help="override config seed")
    p_sim.add_argument("--out", default=None, help="override output directory")
    p_sim.add_argument(
        "--emit-datasets",
        action="store_true",
        help="write each simulated evidence set to <out>/datasets/",
    )
    p_sim.set_defaults(func=_cmd_simulate)

    p_diag = sub.add_parser("diagnose", help="summarize a saved draw file")
    p_diag.add_argument("--draws", required=True, help="path to a draws CSV")
    p_diag.set_defaults(func=_cmd_diagnose)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except SpecSourceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:  # pragma: no cover - safety net
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
