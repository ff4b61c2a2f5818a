"""Run configuration: one human-editable YAML tree per run.

The same file drives both the evaluation pipeline and the simulation study;
see the repository README for the full schema.  Relative paths inside a
config resolve against the config file's own directory.  The configuration
hash embedded in reports covers every effective setting except the output
directory, so runs that differ only in where they write are recognizably
the same computation.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import yaml

from .errors import ConfigError
from .evidence import ScenarioSpec
from .gibbs import AlternativePrior, McmcSettings, SpecificPrior
from .simulate import (
    DesignSpec,
    TrueParams,
    default_study_design,
    default_study_params,
)
from .stats import SpdMatrix

__all__ = ["RunConfig", "StudyConfig", "config_hash", "load_run_config"]


def _require(mapping, key, where, kind=None):
    if not isinstance(mapping, dict) or key not in mapping:
        raise ConfigError(f"missing required key {where}.{key}")
    value = mapping[key]
    if kind is not None and not isinstance(value, kind):
        raise ConfigError(f"{where}.{key} has the wrong type ({type(value).__name__})")
    return value


def _floats(value) -> np.ndarray:
    return np.asarray(value, dtype=float)


def _number(value, kind, where: str):
    """Convert one numeric config entry with ``kind`` (int, float or _floats).

    Every numeric entry passes through here, so a value that does not
    convert is a :class:`ConfigError` naming its key.
    """
    try:
        return kind(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{where} must be numeric, got {value!r}") from None


def _parse_matrix(node, dim: int, where: str) -> SpdMatrix:
    """Accept {diagonal: scalar|list} or {matrix: [[...], ...]}."""
    if isinstance(node, (int, float)):
        return SpdMatrix.diagonal(float(node), dim=dim)
    if not isinstance(node, dict):
        raise ConfigError(f"{where} must be a scalar, diagonal, or matrix mapping")
    if "diagonal" in node:
        diag = node["diagonal"]
        if isinstance(diag, (int, float)):
            return SpdMatrix.diagonal(float(diag), dim=dim)
        diag = _number(diag, _floats, f"{where}.diagonal")
        if diag.shape != (dim,):
            raise ConfigError(f"{where}.diagonal must have length {dim}")
        return SpdMatrix.diagonal(diag)
    if "matrix" in node:
        arr = _number(node["matrix"], _floats, f"{where}.matrix")
        if arr.shape != (dim, dim):
            raise ConfigError(f"{where}.matrix must be {dim}x{dim}")
        return SpdMatrix(arr)
    raise ConfigError(f"{where} needs a 'diagonal' or 'matrix' entry")


def _parse_vector(node, dim: int, where: str) -> np.ndarray:
    arr = _number(node, _floats, where)
    if arr.shape != (dim,):
        raise ConfigError(f"{where} must be a vector of length {dim}")
    return arr


def _parse_scenario(node) -> ScenarioSpec:
    specific = str(_require(node, "specific_source", "scenario"))
    fragments = tuple(
        _number(i, int, "scenario.specific_fragments")
        for i in _require(node, "specific_fragments", "scenario", list)
    )
    trace_source = None
    trace_fragments = None
    trace = node.get("trace")
    if trace is not None:
        if not isinstance(trace, dict):
            raise ConfigError("scenario.trace must be a mapping")
        if "source" in trace and trace["source"] is not None:
            trace_source = str(trace["source"])
        if trace.get("fragments") is not None:
            trace_fragments = tuple(
                _number(i, int, "scenario.trace.fragments")
                for i in _require(trace, "fragments", "scenario.trace", list)
            )
    excluded = node.get("exclude_sources") or []
    if not isinstance(excluded, list):
        raise ConfigError("scenario.exclude_sources must be a list of source ids")
    excluded = tuple(str(s) for s in excluded)
    try:
        return ScenarioSpec(
            specific_source_id=specific,
            specific_fragments=fragments,
            trace_source_id=trace_source,
            trace_fragments=trace_fragments,
            excluded_sources=excluded,
            label=str(node.get("label", "")),
        )
    except ValueError as exc:
        raise ConfigError(f"scenario: {exc}") from exc


def _parse_mcmc(node, seed: int) -> McmcSettings:
    node = node or {}
    if not isinstance(node, dict):
        raise ConfigError("mcmc must be a mapping")
    if "seed" in node:
        raise ConfigError("set the top-level 'seed' key, not mcmc.seed")
    return McmcSettings(
        iterations=_number(node.get("iterations", 30000), int, "mcmc.iterations"),
        burn_in=_number(node.get("burn_in", 1000), int, "mcmc.burn_in"),
        thin=_number(node.get("thin", 1), int, "mcmc.thin"),
        seed=seed,
        chains=_number(node.get("chains", 1), int, "mcmc.chains"),
    )


#: Each prior section's class and the YAML keys of its fields after the mean,
#: in constructor order.  A key ending in "df" holds a number, any other a
#: matrix.
_PRIORS = {
    "specific_prior": (SpecificPrior, ("mean_covariance", "scale", "df")),
    "alternative_prior": (
        AlternativePrior,
        ("mean_covariance", "between_scale", "between_df", "within_scale", "within_df"),
    ),
}


def _parse_prior(node, section: str):
    """The prior of config ``section``, or None when the section is absent."""
    if node is None:
        return None
    cls, keys = _PRIORS[section]
    mean_node = _require(node, "mean", section, list)
    mean = _parse_vector(mean_node, len(mean_node), f"{section}.mean")
    values = []
    for key in keys:
        value, where = _require(node, key, section), f"{section}.{key}"
        if key.endswith("df"):
            values.append(_number(value, float, where))
        else:
            values.append(_parse_matrix(value, mean.size, where))
    return cls(mean, *values)


@dataclass(frozen=True)
class StudyConfig:
    grid: tuple[int, ...]
    replicates: int
    design: DesignSpec
    params: TrueParams


def _parse_study(node) -> StudyConfig:
    grid = tuple(
        _number(n, int, "study.grid") for n in _require(node, "grid", "study", list)
    )
    replicates = _number(node.get("replicates", 20), int, "study.replicates")
    design_node = node.get("design") or {}
    if not isinstance(design_node, dict):
        raise ConfigError("study.design must be a mapping")
    if "n_sources" in design_node:
        raise ConfigError(
            "study.design.n_sources is not a setting: "
            "study.grid sets the population sizes"
        )
    base = default_study_design()
    counts = {
        name: _number(design_node.get(name, getattr(base, name)), int, f"study.design.{name}")
        for name in ("fragments_per_source", "n_specific", "n_trace")
    }
    design = replace(base, **counts)
    params_node = node.get("params")
    if params_node is None:
        params = default_study_params()
    else:
        k = _number(
            _require(params_node, "dimension", "study.params"), int, "study.params.dimension"
        )
        params = TrueParams(
            mu_s=_parse_vector(params_node.get("mu_s", [0.0] * k), k, "study.params.mu_s"),
            sigma_s=_parse_matrix(
                params_node.get("sigma_s", 1.0), k, "study.params.sigma_s"
            ),
            mu_a=_parse_vector(params_node.get("mu_a", [0.0] * k), k, "study.params.mu_a"),
            sigma_b=_parse_matrix(
                params_node.get("sigma_b", 1.0), k, "study.params.sigma_b"
            ),
            sigma_w=_parse_matrix(
                params_node.get("sigma_w", 1.0), k, "study.params.sigma_w"
            ),
        )
    return StudyConfig(grid=grid, replicates=replicates, design=design, params=params)


@dataclass(frozen=True)
class RunConfig:
    data_path: Path | None
    scenario: ScenarioSpec | None
    specific_prior: SpecificPrior | None
    alternative_prior: AlternativePrior | None
    mcmc: McmcSettings
    output: Path
    report_format: str
    study: StudyConfig | None
    raw: dict

    def hash(self) -> str:
        return config_hash(self.raw)


def config_hash(raw: dict) -> str:
    """Stable digest of the effective configuration, output path excluded."""
    trimmed = {k: v for k, v in raw.items() if k != "output"}
    canon = json.dumps(trimmed, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def load_run_config(
    path, *, seed_override: int | None = None, output_override=None
) -> RunConfig:
    """Load and validate a config file, applying CLI overrides.

    Overrides are folded into the effective configuration before hashing,
    except the output directory, which never affects the hash.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config file {path} is not valid YAML: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")

    base_dir = path.parent
    if seed_override is not None:
        raw["seed"] = int(seed_override)
    seed = _number(raw.get("seed", 0), int, "seed")
    if output_override is not None:
        raw["output"] = str(output_override)

    data_path = None
    if raw.get("data") is not None:
        data_path = Path(raw["data"])
        if not data_path.is_absolute():
            data_path = base_dir / data_path

    scenario = _parse_scenario(raw["scenario"]) if raw.get("scenario") else None
    report_format = str(raw.get("report_format", "structured"))
    if report_format not in ("structured", "text"):
        raise ConfigError("report_format must be 'structured' or 'text'")

    output = Path(raw.get("output", "out"))
    if not output.is_absolute():
        output = base_dir / output

    return RunConfig(
        data_path=data_path,
        scenario=scenario,
        specific_prior=_parse_prior(raw.get("specific_prior"), "specific_prior"),
        alternative_prior=_parse_prior(raw.get("alternative_prior"), "alternative_prior"),
        mcmc=_parse_mcmc(raw.get("mcmc"), seed),
        output=output,
        report_format=report_format,
        study=_parse_study(raw["study"]) if raw.get("study") else None,
        raw=raw,
    )
