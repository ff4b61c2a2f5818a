"""The three workloads: casework, study and reanalysis.

Each workload has a set-up and a round.  A round is a fixed list of
operations, the same in every round, so a run that repeats whole rounds
keeps the same share of failed operations.  Every operation goes through
the program's public interface (``specsource.cli.main`` or a public
function of ``specsource.evaluate``), and its outputs are checked against
``reference`` outside the timed region.

Operation kinds, and the end-to-end metric each feeds:
- evaluate: ``specsource evaluate`` on one config      -> evaluate_s
- simulate: ``specsource simulate`` on one config      -> study_cells_per_s
- reopen:   ``specsource diagnose`` on a case's two draw files -> reopen_s
- panel:    numerator, plug-in and full denominator of a set of traces
            scored against a case's loaded draws       -> trace_panel_s
"""

from __future__ import annotations

import contextlib
import csv
import io
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

import reference as ref
import specsource.cli as cli
import specsource.evaluate as ev
from specsource.gibbs import DrawSet, McmcSettings

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = Path(__file__).resolve().parent / "configs"
OUT = ROOT / ".perfbench_out"
STANDIN = ROOT / "data" / "glass_sim_class1.csv"

#: Fragment removed from the stand-in for the unbalanced casework variant.
UNBALANCED_DROP = ("w16", 5)
#: Trace lengths scored in the reanalysis panel and the study panel.
REANALYSIS_PANEL = (1, 2, 3, 5, 8, 20)
STUDY_PANEL = (1, 2, 3, 5)
STUDY_CASE_SOURCES = 250
BALANCE_MESSAGE = "plug-in path requires balance"
EXIT_DATA = 3


class CheckFailed(Exception):
    """The program's output disagrees with a reference or a required property."""


@dataclass
class Case:
    """One evaluate run's inputs and where it writes."""

    name: str
    config: Path
    out: Path
    trace: np.ndarray
    groups: list[np.ndarray]
    same_source: bool | None = None


@dataclass
class Run:
    """Per-run state: seed, samples of every end-to-end quantity, counts."""

    seed: int
    work: Path
    samples: dict = field(default_factory=lambda: {
        "evaluate_s": [], "reopen_s": [], "trace_panel_s": [], "study_cells_per_s": [],
    })
    attempted: int = 0
    failed: int = 0
    quality: dict = field(default_factory=dict)
    _draw_files: dict = field(default_factory=dict)
    _semi_analytic: tuple | None = None

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            raise CheckFailed(what)

    def draw_file(self, path: Path) -> dict:
        """The reference re-read of a draw file, cached until the file changes."""
        stat = path.stat()
        key = (path, stat.st_mtime_ns, stat.st_size)
        if key not in self._draw_files:
            self._draw_files = {k: v for k, v in self._draw_files.items() if k[0] != path}
            table = ref.read_draw_file(path)
            self._draw_files[key] = {**table, "params": ref.draw_parameters(table)}
        return self._draw_files[key]

    def case_draws(self, case: "Case") -> tuple[dict, dict]:
        return (self.draw_file(case.out / "draws_prosecution.csv")["params"],
                self.draw_file(case.out / "draws_defense.csv")["params"])


# ---------------------------------------------------------------------------
# Inputs


def write_config(template: str, dest: Path, data: Path | None = None) -> Path:
    """Copy a config template into the work dir, pointing it at ``data``."""
    raw = yaml.safe_load((CONFIGS / template).read_text(encoding="utf-8"))
    if data is not None:
        raw["data"] = str(data)
    path = dest / template
    path.write_text(yaml.safe_dump(raw, sort_keys=False), encoding="utf-8")
    cli.load_run_config(path)
    return path


def write_dataset_csv(path: Path, groups: dict[str, np.ndarray], names) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["source", "fragment", *names])
        for sid, rows in groups.items():
            for j, row in enumerate(rows):
                writer.writerow([sid, j + 1, *(f"{v:.17g}" for v in row)])


def standin_groups() -> dict[str, np.ndarray]:
    return ref.read_csv_groups(STANDIN)


def alternatives(groups: dict[str, np.ndarray], dropped) -> list[np.ndarray]:
    """Alternative-source matrices in sorted source-id order, as the program orders them."""
    return [groups[sid] for sid in sorted(groups) if sid not in dropped]


def glass_cases(work: Path, data: Path) -> dict[str, Case]:
    groups = standin_groups()
    alts = alternatives(groups, {"w02", "w04"})
    s1_trace = groups["w04"][3:5]
    s2_trace = groups["w02"][0:2]
    unbalanced = dict(groups)
    sid, frag = UNBALANCED_DROP
    unbalanced[sid] = np.delete(groups[sid], frag - 1, axis=0)
    unbalanced_csv = work / "glass_unbalanced.csv"
    write_dataset_csv(unbalanced_csv, unbalanced, cli.load_dataset(data).feature_names)
    return {
        "scenario-1": Case("scenario-1", write_config("scenario1.yaml", work, data),
                           work / "scenario-1", s1_trace, alts, True),
        "scenario-2": Case("scenario-2", write_config("scenario2.yaml", work, data),
                           work / "scenario-2", s2_trace, alts, False),
        "unbalanced": Case("unbalanced", write_config("unbalanced.yaml", work, unbalanced_csv),
                           work / "unbalanced", s1_trace,
                           alternatives(unbalanced, {"w02", "w04"})),
    }


def standin_panel(rng, lengths) -> list[np.ndarray]:
    """Traces of the given lengths, each from a window drawn at random.

    Rows are normal around the chosen window's mean with the pooled
    within-window covariance of the stand-in.
    """
    groups = standin_groups()
    sids = sorted(groups)
    _, _, within = ref.brute_force_moments([groups[s] for s in sids])
    panel = []
    for m in lengths:
        centre = groups[sids[rng.integers(len(sids))]].mean(axis=0)
        panel.append(rng.multivariate_normal(centre, within, size=m))
    return panel


def study_case(work: Path, rng) -> tuple[Case, list[np.ndarray]]:
    """A two-dimensional case at n = 250 from the study parameters, and its panel.

    Source s000 is the specific source (3 control + 2 trace fragments);
    a001..a250 are alternatives with 5 fragments each.  Panel traces
    alternate between the specific source and fresh alternative sources.
    """
    sd_within = 0.5
    groups = {"s000": rng.normal(0.0, sd_within, size=(5, 2))}
    for i in range(STUDY_CASE_SOURCES):
        effect = rng.normal(0.0, 1.0, size=2)
        groups[f"a{i + 1:03d}"] = effect + rng.normal(0.0, sd_within, size=(5, 2))
    data = work / "study_case.csv"
    write_dataset_csv(data, groups, ("x1", "x2"))
    case = Case("study-case", write_config("study_case.yaml", work, data),
                work / "study-case", groups["s000"][3:5], alternatives(groups, {"s000"}))
    panel = []
    for j, m in enumerate(STUDY_PANEL):
        centre = np.zeros(2) if j % 2 == 0 else rng.normal(0.0, 1.0, size=2)
        panel.append(centre + rng.normal(0.0, sd_within, size=(m, 2)))
    return case, panel


# ---------------------------------------------------------------------------
# Operations


def call_cli(argv) -> tuple[int, str, str, float]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        code = cli.main([str(a) for a in argv])
        elapsed = time.perf_counter() - start
    return code, out.getvalue(), err.getvalue(), elapsed


def evaluate(run: Run, case: Case) -> None:
    code, _, err, elapsed = call_cli(
        ["evaluate", "--config", case.config, "--seed", run.seed, "--out", case.out]
    )
    run.attempted += 1
    run.check(code == 0, f"evaluate {case.name} exited {code}: {err.strip()}")
    run.samples["evaluate_s"].append(elapsed)
    check_case(run, case)


def evaluate_unbalanced(run: Run, case: Case) -> None:
    """The unbalanced variant: fails today, counted as failed, checked to fail right."""
    code, _, err, _ = call_cli(
        ["evaluate", "--config", case.config, "--seed", run.seed, "--out", case.out]
    )
    run.attempted += 1
    if code != 0:
        run.failed += 1
        run.check(code == EXIT_DATA and BALANCE_MESSAGE in err,
                  f"unbalanced evaluate failed with exit {code}: {err.strip()}")
    else:
        check_case(run, case)


def simulate(run: Run, config: Path, out: Path) -> None:
    code, _, err, elapsed = call_cli(
        ["simulate", "--config", config, "--seed", run.seed, "--out", out]
    )
    run.attempted += 1
    run.check(code == 0, f"simulate {config.name} exited {code}: {err.strip()}")
    study = cli.load_run_config(config).study
    rows = check_study_table(run, out / "convergence.csv", study.grid, study.replicates)
    run.samples["study_cells_per_s"].append(rows / elapsed)


def reopen(run: Run, case: Case) -> None:
    elapsed = 0.0
    outputs = {}
    for side in ("prosecution", "defense"):
        path = case.out / f"draws_{side}.csv"
        code, stdout, err, seconds = call_cli(["diagnose", "--draws", path])
        run.check(code == 0, f"diagnose {path.name} exited {code}: {err.strip()}")
        elapsed += seconds
        outputs[side] = (path, stdout)
    run.attempted += 1
    run.samples["reopen_s"].append(elapsed)
    for side, (path, stdout) in outputs.items():
        check_diagnose(run, path, stdout, side)


def load_draws(run: Run, case: Case) -> tuple[DrawSet, DrawSet]:
    """The case's draws as the program's DrawSets, built from the reference re-read.

    ``reopen`` already times the program's own reader; building from the
    cached re-read keeps a second parse out of every round.
    """
    out = []
    for side in ("prosecution", "defense"):
        table = run.draw_file(case.out / f"draws_{side}.csv")
        meta, params = table["meta"], table["params"]
        settings = McmcSettings(**{key: int(meta[key]) for key in
                                   ("iterations", "burn_in", "thin", "seed", "chains")})
        covariances = {name: stack for name, stack in params.items() if name != "mu"}
        out.append(DrawSet(meta["model"], params["mu"], covariances, settings))
    return out[0], out[1]


def score_panel(run: Run, case: Case, draws, traces) -> None:
    prosecution, defense = draws
    start = time.perf_counter()
    estimate = ev.plugin_estimates(case.groups)
    values = [
        {"log_numerator": ev.log_numerator(t, prosecution).log_value,
         "log_denominator_plugin": ev.log_denominator_plugin(t, estimate).log_value,
         "log_denominator_full": ev.log_denominator_full(t, defense).log_value}
        for t in traces
    ]
    run.samples["trace_panel_s"].append(time.perf_counter() - start)
    run.attempted += 1
    check_panel(run, case, traces, values)


# ---------------------------------------------------------------------------
# Checks


def read_report(path: Path) -> dict:
    report = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        key, sep, value = line.partition(": ")
        if sep and not line.startswith(" "):
            report[key] = value
    return report


def close(a: float, b: float, rtol: float, atol: float = 0.0) -> bool:
    return abs(a - b) <= atol + rtol * abs(b)


def check_case(run: Run, case: Case) -> None:
    report = read_report(case.out / "report.yaml")
    got = {k: float(report[k]) for k in
           ("log_numerator", "log_denominator_plugin", "log_denominator_full",
            "log_v_plugin", "log_v_full", "numerator_mc_se", "mc_se_log_v_full")}
    want = ref.trace_reference(case.trace, case.groups, *run.case_draws(case))
    run.check(close(got["log_denominator_plugin"], want["log_denominator_plugin"], 1e-9),
              f"{case.name}: plug-in denominator {got['log_denominator_plugin']} "
              f"!= dense reference {want['log_denominator_plugin']}")
    for key in ("log_numerator", "log_denominator_full"):
        run.check(close(got[key], want[key], 1e-9, 1e-9),
                  f"{case.name}: {key} {got[key]} != reference over the draw files {want[key]}")
    if case.same_source is not None:
        sign = 1.0 if case.same_source else -1.0
        for key in ("log_v_plugin", "log_v_full"):
            run.check(sign * got[key] > 0, f"{case.name}: {key} = {got[key]} has the wrong sign")
    if case.name == "scenario-1":
        value, se = semi_analytic_scenario1(run, case)
        tol = 4.0 * got["numerator_mc_se"] + 4.0 * se
        run.check(abs(got["log_numerator"] - value) <= tol,
                  f"scenario-1: numerator {got['log_numerator']} is more than "
                  f"{tol:.4f} from the semi-analytic {value}")
    run.quality[case.name] = got
    run.quality.setdefault("draw_file_bytes", (case.out / "draws_defense.csv").stat().st_size)


def semi_analytic_scenario1(run: Run, case: Case) -> tuple[float, float]:
    """Prosecution-side reference for scenario-1 under the glass default prior."""
    if run._semi_analytic is None:
        controls = standin_groups()["w04"][0:3]
        run._semi_analytic = ref.semi_analytic_numerator(
            case.trace, controls,
            prior_mean=np.zeros(3), prior_mean_cov=3000.0 * np.eye(3),
            prior_scale=np.diag([0.01, 0.00005, 0.0005]), prior_df=3.0,
        )
    return run._semi_analytic


def check_study_table(run: Run, path: Path, grid, replicates) -> int:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    cells = {(int(r["n"]), int(r["replicate"])) for r in rows}
    want = {(n, rep) for n in grid for rep in range(replicates)}
    run.check(cells == want and len(rows) == len(want),
              f"{path.name}: rows {sorted(cells ^ want)[:5]} missing or extra")
    gaps = {n: [] for n in grid}
    for r in rows:
        gap = float(r["gap"])
        run.check(np.isfinite(gap) and gap >= 0.0, f"{path.name}: gap {gap} at n={r['n']}")
        gaps[int(r["n"])].append(gap)
    if len(grid) > 1:
        first, last = statistics.median(gaps[grid[0]]), statistics.median(gaps[grid[-1]])
        run.check(last < first, f"{path.name}: median gap {first} at n={grid[0]} "
                                f"does not fall to n={grid[-1]} ({last})")
    return len(rows)


def check_diagnose(run: Run, path: Path, stdout: str, side: str) -> None:
    draws = run.draw_file(path)
    table = draws["table"][:, 2:]
    names = draws["columns"][2:]
    lines = [ln.split() for ln in stdout.splitlines()[2:] if ln.strip()]
    run.check([ln[0] for ln in lines] == names, f"diagnose {path.name}: parameter rows differ")
    size = table.shape[0]
    for j, row in enumerate(lines):
        mean = float(row[1])
        run.check(close(mean, float(table[:, j].mean()), 1e-12, 1e-15),
                  f"diagnose {path.name}: mean of {row[0]} {mean} != numpy {table[:, j].mean()}")
        run.check(row[2] != "degenerate" and 1.0 <= float(row[2]) <= size,
                  f"diagnose {path.name}: ESS of {row[0]} = {row[2]} outside [1, {size}]")
    if side == "defense":
        run.quality.setdefault("ess_min_defense", min(float(row[2]) for row in lines))


def check_panel(run: Run, case: Case, traces, values) -> None:
    draws = run.case_draws(case)
    for trace, got in zip(traces, values):
        want = ref.trace_reference(trace, case.groups, *draws)
        for key, value in got.items():
            run.check(close(value, want[key], 1e-9, 1e-7),
                      f"{case.name} panel m={trace.shape[0]}: {key} {value} "
                      f"!= reference {want[key]}")


# ---------------------------------------------------------------------------
# Workloads


class Workload:
    """Set-up builds the inputs in a fresh directory; a round runs the operations."""

    setup_repeats = 3
    #: The case whose quality figures the traced run reports.
    main_case = "scenario-1"

    def __init__(self, run: Run):
        self.run = run

    def setup(self, work: Path) -> None:
        raise NotImplementedError

    def verify_setup(self) -> None:
        """Checks on what set-up produced, run once outside the timed set-up."""

    def round(self) -> None:
        raise NotImplementedError


class Casework(Workload):
    """What an examiner runs: evaluate at the full protocol, then inspect.

    After each solved scenario, and once more after the unbalanced one,
    the round reopens a solved case's draw files, re-scores both case
    traces against them and runs a calibration study at n = 10.
    """

    name = "casework"
    panel_repeats = 3

    def setup(self, work: Path) -> None:
        self.cases = glass_cases(work, STANDIN)
        self.calibration = write_config("calibration.yaml", work)
        self.calibration_out = work / "calibration"

    def verify_setup(self) -> None:
        semi_analytic_scenario1(self.run, self.cases["scenario-1"])

    def round(self) -> None:
        run, cases = self.run, self.cases
        solved = [cases["scenario-1"], cases["scenario-2"]]
        traces = [case.trace for case in solved]
        for case in solved:
            evaluate(run, case)
            self.inspect(case, traces)
        evaluate_unbalanced(run, cases["unbalanced"])
        self.inspect(solved[0], traces)

    def inspect(self, case: Case, traces) -> None:
        run = self.run
        reopen(run, case)
        draws = load_draws(run, case)
        for _ in range(self.panel_repeats):
            score_panel(run, case, draws, traces)
        simulate(run, self.calibration, self.calibration_out)


class Study(Workload):
    """The convergence study on the default grid, plus one simulated case end to end.

    The study runs twice per round; before, between and after the two
    runs the simulated case is evaluated, reopened and scored, so every
    quantity is sampled across the round.
    """

    name = "study"
    main_case = "study-case"
    repeats = 6

    def setup(self, work: Path) -> None:
        rng = np.random.default_rng([self.run.seed, 2])
        self.config = write_config("study.yaml", work)
        self.out = work / "study"
        self.case, self.panel = study_case(work, rng)

    def round(self) -> None:
        for _ in range(2):
            self.inspect_case()
            simulate(self.run, self.config, self.out)
        self.inspect_case()

    def inspect_case(self) -> None:
        run = self.run
        evaluate(run, self.case)
        draws = load_draws(run, self.case)
        for _ in range(self.repeats):
            reopen(run, self.case)
            score_panel(run, self.case, draws, self.panel)


class Reanalysis(Workload):
    """Reopening a saved scenario-1 case and scoring a panel of traces against it.

    Set-up writes the saved case with a full-protocol evaluate, so it runs
    once per run: each repeat would add that evaluate again.
    """

    name = "reanalysis"
    setup_repeats = 1

    def setup(self, work: Path) -> None:
        rng = np.random.default_rng([self.run.seed, 3])
        self.saved = glass_cases(work, STANDIN)["scenario-1"]
        code, _, err, elapsed = call_cli(["evaluate", "--config", self.saved.config,
                                          "--seed", self.run.seed, "--out", self.saved.out])
        self.run.check(code == 0, f"writing the saved case failed ({code}): {err.strip()}")
        self.run.samples["evaluate_s"].append(elapsed)
        self.panel = standin_panel(rng, REANALYSIS_PANEL)
        self.calibration = write_config("calibration.yaml", work)
        self.calibration_out = work / "calibration"

    def verify_setup(self) -> None:
        check_case(self.run, self.saved)

    def round(self) -> None:
        run = self.run
        reopen(run, self.saved)
        simulate(run, self.calibration, self.calibration_out)
        score_panel(run, self.saved, load_draws(run, self.saved), self.panel)
        reopen(run, self.saved)
        simulate(run, self.calibration, self.calibration_out)
        reopen(run, self.saved)


WORKLOADS = {"casework": Casework, "study": Study, "reanalysis": Reanalysis}


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path
