"""Evidence data model and ingestion.

The object of interest is the evidence triple: a trace of unknown origin
(``e_u``), a control sample from the specific source under consideration
(``e_s``), and samples from a population of alternative sources (``e_a``).
This module loads grouped measurement datasets from the CSV interchange
format, carves them into triples according to a scenario description, and
validates the triple's structural invariants.

Interchange format: comma-separated text with a header row
``source,fragment,<feat1>,<feat2>,...``, UTF-8, ``.`` decimal point.
Feature values are written back with 17 significant digits so a
write/reload round trip is exact.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import DataError

__all__ = [
    "EvidenceSet",
    "Fragment",
    "GroupedDataset",
    "ScenarioSpec",
    "ValidationReport",
    "build_scenario",
    "load_dataset",
    "validate_evidence",
    "write_dataset",
]


@dataclass(frozen=True)
class Fragment:
    """One measured object: a feature vector tagged with its source."""

    source_id: str
    index: int
    features: np.ndarray

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=float)
        feats.flags.writeable = False
        object.__setattr__(self, "features", feats)
        if self.index < 1:
            raise DataError(f"fragment index must be >= 1, got {self.index}")

    @property
    def key(self) -> tuple[str, int]:
        return (self.source_id, self.index)


def _sorted_fragments(fragments) -> tuple[Fragment, ...]:
    return tuple(sorted(fragments, key=lambda f: f.key))


def _stack(fragments: tuple[Fragment, ...]) -> np.ndarray:
    return np.asarray([f.features for f in fragments], dtype=float)


@dataclass(frozen=True)
class GroupedDataset:
    """Fragments grouped by source id, with a consistent feature dimension."""

    fragments: tuple[Fragment, ...]
    feature_names: tuple[str, ...]

    @property
    def dim(self) -> int:
        return len(self.feature_names)

    def group(self, source_id: str) -> tuple[Fragment, ...]:
        got = tuple(f for f in self.fragments if f.source_id == source_id)
        if not got:
            raise DataError(f"unknown source id {source_id!r}")
        return got


def load_dataset(stream) -> GroupedDataset:
    """Parse the interchange CSV from a text stream (or path) into groups.

    The ``source`` and ``fragment`` columns key each row; every other column
    is a feature.  Row order is preserved within each source.  Raises
    :class:`DataError` naming the offending row and column on any malformed
    cell, missing column, inconsistent dimension, or duplicate (source,
    fragment) key.
    """
    if isinstance(stream, (str, bytes)) or hasattr(stream, "__fspath__"):
        try:
            with open(stream, "r", encoding="utf-8", newline="") as fh:
                return load_dataset(fh)
        except OSError as exc:
            raise DataError(f"cannot read dataset {stream}: {exc}") from exc

    reader = csv.reader(stream)
    try:
        header = next(reader)
    except StopIteration:
        raise DataError("empty input: no header row") from None
    header = [h.strip() for h in header]

    for required in ("source", "fragment"):
        if required not in header:
            raise DataError(f"missing column {required!r} in header {header}")
    feature_names = tuple(h for h in header if h not in ("source", "fragment"))
    if not feature_names:
        raise DataError("no feature columns found")

    src_col = header.index("source")
    frag_col = header.index("fragment")
    feat_cols = [header.index(name) for name in feature_names]

    fragments: list[Fragment] = []
    seen: set[tuple[str, int]] = set()
    for row_no, row in enumerate(reader, start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != len(header):
            raise DataError(
                f"row {row_no}: expected {len(header)} fields, got {len(row)}"
            )
        source_id = row[src_col].strip()
        if not source_id:
            raise DataError(f"row {row_no}: empty source id")
        try:
            index = int(row[frag_col])
        except ValueError:
            raise DataError(
                f"row {row_no}, column 'fragment': "
                f"non-integer fragment index {row[frag_col]!r}"
            ) from None
        feats = np.empty(len(feat_cols))
        for j, col in enumerate(feat_cols):
            try:
                feats[j] = float(row[col])
            except ValueError:
                raise DataError(
                    f"row {row_no}, column {feature_names[j]!r}: "
                    f"non-numeric value {row[col]!r}"
                ) from None
        if not np.all(np.isfinite(feats)):
            raise DataError(f"row {row_no}: non-finite feature value")
        key = (source_id, index)
        if key in seen:
            raise DataError(f"row {row_no}: duplicate (source, fragment) key {key}")
        seen.add(key)
        fragments.append(Fragment(source_id, index, feats))

    if not fragments:
        raise DataError("dataset contains no rows")
    return GroupedDataset(tuple(fragments), feature_names)


def write_dataset(dataset: GroupedDataset, stream) -> None:
    """Write the interchange CSV; feature text round-trips bit-exactly."""
    if isinstance(stream, (str, bytes)) or hasattr(stream, "__fspath__"):
        with open(stream, "w", encoding="utf-8", newline="") as fh:
            write_dataset(dataset, fh)
            return
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["source", "fragment", *dataset.feature_names])
    for f in dataset.fragments:
        writer.writerow([f.source_id, f.index, *(f"{v:.17g}" for v in f.features)])


@dataclass(frozen=True)
class EvidenceSet:
    """The evidence triple.

    Components are stored sorted by (source id, fragment index), which makes
    every downstream computation invariant to the order fragments arrived
    in.  Construction does not enforce the triple's statistical invariants;
    :func:`validate_evidence` reports on those without throwing.
    """

    e_u: tuple[Fragment, ...]
    e_s: tuple[Fragment, ...]
    e_a: tuple[Fragment, ...]

    def __post_init__(self):
        object.__setattr__(self, "e_u", _sorted_fragments(self.e_u))
        object.__setattr__(self, "e_s", _sorted_fragments(self.e_s))
        object.__setattr__(self, "e_a", _sorted_fragments(self.e_a))

    def trace_matrix(self) -> np.ndarray:
        return _stack(self.e_u)

    def specific_matrix(self) -> np.ndarray:
        return _stack(self.e_s)

    def alternative_groups(self) -> list[tuple[str, np.ndarray]]:
        """Per-source feature matrices, ordered by sorted source id."""
        order: dict[str, list[Fragment]] = {}
        for f in self.e_a:
            order.setdefault(f.source_id, []).append(f)
        return [(sid, _stack(tuple(frags))) for sid, frags in sorted(order.items())]

    def alternative_source_count(self) -> int:
        return len({f.source_id for f in self.e_a})


@dataclass(frozen=True)
class ScenarioSpec:
    """How to carve a grouped dataset into an evidence triple.

    ``trace_source_id=None`` selects the same-source scenario: the trace is
    taken from the specific source itself, using ``trace_fragments`` if
    given, otherwise every fragment not already claimed for ``e_s``.  With a
    different ``trace_source_id`` the named fragments of that source become
    the trace and the whole source is dropped from the alternative
    population.  ``excluded_sources`` are dropped from ``e_a`` as well.
    """

    specific_source_id: str
    specific_fragments: tuple[int, ...]
    trace_source_id: str | None = None
    trace_fragments: tuple[int, ...] | None = None
    excluded_sources: tuple[str, ...] = ()
    label: str = ""

    def __post_init__(self):
        object.__setattr__(
            self, "specific_fragments", tuple(self.specific_fragments)
        )
        if self.trace_fragments is not None:
            object.__setattr__(self, "trace_fragments", tuple(self.trace_fragments))
        object.__setattr__(self, "excluded_sources", tuple(self.excluded_sources))

    @property
    def same_source(self) -> bool:
        return (
            self.trace_source_id is None
            or self.trace_source_id == self.specific_source_id
        )


def _select(group: tuple[Fragment, ...], indices, *, what: str) -> list[Fragment]:
    by_index = {f.index: f for f in group}
    chosen = []
    for idx in indices:
        if idx not in by_index:
            raise DataError(f"{what}: fragment index {idx} not present")
        chosen.append(by_index[idx])
    return chosen


def build_scenario(dataset: GroupedDataset, spec: ScenarioSpec) -> EvidenceSet:
    """Split ``dataset`` into an evidence triple according to ``spec``.

    The specific source never contributes to ``e_a``; neither does the trace
    source (in the different-source case) nor any explicitly excluded
    source.  Selections must be disjoint and leave both the control sample
    and the trace nonempty, and at least two alternative sources standing.
    """
    if not spec.specific_fragments:
        raise DataError("scenario selects no specific-source fragments (empty e_s)")
    specific_group = dataset.group(spec.specific_source_id)
    e_s = _select(
        specific_group,
        spec.specific_fragments,
        what=f"specific source {spec.specific_source_id!r}",
    )

    if spec.same_source:
        trace_sid = spec.specific_source_id
        if spec.trace_fragments is None:
            taken = set(spec.specific_fragments)
            e_u = [f for f in specific_group if f.index not in taken]
        else:
            e_u = _select(
                specific_group, spec.trace_fragments, what="same-source trace"
            )
    else:
        trace_sid = spec.trace_source_id
        trace_group = dataset.group(trace_sid)
        if spec.trace_fragments is None:
            e_u = list(trace_group)
        else:
            e_u = _select(
                trace_group, spec.trace_fragments, what=f"trace source {trace_sid!r}"
            )

    if not e_u:
        raise DataError("scenario leaves the trace empty (empty e_u)")
    overlap = {f.key for f in e_s} & {f.key for f in e_u}
    if overlap:
        raise DataError(f"scenario selections overlap: {sorted(overlap)}")

    dropped = {spec.specific_source_id, trace_sid, *spec.excluded_sources}
    e_a = [f for f in dataset.fragments if f.source_id not in dropped]
    n_alternatives = len({f.source_id for f in e_a})
    if n_alternatives < 2:
        raise DataError(
            f"only {n_alternatives} alternative source(s) remain; need at least 2"
        )
    return EvidenceSet(e_u=tuple(e_u), e_s=tuple(e_s), e_a=tuple(e_a))


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_evidence(evidence: EvidenceSet) -> ValidationReport:
    """Check the triple's invariants; reports violations, never throws."""
    violations: list[str] = []

    if not evidence.e_s:
        violations.append("e_s is empty")
    elif len({f.source_id for f in evidence.e_s}) > 1:
        violations.append("e_s mixes multiple sources")
    if not evidence.e_u:
        violations.append("e_u is empty")
    if evidence.alternative_source_count() < 2:
        violations.append("e_a needs >= 2 sources")

    dims = {f.features.size for f in (*evidence.e_u, *evidence.e_s, *evidence.e_a)}
    if len(dims) > 1:
        violations.append(f"inconsistent feature dimension: {sorted(dims)}")

    keys = [f.key for f in (*evidence.e_u, *evidence.e_s, *evidence.e_a)]
    if len(keys) != len(set(keys)):
        violations.append("a fragment appears in more than one component")

    return ValidationReport(tuple(violations))
