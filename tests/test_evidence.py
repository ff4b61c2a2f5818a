import io
import pathlib

import numpy as np
import pytest

from specsource.errors import DataError
from specsource.evidence import (
    ColumnSchema,
    EvidenceSet,
    Fragment,
    ScenarioSpec,
    build_scenario,
    load_dataset,
    validate_evidence,
    write_dataset,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
FIXTURE = REPO_ROOT / "data" / "glass_sim_class1.csv"

SMALL_CSV = """source,fragment,a,b,c
s1,1,0.1,0.2,0.3
s1,2,0.4,0.5,0.6
s2,1,0.7,0.8,0.9
"""


@pytest.fixture(scope="module")
def glass():
    return load_dataset(FIXTURE)


def scenario_same_source(**kw):
    defaults = dict(
        specific_source_id="w04",
        specific_fragments=(1, 2, 3),
        trace_fragments=(4, 5),
        excluded_sources=("w02",),
        label="scenario-1",
    )
    defaults.update(kw)
    return ScenarioSpec(**defaults)


class TestLoadDataset:
    def test_small_file_groups(self):
        ds = load_dataset(io.StringIO(SMALL_CSV))
        assert ds.dim == 3
        assert ds.group_sizes() == {"s1": 2, "s2": 1}
        assert ds.feature_names == ("a", "b", "c")

    def test_non_numeric_cell_names_row_and_column(self):
        bad = SMALL_CSV.replace("0.5", "oops")
        with pytest.raises(DataError, match=r"row 3, column 'b'.*'oops'"):
            load_dataset(io.StringIO(bad))

    def test_missing_column(self):
        with pytest.raises(DataError, match="missing column 'fragment'"):
            load_dataset(io.StringIO("source,a\ns1,0.1\n"))

    def test_duplicate_key(self):
        dup = SMALL_CSV + "s2,1,1.0,1.0,1.0\n"
        with pytest.raises(DataError, match=r"duplicate \(source, fragment\)"):
            load_dataset(io.StringIO(dup))

    def test_explicit_feature_subset(self):
        ds = load_dataset(io.StringIO(SMALL_CSV), ColumnSchema(features=("a", "c")))
        assert ds.dim == 2
        assert np.allclose(ds.fragments[0].features, [0.1, 0.3])

    def test_optional_log_transform(self):
        ds = load_dataset(io.StringIO(SMALL_CSV), ColumnSchema(log_transform=True))
        assert np.allclose(ds.fragments[0].features, np.log([0.1, 0.2, 0.3]))

    def test_log_transform_rejects_nonpositive(self):
        bad = SMALL_CSV.replace("0.5", "-0.5")
        with pytest.raises(DataError, match=r"row 3, column 'b'.*positive"):
            load_dataset(io.StringIO(bad), ColumnSchema(log_transform=True))

    def test_glass_fixture_geometry(self, glass):
        assert len(glass.source_ids) == 16
        assert set(glass.group_sizes().values()) == {5}
        assert glass.dim == 3

    def test_round_trip_is_exact(self, glass):
        first = io.StringIO()
        write_dataset(glass, first)
        again = load_dataset(io.StringIO(first.getvalue()))
        for f, g in zip(glass.fragments, again.fragments):
            assert f.key == g.key
            assert np.array_equal(f.features, g.features)
        second = io.StringIO()
        write_dataset(again, second)
        assert second.getvalue() == first.getvalue()


class TestBuildScenario:
    def test_same_source_geometry(self, glass):
        ev = build_scenario(glass, scenario_same_source())
        assert len(ev.e_s) == 3
        assert len(ev.e_u) == 2
        assert len(ev.e_a) == 70
        assert ev.alternative_source_count() == 14
        assert {f.source_id for f in ev.e_u} == {"w04"}

    def test_same_source_remaining_default(self, glass):
        ev = build_scenario(glass, scenario_same_source(trace_fragments=None))
        assert {f.index for f in ev.e_u} == {4, 5}

    def test_different_source_geometry(self, glass):
        spec = ScenarioSpec(
            specific_source_id="w04",
            specific_fragments=(1, 2, 3),
            trace_source_id="w02",
            trace_fragments=(1, 2),
            label="scenario-2",
        )
        ev = build_scenario(glass, spec)
        assert len(ev.e_u) == 2
        assert len(ev.e_a) == 70
        assert ev.alternative_source_count() == 14
        assert "w02" not in {f.source_id for f in ev.e_a}
        assert "w04" not in {f.source_id for f in ev.e_a}

    def test_claiming_all_fragments_leaves_empty_trace(self, glass):
        spec = scenario_same_source(
            specific_fragments=(1, 2, 3, 4, 5), trace_fragments=None
        )
        with pytest.raises(DataError, match="empty e_u"):
            build_scenario(glass, spec)

    def test_overlapping_selection_rejected(self, glass):
        spec = scenario_same_source(trace_fragments=(3, 4))
        with pytest.raises(DataError, match="overlap"):
            build_scenario(glass, spec)

    def test_unknown_fragment_rejected(self, glass):
        spec = scenario_same_source(specific_fragments=(1, 2, 9))
        with pytest.raises(DataError, match="index 9"):
            build_scenario(glass, spec)

    def test_too_few_alternatives(self):
        ds = load_dataset(io.StringIO(SMALL_CSV))
        spec = ScenarioSpec(
            specific_source_id="s1",
            specific_fragments=(1,),
            trace_fragments=(2,),
        )
        with pytest.raises(DataError, match="alternative source"):
            build_scenario(ds, spec)

    def test_partition_of_referenced_fragments(self, glass):
        # components partition the referenced fragments: disjoint keys, full count
        ev = build_scenario(glass, scenario_same_source())
        keys = [f.key for f in (*ev.e_u, *ev.e_s, *ev.e_a)]
        assert len(keys) == len(set(keys)) == 75
        referenced = {
            f.key
            for f in glass.fragments
            if f.source_id not in ("w02",) and not (f.source_id == "w04")
        }
        referenced |= {("w04", i) for i in range(1, 6)}
        assert set(keys) == referenced


class TestValidateEvidence:
    def test_glass_scenario_clean(self, glass):
        ev = build_scenario(glass, scenario_same_source())
        report = validate_evidence(ev)
        assert report.ok
        assert report.summary["e_a"]["sources"] == 14
        assert report.summary["e_s"]["count"] == 3

    def test_single_alternative_source_flagged(self):
        frag = lambda sid, idx: Fragment(sid, idx, np.zeros(2))
        ev = EvidenceSet(
            e_u=(frag("u", 1),),
            e_s=(frag("s", 1),),
            e_a=(frag("a1", 1), frag("a1", 2)),
        )
        report = validate_evidence(ev)
        assert "e_a needs >= 2 sources" in report.violations

    def test_mixed_dimension_flagged(self):
        ev = EvidenceSet(
            e_u=(Fragment("u", 1, np.zeros(2)),),
            e_s=(Fragment("s", 1, np.zeros(3)),),
            e_a=(Fragment("a1", 1, np.zeros(2)), Fragment("a2", 1, np.zeros(2))),
        )
        report = validate_evidence(ev)
        assert any("inconsistent feature dimension" in v for v in report.violations)

    def test_duplicate_fragment_flagged(self):
        f = Fragment("x", 1, np.zeros(2))
        ev = EvidenceSet(e_u=(f,), e_s=(f,), e_a=(Fragment("a1", 1, np.zeros(2)), Fragment("a2", 1, np.zeros(2))))
        report = validate_evidence(ev)
        assert any("more than one component" in v for v in report.violations)


class TestEvidenceSetNormalization:
    def test_fragment_order_is_normalized(self, glass):
        ev = build_scenario(glass, scenario_same_source())
        shuffled = EvidenceSet(
            e_u=tuple(reversed(ev.e_u)),
            e_s=ev.e_s[::-1],
            e_a=tuple(np.random.default_rng(1).permutation(np.array(ev.e_a, dtype=object))),
        )
        assert np.array_equal(shuffled.trace_matrix(), ev.trace_matrix())
        assert np.array_equal(shuffled.specific_matrix(), ev.specific_matrix())
        for (sid_a, ga), (sid_b, gb) in zip(
            shuffled.alternative_groups(), ev.alternative_groups()
        ):
            assert sid_a == sid_b
            assert np.array_equal(ga, gb)
