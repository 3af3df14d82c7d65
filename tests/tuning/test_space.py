"""Unit tests for knobs, configs, and search spaces."""

import pytest

from repro.tuning.errors import TuningError
from repro.tuning.space import (
    PARTITION_LADDER,
    POLICY_LADDER,
    Knob,
    SearchSpace,
    TuningConfig,
)
from repro.util.rng import Lcg


class TestKnob:
    def test_valid(self):
        k = Knob("p", (1, 2, 4), 2)
        assert k.index_of(4) == 2

    def test_empty_ladder(self):
        with pytest.raises(TuningError):
            Knob("p", (), 1)

    def test_duplicate_values(self):
        with pytest.raises(TuningError):
            Knob("p", (1, 1, 2), 1)

    def test_default_off_ladder(self):
        with pytest.raises(TuningError):
            Knob("p", (1, 2), 3)

    def test_index_of_off_ladder(self):
        with pytest.raises(TuningError):
            Knob("p", (1, 2), 1).index_of(9)


class TestTuningConfig:
    def test_order_insensitive(self):
        a = TuningConfig.from_mapping({"a": 1, "b": 2})
        b = TuningConfig.from_mapping({"b": 2, "a": 1})
        assert a == b
        assert a.key() == b.key()
        assert hash(a) == hash(b)

    def test_getitem_and_get(self):
        c = TuningConfig.from_mapping({"a": 1})
        assert c["a"] == 1
        assert c.get("missing", 7) == 7
        with pytest.raises(KeyError):
            c["missing"]

    def test_replace(self):
        c = TuningConfig.from_mapping({"a": 1, "b": 2})
        d = c.replace("a", 9)
        assert d["a"] == 9 and d["b"] == 2
        assert c["a"] == 1  # immutable
        with pytest.raises(KeyError):
            c.replace("zzz", 0)

    def test_key_is_canonical_json(self):
        c = TuningConfig.from_mapping({"b": 2, "a": 1})
        assert c.key() == '{"a":1,"b":2}'

    def test_label(self):
        c = TuningConfig.from_mapping({"a": 1, "b": 2})
        assert c.label() == "a=1,b=2"


class TestSearchSpace:
    def space(self):
        return SearchSpace((
            Knob("p", (1, 2, 4), 2),
            Knob("flag", (False, True), False),
        ))

    def test_size(self):
        assert self.space().size == 6

    def test_duplicate_knob_names(self):
        with pytest.raises(TuningError):
            SearchSpace((Knob("p", (1,), 1), Knob("p", (2,), 2)))

    def test_default_config(self):
        c = self.space().default_config()
        assert c.as_dict() == {"p": 2, "flag": False}

    def test_grid_order_deterministic(self):
        grids = [
            [c.key() for c in self.space().grid()] for _ in range(2)
        ]
        assert grids[0] == grids[1]
        assert len(grids[0]) == 6
        assert len(set(grids[0])) == 6

    def test_grid_odometer_order(self):
        # last knob cycles fastest
        first_two = list(self.space().grid())[:2]
        assert first_two[0].as_dict() == {"p": 1, "flag": False}
        assert first_two[1].as_dict() == {"p": 1, "flag": True}

    def test_validate_rejects_bad_configs(self):
        sp = self.space()
        with pytest.raises(TuningError):
            sp.validate(TuningConfig.from_mapping({"p": 2}))
        with pytest.raises(TuningError):
            sp.validate(
                TuningConfig.from_mapping({"p": 2, "flag": False, "x": 1})
            )
        with pytest.raises(TuningError):
            sp.validate(TuningConfig.from_mapping({"p": 3, "flag": False}))

    def test_neighbors_are_single_ladder_steps(self):
        sp = self.space()
        c = sp.default_config()  # p=2 (middle), flag=False (bottom)
        n = sp.neighbors(c)
        assert [x.as_dict() for x in n] == [
            {"p": 1, "flag": False},
            {"p": 4, "flag": False},
            {"p": 2, "flag": True},
        ]

    def test_random_config_deterministic(self):
        sp = self.space()
        a = [sp.random_config(Lcg(5)).key() for _ in range(3)]
        b = [sp.random_config(Lcg(5)).key() for _ in range(3)]
        assert a == b
        for key in a:
            sp.validate(TuningConfig.from_mapping(
                __import__("json").loads(key)
            ))

    def test_unknown_knob(self):
        with pytest.raises(TuningError):
            self.space().knob("zzz")


class TestCanonicalSpaces:
    def test_hpx_partitions_defaults_are_table1(self):
        from repro.core.partitioning import table1_partition_sizes

        sp = SearchSpace.hpx_partitions(60)
        c = sp.default_config()
        assert (c["nodal_partition"], c["elements_partition"]) == \
            table1_partition_sizes(60)

    def test_hpx_partitions_off_ladder_default_clamps(self):
        sp = SearchSpace.hpx_partitions(60, ladder=(16, 32))
        c = sp.default_config()
        assert c["nodal_partition"] == 32
        assert c["elements_partition"] == 32

    def test_hpx_full_has_variant_and_policy_knobs(self):
        sp = SearchSpace.hpx_full(45)
        assert set(sp.names) == {
            "nodal_partition", "elements_partition", "combine_loops",
            "parallel_chains", "prioritize_expensive_regions",
            "balanced_split", "replay_graph", "policy",
            "backend", "workers",
        }
        assert sp.knob("policy").values == POLICY_LADDER
        # defaults match the paper's full variant
        c = sp.default_config()
        assert c["combine_loops"] is True
        assert c["parallel_chains"] is True
        assert c["replay_graph"] is True
        assert c["policy"] == "hpx-default"
        # execution-backend knobs default to the in-process path
        assert c["backend"] == "sim"
        assert c["workers"] == 2

    def test_omp_baseline(self):
        sp = SearchSpace.omp_baseline()
        c = sp.default_config()
        assert c["omp_schedule"] == "static"

    def test_partition_ladder_is_powers_of_two(self):
        for v in PARTITION_LADDER:
            assert v & (v - 1) == 0
