"""A registry ratio group against N separate ratio counters.

:class:`~repro.obs.registry.RatioGroup` reads N ratios that share one
denominator in one pass.  Its oracle is the same registry built with one
:class:`~repro.obs.registry.RatioCounter` per member: every reader of
the two registries must agree, through empty intervals and both clamp
edges.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.registry import CounterRegistry

N = 3
PATHS = [f"/threads{{worker-thread#{k}}}/idle-rate" for k in range(N)]
DESCRIPTIONS = [f"idle share of worker thread #{k}" for k in range(N)]


def build(state, grouped):
    """A gauge, the N ratios, a gauge, and a later group of two."""
    reg = CounterRegistry()
    reg.register_gauge("/before", lambda: state["den"])

    def ratios(paths, nums, descriptions):
        if grouped:
            reg.register_ratio_group(
                paths, nums=lambda: [state["nums"][k] for k in nums],
                den=lambda: state["den"], descriptions=descriptions,
            )
            return
        for j, (path, k) in enumerate(zip(paths, nums)):
            reg.register_ratio(
                path, num=lambda k=k: state["nums"][k],
                den=lambda: state["den"], description=descriptions[j],
            )

    ratios(PATHS, range(N), DESCRIPTIONS)
    reg.register_gauge("/after", lambda: sum(state["nums"]), unit="[ns]")
    return reg, lambda: ratios(["/late/a", "/late/b"], [0, 2], ["a", "b"])


def readers(reg):
    return (
        reg.n_intervals,
        [(s.path, s.interval, s.time_ns, s.value) for s in reg.samples],
        {path: reg.series(path) for path in reg.paths()},
        reg.last_values(),
        reg.format_print_counter("/*"),
        reg.format_print_counter("/threads{worker-thread#*}/idle-rate"),
        reg.to_json_dict(),
    )


def drive(steps):
    """Sample both registries over *steps* of ``(nums, den)`` states; the
    late group joins after the first sample."""
    out = []
    for grouped in (False, True):
        state = {"nums": [0] * N, "den": 0}
        reg, add_late = build(state, grouped)
        for k, (nums, den) in enumerate(steps):
            state.update(nums=list(nums), den=den)
            reg.record(1000 * (k + 1))
            if k == 0:
                add_late()
        out.append(readers(reg))
    return out


def test_group_matches_ratio_counters_through_edges():
    steps = [
        ([25, 50, 100], 100),   # a plain interval
        ([25, 50, 100], 100),   # empty interval: every member reads 0
        ([500, 60, 90], 200),   # over the denominator and below the last
        ([500, 60, 90], 150),   # the denominator falls: 0
        ([501, 161, 90], 250),  # a value, the d_den clamp, no progress
        ([600, 200, 100], 300),
    ]
    separate, grouped = drive(steps)
    assert grouped == separate
    values = [v for _path, _i, _t, v in separate[1]]
    assert 0.0 in values and 10_000.0 in values


@given(st.lists(
    st.tuples(st.lists(st.integers(-50, 400), min_size=N, max_size=N),
              st.integers(-20, 400)),
    min_size=1, max_size=8,
))
@settings(max_examples=60, deadline=None)
def test_group_matches_ratio_counters(steps):
    separate, grouped = drive(steps)
    assert grouped == separate


def test_no_sample_before_the_first_record():
    state = {"nums": [0] * N, "den": 0}
    reg, _ = build(state, grouped=True)
    assert reg.last_values() == {}
    assert reg.series(PATHS[0]) == []


def test_members_carry_path_unit_and_description():
    state = {"nums": [0] * N, "den": 0}
    reg, _ = build(state, grouped=True)
    for path, description in zip(PATHS, DESCRIPTIONS):
        member = reg.counter(path)
        assert (member.path, member.unit, member.description) == (
            path, "[0.01%]", description,
        )


def test_member_is_not_read_on_its_own():
    reg, _ = build({"nums": [0] * N, "den": 0}, grouped=True)
    with pytest.raises(NotImplementedError, match="RatioGroup"):
        reg.counter(PATHS[0]).sample_value()


def test_duplicate_paths_rejected():
    reg = CounterRegistry()
    reg.register_gauge(PATHS[1], lambda: 0)
    with pytest.raises(ValueError):
        reg.register_ratio_group(PATHS, nums=lambda: [0] * N, den=lambda: 1,
                                 descriptions=DESCRIPTIONS)
    with pytest.raises(ValueError):
        reg.register_ratio_group(["/a", "/a"], nums=lambda: [0, 0],
                                 den=lambda: 1, descriptions=["a", "b"])
    # A rejected group registers none of its members.
    assert reg.paths() == [PATHS[1]]


def test_descriptions_must_match_paths():
    with pytest.raises(ValueError):
        CounterRegistry().register_ratio_group(
            ["/a", "/b"], nums=lambda: [0, 0], den=lambda: 1,
            descriptions=["only one"],
        )
