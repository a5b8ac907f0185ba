"""Span self-time arithmetic, on a hand-built tree and on live wrappers."""

import pytest

from harness import tracing


def _span(id_, name, parent, busy, count=1):
    return {"id": id_, "name": name, "parent": parent, "op": "op/0",
            "start": 0.0, "end": busy, "busy": busy, "count": count}


TREE = [
    _span(0, "op", None, 10.0),
    _span(1, "synth.solve", 0, 9.0),
    _span(2, "encoding.encode_message", 1, 2.0),
    _span(3, "network.candidates", 2, 0.5),
    _span(4, "session.check", 1, 6.0),
    _span(5, "theory.on_assert", 4, 3.0, count=1000),    # aggregate
    _span(6, "simplex.assert_bound", 5, 1.0, count=900),  # aggregate
    _span(7, "session.check", 1, 0.5),
]


def test_self_time_is_busy_minus_children():
    own = tracing.self_times(TREE)
    assert own[0] == 1.0            # 10 - 9
    assert own[1] == 0.5            # 9 - 2 - 6 - 0.5
    assert own[2] == 1.5            # 2 - 0.5
    assert own[4] == 3.0            # 6 - 3
    assert own[5] == 2.0            # 3 - 1
    assert own[6] == 1.0


def test_self_times_add_up_to_the_root():
    assert sum(tracing.self_times(TREE).values()) == pytest.approx(10.0)
    assert tracing.closure_error(TREE) == pytest.approx(0.0)


def test_table_groups_by_name():
    rows = {name: (calls, busy, own)
            for name, calls, busy, own in tracing.self_time_table(TREE)}
    assert rows["session.check"] == (2, 6.5, 3.5)
    assert rows["theory.on_assert"] == (1000, 3.0, 2.0)


def test_wrappers_build_the_tree():
    tracer = tracing.Tracer()
    seen = []
    leaf = tracer.wrap("leaf", lambda x: x * 2, aggregate=True,
                       tally=seen.append)
    branch = tracer.wrap("branch", lambda: [leaf(i) for i in range(5)])
    with tracer.span("op", "op/7"):
        assert branch() == [0, 2, 4, 6, 8]
        branch()
    spans = tracer.to_json()
    names = [s["name"] for s in spans]
    # one op, two individual branches, one aggregate leaf per branch
    assert sorted(names) == ["branch", "branch", "leaf", "leaf", "op"]
    leaves = [s for s in spans if s["name"] == "leaf"]
    assert all(s["count"] == 5 and s["op"] == "op/7" for s in leaves)
    assert {s["parent"] for s in leaves} == {
        s["id"] for s in spans if s["name"] == "branch"}
    assert seen == [0, 2, 4, 6, 8] * 2
    assert tracing.closure_error(spans) < 1e-9
    assert tracer.calls("leaf") == 10


def test_install_and_uninstall_restore_the_originals():
    from repro.api import Session
    from repro.smt.theory import LraTheory

    before = (Session.check, LraTheory.on_assert)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        assert Session.check is not before[0]
        with pytest.raises(RuntimeError):
            tracing.install(tracer)
    finally:
        tracing.uninstall()
    assert (Session.check, LraTheory.on_assert) == before
