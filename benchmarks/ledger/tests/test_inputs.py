"""Op lists are a function of (workload, seed, scale) and nothing else."""

import pytest

from harness import inputs

SCALE = 0.2


def _prints(workload, seed, scale=SCALE):
    return [(op.op_id, op.kind, op.family, op.fingerprint, op.expect)
            for op in inputs.build(workload, seed, scale)]


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_same_seed_same_ops(workload):
    assert _prints(workload, 5) == _prints(workload, 5)


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_other_seed_other_ops(workload):
    a, b = _prints(workload, 5), _prints(workload, 6)
    assert [p[3] for p in a] != [p[3] for p in b]


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_op_ids_are_unique_and_ordered(workload):
    ids = [op.op_id for op in inputs.build(workload, 0, SCALE)]
    assert ids == sorted(set(ids))


def test_scale_sizes_the_lists():
    small = len(inputs.build("service_unique", 0, 0.1))
    large = len(inputs.build("service_unique", 0, 0.3))
    assert large == 3 * small


def test_unique_requests_never_share_a_fingerprint():
    ops = inputs.build("service_unique", 3, 0.3)
    assert len({op.fingerprint for op in ops}) == len(ops)


def test_repeat_requests_do_repeat():
    ops = inputs.build("service_repeat", 3, 1.0)
    distinct = {op.fingerprint for op in ops}
    assert len(distinct) == 16 and len(ops) > 5 * len(distinct)
    # every base request carries the frame the server will decode
    assert all(op.payload["frame"]["op"] == "solve" for op in ops)


def test_half_of_a_family_is_the_catalogue():
    """Two seeds share the catalogue half of a family and nothing else."""
    a = {op.fingerprint for op in inputs.build("synth_staged", 5, 1.0)
         if op.family == "gmvar3"}
    b = {op.fingerprint for op in inputs.build("synth_staged", 6, 1.0)
         if op.family == "gmvar3"}
    assert len(a) == len(b) == 18 and len(a & b) == 9


def test_session_ops_have_no_arithmetic():
    from harness import oracle

    for op in inputs.build("session_bool", 0, SCALE):
        for clauses, units in oracle.active_clauses(op.payload):
            assert all(isinstance(l, int) for c in clauses for l in c)
            assert all(isinstance(l, int) for l in units)
