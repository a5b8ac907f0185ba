"""``DifferenceLogic._bounded_sssp`` against the loop it replaced.

The tidied pass drops the stale-entry distance check (a node's first pop
carries its minimum key), folds the settled node's potential into the
running distance once per pop, splits the ``backward`` test out of the
edge loop and computes the delta component only when the real one ties
or improves.  None of that may change a result: on every call the two
staged runs of ``benchmarks/difflogic_relax.py`` make, one size up -- the
live graphs, potentials and effort cap of ``gm_case_study(5)`` and its
cross-wired variant -- the old body below (frozen, from commit 49ec26a)
must return equal ``settled`` and ``parent`` dicts, in equal insertion
order.
"""

from dataclasses import replace
from heapq import heappop, heappush

import pytest

from repro.core import SynthesisOptions, SynthesisProblem, solve
from repro.eval.workloads import gm_case_study
from repro.smt import theory
from repro.smt.difflogic import DEFAULT_EFFORT_CAP, DifferenceLogic


def _reference_sssp(dl, start, adj, backward):
    pi_r, pi_d = dl._pi_r, dl._pi_d
    dist = {start: (0, 0)}
    parent = {}
    settled = {}
    heap = [(0, 0, start)]
    budget = DEFAULT_EFFORT_CAP
    while heap and budget > 0:
        dr, dd, x = heappop(heap)
        if x in settled or dist.get(x) != (dr, dd):
            continue  # stale entry
        settled[x] = (dr, dd)
        budget -= 1
        for y, e in adj[x].items():
            if y in settled:
                continue
            if backward:
                # e is the edge y -> x; cost of prepending it.
                er = pi_r[y] + e.wr - pi_r[x]
                ed = pi_d[y] + e.wd - pi_d[x]
            else:
                # e is the edge x -> y; cost of appending it.
                er = pi_r[x] + e.wr - pi_r[y]
                ed = pi_d[x] + e.wd - pi_d[y]
            nr, nd = dr + er, dd + ed
            cur = dist.get(y)
            if cur is None or nr < cur[0] or (nr == cur[0] and nd < cur[1]):
                dist[y] = (nr, nd)
                parent[y] = (x, e.lit)
                heappush(heap, (nr, nd, y))
    return settled, parent


def _cross_wired(n_apps):
    """The GM case study with sensor i talking to controller i + 1."""
    base = gm_case_study(n_apps)
    apps = [replace(app, controller=f"C{(i + 1) % n_apps}")
            for i, app in enumerate(base.apps)]
    return SynthesisProblem(base.network, apps, base.delays)


@pytest.mark.parametrize("make", (gm_case_study, _cross_wired),
                         ids=("gm", "gm-cross"))
def test_tidied_sssp_equals_the_old_loop_on_the_staged_runs(make, monkeypatch):
    seen = {"calls": 0, "backward": 0, "capped": 0, "multi": 0}

    class Differential(DifferenceLogic):
        def _bounded_sssp(self, start, adj, backward):
            settled, parent = super()._bounded_sssp(start, adj, backward)
            want_settled, want_parent = _reference_sssp(
                self, start, adj, backward)
            assert list(settled.items()) == list(want_settled.items())
            assert list(parent.items()) == list(want_parent.items())
            seen["calls"] += 1
            seen["backward"] += backward
            seen["capped"] += len(settled) == DEFAULT_EFFORT_CAP
            seen["multi"] += len(settled) > 1
            return settled, parent

    monkeypatch.setattr(theory, "DifferenceLogic", Differential)
    result = solve(make(5), SynthesisOptions(routes=2, stages=5))
    assert result.status == "sat"
    # Both directions, passes that ran into the effort cap and passes
    # that settled more than their start node all occurred.  (Floors sit
    # under what the search gives at 5 apps: 294 / 350 calls, 165 / 243
    # capped, 289 / 345 multi.  At 4 apps the gm run fell to 220 calls
    # once frozen messages entered the stability rows as constants.)
    assert seen["calls"] >= 250
    assert 0 < seen["backward"] < seen["calls"]
    assert seen["capped"] >= 10
    assert seen["multi"] >= 100
