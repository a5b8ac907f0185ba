"""Fingerprint canonicalization and ancestor-matching properties.

The cache key must be *semantic*: anything that leaves the encoded
formula unchanged (application order, wire-dict key order, non-encoding
option knobs) leaves the fingerprint unchanged, and anything that
changes the constraints or the interned vocabulary (namespace, horizon,
repair mode, route limit, ...) changes it.  Ancestor matching must
never pair entries across incompatible topologies or option buckets.
"""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.problem import SynthesisProblem
from repro.core.synthesizer import SynthesisOptions
from repro.eval.workloads import bottleneck_problem, gm_case_study
from repro.service import (
    ancestor_relation,
    compatibility_key,
    problem_fingerprint,
    problem_from_wire,
    problem_to_wire,
)
from repro.service.fingerprint import app_set_key, match_quality

from .helpers import DELAYS, family_app, family_network, family_problem


class TestCanonicalization:
    def test_app_order_is_irrelevant(self):
        a = family_problem([0, 1, 2])
        net = family_network()
        b = SynthesisProblem(net, [family_app(2), family_app(0),
                                   family_app(1)], DELAYS)
        assert problem_fingerprint(a) == problem_fingerprint(b)

    @settings(max_examples=20, deadline=None)
    @given(perm=st.permutations([0, 1, 2, 3]))
    def test_any_permutation_fingerprints_identically(self, perm):
        reference = problem_fingerprint(family_problem([0, 1, 2, 3]))
        assert problem_fingerprint(family_problem(list(perm))) == reference

    def test_wire_round_trip_with_shuffled_keys(self):
        problem = family_problem([0, 1, 2])
        wire = problem_to_wire(problem)
        # A hostile client may emit keys (and app entries) in any order.
        shuffled = json.loads(json.dumps({
            key: wire[key] for key in reversed(list(wire))
        }))
        shuffled["apps"] = list(reversed(shuffled["apps"]))
        rebuilt = problem_from_wire(shuffled)
        assert problem_fingerprint(rebuilt) == problem_fingerprint(problem)
        assert compatibility_key(rebuilt) == compatibility_key(problem)

    def test_non_encoding_options_are_ignored(self):
        problem = family_problem([0, 1])
        base = problem_fingerprint(problem, SynthesisOptions())
        for opts in (
            SynthesisOptions(dl_propagation=False),
            SynthesisOptions(max_conflicts=123),
        ):
            assert problem_fingerprint(problem, opts) == base

    @pytest.mark.parametrize("opts", [
        SynthesisOptions(routes=1),
        SynthesisOptions(stages=2),
        SynthesisOptions(path_cutoff=3),
        SynthesisOptions(repair=True),
        SynthesisOptions(mode="deadline"),
    ])
    def test_encoding_options_change_the_fingerprint(self, opts):
        problem = family_problem([0, 1])
        assert (problem_fingerprint(problem, opts)
                != problem_fingerprint(problem, SynthesisOptions()))

    def test_namespace_changes_the_fingerprint(self):
        problem = family_problem([0, 1])
        assert (problem_fingerprint(problem, namespace="q")
                != problem_fingerprint(problem))
        assert (compatibility_key(problem, namespace="q")
                != compatibility_key(problem))

    def test_period_changes_horizon_and_fingerprint(self):
        a = family_problem([0, 1])
        b = family_problem([0, 1], period=Fraction(8, 1000))
        assert problem_fingerprint(a) != problem_fingerprint(b)
        assert compatibility_key(a) != compatibility_key(b)

    def test_topology_change_breaks_compatibility(self):
        a = family_problem([0, 1])
        net = family_network()
        net.add_switch("E")
        net.add_link("A", "E")
        b = SynthesisProblem(net, [family_app(0), family_app(1)], DELAYS)
        assert compatibility_key(a) != compatibility_key(b)
        assert problem_fingerprint(a) != problem_fingerprint(b)


#: (problem, options) -> (problem_fingerprint, compatibility_key,
#: app_set_key), recorded at b2a3628.  Every ledger expectation under
#: ``benchmarks/ledger/expected/`` and every cache file on disk is keyed
#: by these digests, so the payload under them (key names, nesting,
#: ``str(Fraction)`` rendering, ``sort_keys``/separators) is frozen: a
#: change here is a cache-format break, never a refactoring side effect.
_GM3_APPS = {"gm0": "da248c03e57a04bd6be27e58a17550f7",
             "gm1": "bf4b004d42e764fed101f465bffc195a",
             "gm2": "13d33fb1e6aa905689b2e1228ceaa6e3"}
PINNED_DIGESTS = [
    (lambda: gm_case_study(3), SynthesisOptions(routes=2, stages=3),
     "fbfeae7e4af944ae89f4f3873a1f1634", "35c3346dcb04c02566f16e590985701a",
     _GM3_APPS),
    (lambda: gm_case_study(3), None,
     "bb2928df39655c1e863bbdfa0efefb54", "35c3346dcb04c02566f16e590985701a",
     _GM3_APPS),
    (lambda: bottleneck_problem(3), SynthesisOptions(routes=2),
     "efb49de9735dc943a78667aea1eb996e", "63a5ea1cf416cbefac689f5e9a73b550",
     {"app0": "55cb973b6c4ed087f66b3d44e27bdfd1",
      "app1": "43627df1311392370504cc46ab51edcc",
      "app2": "658e22f5a7c90c4a5903447366fe051b"}),
]


class TestPinnedDigests:
    @pytest.mark.parametrize("build,opts,fingerprint,bucket,apps",
                             PINNED_DIGESTS)
    def test_digests_are_byte_stable(self, build, opts, fingerprint, bucket,
                                     apps):
        problem = build()
        assert problem_fingerprint(problem, opts) == fingerprint
        assert compatibility_key(problem, opts) == bucket
        assert app_set_key(problem) == apps


class TestAncestorRelation:
    def test_relations(self):
        small = app_set_key(family_problem([0, 1]))
        big = app_set_key(family_problem([0, 1, 2]))
        other = app_set_key(family_problem([3, 4]))
        assert ancestor_relation(small, dict(small)) == "equal"
        assert ancestor_relation(big, small) == "subset"
        # A bigger cached set is never paired: its clauses need not
        # hold for the smaller request.
        assert ancestor_relation(small, big) is None
        assert ancestor_relation(small, other) is None

    def test_same_name_different_descriptor_never_pairs(self):
        request = app_set_key(family_problem([0, 1]))
        cached = app_set_key(
            family_problem([0, 1], period=Fraction(8, 1000)))
        # Same names, different periods: nothing is transferable.
        assert ancestor_relation(request, cached) is None

    def test_match_quality_ordering(self):
        request = app_set_key(family_problem([0, 1, 2]))
        equal = app_set_key(family_problem([0, 1, 2]))
        subset = app_set_key(family_problem([0, 1]))
        superset = app_set_key(family_problem([0, 1, 2, 3]))
        q = {name: match_quality(ancestor_relation(request, apps),
                                 apps, request)
             for name, apps in [("equal", equal), ("subset", subset),
                                ("superset", superset)]}
        assert q["equal"] > q["subset"] > q["superset"]
        assert q["superset"] == match_quality(None, {}, request)

    def test_bigger_subset_outranks_smaller(self):
        request = app_set_key(family_problem([0, 1, 2, 3]))
        small = app_set_key(family_problem([0]))
        large = app_set_key(family_problem([0, 1, 2]))
        assert (match_quality("subset", large, request)
                > match_quality("subset", small, request))
