"""Fingerprint canonicalization properties.

The cache key must be *semantic*: anything that leaves the encoded
formula unchanged (application order, wire-dict key order, non-encoding
option knobs) leaves the fingerprint unchanged, and anything that
changes the constraints or the interned vocabulary (namespace, horizon,
repair mode, route limit, topology, ...) changes it.
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
    problem_fingerprint,
    problem_from_wire,
    problem_to_wire,
)

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

    def test_non_encoding_options_are_ignored(self):
        problem = family_problem([0, 1])
        base = problem_fingerprint(problem, SynthesisOptions())
        opts = SynthesisOptions(max_conflicts=123)
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

    def test_period_changes_horizon_and_fingerprint(self):
        a = family_problem([0, 1])
        b = family_problem([0, 1], period=Fraction(8, 1000))
        assert problem_fingerprint(a) != problem_fingerprint(b)

    def test_topology_change_breaks_compatibility(self):
        a = family_problem([0, 1])
        net = family_network()
        net.add_switch("E")
        net.add_link("A", "E")
        b = SynthesisProblem(net, [family_app(0), family_app(1)], DELAYS)
        assert problem_fingerprint(a) != problem_fingerprint(b)


#: (problem, options) -> problem_fingerprint, recorded at b2a3628.
#: Every ledger expectation under ``benchmarks/ledger/expected/`` and
#: every cache file on disk is keyed by these digests, so the payload
#: under them (key names, nesting, ``str(Fraction)`` rendering,
#: ``sort_keys``/separators) is frozen: a change here is a cache-format
#: break, never a refactoring side effect.
PINNED_DIGESTS = [
    (lambda: gm_case_study(3), SynthesisOptions(routes=2, stages=3),
     "fbfeae7e4af944ae89f4f3873a1f1634"),
    (lambda: gm_case_study(3), None,
     "bb2928df39655c1e863bbdfa0efefb54"),
    (lambda: bottleneck_problem(3), SynthesisOptions(routes=2),
     "efb49de9735dc943a78667aea1eb996e"),
]


class TestPinnedDigests:
    @pytest.mark.parametrize("build,opts,fingerprint", PINNED_DIGESTS)
    def test_digests_are_byte_stable(self, build, opts, fingerprint):
        assert problem_fingerprint(build(), opts) == fingerprint
