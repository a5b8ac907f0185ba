"""KnowledgeCache: lookup semantics, eviction, and disk robustness."""

import json
from pathlib import Path

import pytest

from repro.core.seeding import Knowledge
from repro.core.synthesizer import SynthesisOptions, solve
from repro.service import (KnowledgeCache, ServiceClient, ServicePolicy,
                           SynthesisServer, problem_fingerprint)
from repro.service.cache import CacheEntry

from .helpers import family_problem, run

INLINE = ServicePolicy(workers=1, worker_mode="inline")

#: Handcrafted knowledge in the exact shapes the sharing module accepts
#: (see ``repro.runtime.knowledge._valid_literal`` and
#: ``validate_knowledge``): enough to exercise the cache without solving.
CLAUSES = ((("b", "p!route[app0]=0", True),),
           (("b", "p!route[app0]=0", False), ("b", "p!route[app1]=0", True)))
VETO = (("app0@0", 1), ("app1@0", 1))
#: One message's schedule in ``schedules_to_wire`` form (shape only: no
#: cache check asks whether it solves a problem).
SCHEDULES = [{"uid": "app0#0", "app": "app0", "route": ["S0", "A", "B", "C0"],
              "release": "0", "e2e": "401/100000",
              "gammas": {"A": "401/200000", "B": "301/100000"}}]


#: Byte for byte what the writer of separate ``options``, ``clauses``
#: and ``route_veto`` fields stored for an unsat of
#: ``family_problem([0, 1])`` under routes=2: the same JSON keys carry
#: one Knowledge now.  Like every file written while entries also kept a
#: compatibility bucket (``compat_key``) and per-application digests
#: (``apps``), it carries both keys; the loader ignores them.
UNSAT_FILE = (
    '{"apps": {"app0": "4e3d8ddf5f139a1ab78c1f0dcaddf7ae", '
    '"app1": "8cef0032fa211f6fc7b668daceb46cf6"}, '
    '"clauses": [[["b", "p!route[app0]=0", true]], '
    '[["b", "p!route[app0]=0", false], '
    '["b", "p!route[app1]=0", true]]], '
    '"compat_key": "52fcb32e7eed375a886dd1726c0a0980", '
    '"created": 1792218653.7506297, '
    '"fingerprint": "35c9452ae3888c799a52180156cc2314", '
    '"options": {"mode": "stability", "path_cutoff": null, '
    '"repair": false, "routes": 2, "stages": 1}, '
    '"route_veto": [["app0@0", 1], ["app1@0", 1]], '
    '"schedules": null, "status": "unsat", "version": 1, '
    '"work": {"conflicts": 3, "decisions": 5, '
    '"propagations": 8}}\n')

#: Byte for byte what a writer that kept ``compat_key`` and ``apps``
#: stored for the sat of ``family_problem([0])`` under the default
#: options, schedule included.
SAT_FILE = (
    '{"apps": {"app0": "4e3d8ddf5f139a1ab78c1f0dcaddf7ae"}, '
    '"clauses": [], "compat_key": "52fcb32e7eed375a886dd1726c0a0980", '
    '"created": 1792311649.7057643, '
    '"fingerprint": "42ce4f52f56affc7f62100eb2de92471", '
    '"options": {"mode": "stability", "path_cutoff": null, '
    '"repair": false, "routes": null, "stages": 1}, '
    '"route_veto": null, "schedules": [{"app": "app0", "e2e": "7/2000", '
    '"gammas": {"A": "1/800", "B": "1/400"}, "release": "0", '
    '"route": ["S0", "A", "B", "C0"], "uid": "app0#0"}], '
    '"status": "sat", "version": 1, '
    '"work": {"conflicts": 0, "decisions": 1, "propagations": 10}}\n')


def entry_blob(**fields) -> bytes:
    """A cache file for fingerprint ``f * 32`` that passes every check
    except what ``fields`` breaks."""
    payload = {"version": 1, "fingerprint": "f" * 32, "status": "sat",
               "options": {"mode": "stability", "routes": 2, "stages": 1,
                           "path_cutoff": None, "repair": False},
               "clauses": [[["a", [["p/g[m0][s0]", "1"]], "3", False, True]]]}
    payload.update(fields)
    return json.dumps(payload).encode()


def store_family(cache, indices, status="sat", route_veto=(), **kwargs):
    problem = family_problem(indices)
    options = SynthesisOptions()
    knowledge = Knowledge(options.signature, clauses=CLAUSES,
                          route_veto=route_veto)
    entry = cache.store(problem_fingerprint(problem, options), options,
                        status, knowledge=knowledge, **kwargs)
    assert entry is not None
    return problem, entry


class TestLookup:
    def test_miss_then_exact_hit(self, tmp_path):
        cache = KnowledgeCache(tmp_path)
        problem = family_problem([0, 1])
        assert cache.lookup(problem_fingerprint(problem)) is None
        _, entry = store_family(cache, [0, 1])
        assert cache.lookup(problem_fingerprint(problem)) is entry
        assert entry.knowledge.clauses
        assert cache.counters["exact_hits"] == 1
        assert cache.counters["misses"] == 1

    # The cache is keyed by fingerprint only: an entry over other
    # applications or other options is a miss however it relates to
    # the request, and nothing of it seeds the request.

    def test_subset_ancestor_seeds_clauses_and_veto(self, tmp_path):
        # The cached apps are a subset of the request's: a miss.
        cache = KnowledgeCache(tmp_path)
        store_family(cache, [0, 1], status="sat", route_veto=VETO)
        assert cache.lookup(problem_fingerprint(family_problem([0, 1, 2]))) is None
        assert cache.counters["misses"] == 1
        assert cache.counters["ancestor_hits"] == 0

    def test_superset_ancestor_is_a_miss(self, tmp_path):
        cache = KnowledgeCache(tmp_path)
        store_family(cache, [0, 1, 2], route_veto=VETO)
        assert cache.lookup(problem_fingerprint(family_problem([0, 1]))) is None
        assert cache.counters["misses"] == 1
        assert cache.counters["ancestor_hits"] == 0

    def test_incomparable_sets_miss(self, tmp_path):
        cache = KnowledgeCache(tmp_path)
        store_family(cache, [0, 1])
        assert cache.lookup(problem_fingerprint(family_problem([2, 3]))) is None
        assert cache.counters["misses"] == 1

    def test_options_bucket_is_respected(self, tmp_path):
        cache = KnowledgeCache(tmp_path)
        problem, _ = store_family(cache, [0, 1])
        # Same problem under another mode or route limit: a miss.
        for options in (SynthesisOptions(mode="deadline"),
                        SynthesisOptions(routes=1)):
            assert cache.lookup(problem_fingerprint(problem, options)) is None
        assert cache.counters["misses"] == 2

    def test_best_ancestor_wins(self, tmp_path):
        # Two cached subsets of the request, neither of them chosen.
        cache = KnowledgeCache(tmp_path)
        store_family(cache, [0])
        store_family(cache, [0, 1, 2])
        assert cache.lookup(problem_fingerprint(family_problem([0, 1, 2, 3]))) is None
        assert cache.counters["misses"] == 1
        assert cache.counters["exact_hits"] == 0

    def test_unknown_without_clauses_not_stored(self, tmp_path):
        cache = KnowledgeCache(tmp_path)
        options = SynthesisOptions()
        assert cache.store(problem_fingerprint(family_problem([0]), options),
                           options, "unknown") is None
        assert len(cache) == 0

    def test_junk_knowledge_is_quarantined_on_store(self, tmp_path):
        cache = KnowledgeCache(tmp_path)
        junk = [
            Knowledge(SynthesisOptions().signature,
                      clauses=(("not-a-literal",),)),
            # Well-formed, but learned under routes=1: filed under the
            # request's all-routes formula it would import unpadded.
            Knowledge(SynthesisOptions(routes=1).signature, clauses=CLAUSES),
            {"clauses": CLAUSES, "route_veto": None},
        ]
        options = SynthesisOptions()
        key = problem_fingerprint(family_problem([0]), options)
        for knowledge in junk:
            assert cache.store(key, options, "sat",
                               knowledge=knowledge) is None
        assert len(cache) == 0
        assert cache.counters["quarantined_entries"] == len(junk)


class TestPersistence:
    def test_round_trip_across_instances(self, tmp_path):
        cache = KnowledgeCache(tmp_path)
        problem, entry = store_family(cache, [0, 1], route_veto=VETO)
        reloaded = KnowledgeCache(tmp_path)
        hit = reloaded.lookup(problem_fingerprint(problem))
        assert hit is not None
        assert hit.knowledge == entry.knowledge

    def test_files_are_valid_json(self, tmp_path):
        cache = KnowledgeCache(tmp_path)
        _, entry = store_family(cache, [0, 1], route_veto=VETO)
        path = Path(tmp_path) / f"{entry.fingerprint}.json"
        payload = json.loads(path.read_text())
        loaded = CacheEntry.from_json(payload)
        assert loaded.fingerprint == entry.fingerprint
        assert loaded.knowledge == entry.knowledge

    def test_files_written_before_one_knowledge_shape_load_and_seed(
            self, tmp_path):
        (Path(tmp_path) / "35c9452ae3888c799a52180156cc2314.json"
         ).write_text(UNSAT_FILE)
        cache = KnowledgeCache(tmp_path)
        assert cache.counters["quarantined_entries"] == 0
        options = SynthesisOptions(routes=2)
        problem = family_problem([0, 1])
        hit = cache.lookup(problem_fingerprint(problem, options))
        assert hit is not None
        assert hit.knowledge == Knowledge(options.signature,
                                          clauses=CLAUSES, route_veto=VETO)
        # Rewritten, it keeps every key but the two no longer read.
        payload = json.loads(UNSAT_FILE)
        del payload["compat_key"], payload["apps"]
        assert json.loads(json.dumps(hit.to_json())) == payload
        seeded = solve(problem, SynthesisOptions(
            routes=2, seed_knowledge=(hit.knowledge,)))
        assert seeded.statistics["clauses_imported"] == len(CLAUSES)

    def test_files_with_compat_key_and_apps_load_and_answer(self, tmp_path):
        for blob in (SAT_FILE, UNSAT_FILE):
            name = json.loads(blob)["fingerprint"]
            (Path(tmp_path) / f"{name}.json").write_text(blob)

        async def body():
            cache = KnowledgeCache(tmp_path)
            assert cache.counters["quarantined_entries"] == 0
            assert len(cache) == 2
            async with SynthesisServer(policy=INLINE, cache=cache) as server:
                client = ServiceClient(server)
                served = await client.solve(family_problem([0]))
                assert served["cache"] == {"hit": "exact"}
                assert served["attempts"] == 0
                assert served["schedules"] == json.loads(SAT_FILE)[
                    "schedules"]
                seeded = await client.solve(family_problem([0, 1]),
                                            SynthesisOptions(routes=2))
                assert seeded["cache"] == {"hit": "exact"}
                assert seeded["attempts"] == 1
                assert seeded["statistics"]["clauses_imported"] == len(
                    CLAUSES)
                assert server.counters["cache_served"] == 1
                assert server.counters["cache_seeded"] == 1
                assert cache.counters["exact_hits"] == 2
        run(body())

    @pytest.mark.parametrize("blob", [
        b"{ not json",
        b"[]",
        b'{"version": 999}',
        b'{"version": 1, "fingerprint": "x"}',
        json.dumps({"version": 1, "fingerprint": "f" * 32,
                    "options": {}, "status": "sat",
                    "clauses": [["nonsense"]]}).encode(),
        # Well-shaped, but a rational no ``Fraction`` parses: seeding
        # would raise on every repeat of the request.
        pytest.param(entry_blob(clauses=[[["a", [["p/g[m0][s0]", "abc"]],
                                           "3", False, True]]]),
                     id="bad-coefficient"),
    ])
    def test_corrupt_files_are_quarantined_not_fatal(self, tmp_path, blob):
        (Path(tmp_path) / ("f" * 32 + ".json")).write_bytes(blob)
        cache = KnowledgeCache(tmp_path)     # must not raise
        assert len(cache) == 0
        assert cache.counters["quarantined_entries"] == 1
        assert not list(Path(tmp_path).glob("*.json"))
        assert list(Path(tmp_path).glob("*.quarantined"))

    @pytest.mark.parametrize("options,route_veto", [
        ({"routes": True}, None),
        ({"routes": 0}, None),
        ({"stages": -4}, None),
        ({"path_cutoff": -1}, None),
        ({"mode": "bogus"}, None),
        ({"repair": "no"}, None),
        ({}, [["app0#0", True]]),
    ], ids=["routes-true", "routes-0", "stages-negative",
            "path_cutoff-negative", "mode-bogus", "repair-str",
            "veto-count-true"])
    def test_signatures_no_options_can_hold_are_quarantined(
            self, tmp_path, options, route_veto):
        payload = json.loads(entry_blob())
        payload["options"].update(options)
        payload["route_veto"] = route_veto
        (Path(tmp_path) / ("f" * 32 + ".json")).write_text(
            json.dumps(payload))
        cache = KnowledgeCache(tmp_path)
        assert len(cache) == 0
        assert cache.counters["quarantined_entries"] == 1

    def test_files_with_schedule_and_hits_keys_still_load(self, tmp_path):
        # Earlier writers of version 1 also stored the winning schedule
        # and a hit count; the loader ignores both keys.
        cache = KnowledgeCache(tmp_path)
        problem, entry = store_family(cache, [0, 1], route_veto=VETO)
        path = Path(tmp_path) / f"{entry.fingerprint}.json"
        payload = json.loads(path.read_text())
        payload["schedule"] = [["app0@0", ["S0", "A", "B", "C0"],
                                [["A", "1/4000"], ["B", "1/2000"]]]]
        payload["hits"] = 0
        path.write_text(json.dumps(payload, sort_keys=True) + "\n")
        reloaded = KnowledgeCache(tmp_path)
        assert reloaded.counters["quarantined_entries"] == 0
        hit = reloaded.lookup(problem_fingerprint(problem))
        assert hit is not None
        assert hit.knowledge.clauses == CLAUSES
        assert hit.knowledge.route_veto == VETO

    def test_schedules_round_trip_and_load(self, tmp_path):
        cache = KnowledgeCache(tmp_path)
        problem, entry = store_family(cache, [0, 1], schedules=SCHEDULES)
        assert entry.schedules == SCHEDULES
        hit = KnowledgeCache(tmp_path).lookup(problem_fingerprint(problem))
        assert hit is not None and hit.schedules == SCHEDULES

    def test_schedules_are_recorded_for_sat_only(self, tmp_path):
        cache = KnowledgeCache(tmp_path)
        _, entry = store_family(cache, [0, 1], status="unsat",
                                schedules=SCHEDULES)
        assert entry.schedules is None

    @pytest.mark.parametrize("schedules", [
        "not a list",
        [{"uid": "app0#0"}],
        [dict(SCHEDULES[0], gammas={"A": "1/0"})],
        [dict(SCHEDULES[0], release="1e999999999")],
        [dict(SCHEDULES[0], route="S0AB")],
        SCHEDULES + SCHEDULES,
    ])
    def test_malformed_schedules_are_quarantined_at_load(self, tmp_path,
                                                         schedules):
        (Path(tmp_path) / ("f" * 32 + ".json")).write_bytes(
            entry_blob(schedules=schedules))
        cache = KnowledgeCache(tmp_path)
        assert len(cache) == 0
        assert cache.counters["quarantined_entries"] == 1

    def test_schedules_on_an_unsat_entry_are_quarantined(self, tmp_path):
        (Path(tmp_path) / ("f" * 32 + ".json")).write_bytes(
            entry_blob(status="unsat", schedules=SCHEDULES))
        assert KnowledgeCache(tmp_path).counters["quarantined_entries"] == 1

    def test_filename_fingerprint_mismatch_is_quarantined(self, tmp_path):
        cache = KnowledgeCache(tmp_path)
        _, entry = store_family(cache, [0, 1])
        path = Path(tmp_path) / f"{entry.fingerprint}.json"
        path.rename(Path(tmp_path) / ("0" * 32 + ".json"))
        reloaded = KnowledgeCache(tmp_path)
        assert len(reloaded) == 0
        assert reloaded.counters["quarantined_entries"] == 1


class TestEviction:
    def test_entry_cap_evicts_lru(self, tmp_path):
        cache = KnowledgeCache(tmp_path, max_entries=2)
        p0, e0 = store_family(cache, [0])
        p1, _ = store_family(cache, [1])
        # Touch p0 so p1 becomes the coldest.
        assert cache.lookup(problem_fingerprint(p0)) is not None
        store_family(cache, [2])
        assert len(cache) == 2
        assert e0.fingerprint in cache
        assert problem_fingerprint(p1) not in cache
        assert cache.counters["evictions"] == 1
        assert not (Path(tmp_path)
                    / f"{problem_fingerprint(p1)}.json").exists()

    def test_size_cap_evicts(self, tmp_path):
        cache = KnowledgeCache(tmp_path, max_bytes=1)
        store_family(cache, [0])
        assert len(cache) == 1          # a sole oversized entry survives
        store_family(cache, [1])
        assert len(cache) == 1          # but forces the older one out
        assert cache.counters["evictions"] >= 1

    def test_restore_respects_caps(self, tmp_path):
        cache = KnowledgeCache(tmp_path)
        for i in range(4):
            store_family(cache, [i])
        reloaded = KnowledgeCache(tmp_path, max_entries=2)
        assert len(reloaded) == 2
