"""From op results and spans to the named metrics of ``BENCHMARK.json``.

``BENCHMARK.json`` at the root of the repository is the one list of
metric names, units, directions and bounds; this module computes a
value for every name in it and refuses to report a name it does not
list (see ``tests/test_metrics.py``).
"""

from __future__ import annotations

import json
import math
import statistics
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .tracing import Tracer

ROOT = Path(__file__).resolve().parents[3]


def load_benchmark() -> Dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------------
# Percentiles
# ---------------------------------------------------------------------------


def supported_percentile(samples: int) -> int:
    """The highest of 50/75/90 that leaves at least ten samples beyond
    it; the median when none does."""
    for p in (90, 75):
        if samples * (100 - p) >= 10 * 100:
            return p
    return 50


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile (the median interpolates, as usual)."""
    if not values:
        return 0.0
    if p == 50:
        return statistics.median(values)
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def quartile_spread(values: Sequence[float]) -> Optional[float]:
    """Distance between the quartiles as a share of the median."""
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (q3 - q1) / abs(middle) if middle else None


# ---------------------------------------------------------------------------
# End to end
# ---------------------------------------------------------------------------


def tail_percentile(timed: Any) -> int:
    """Which percentile ``op_tail_s`` is on this op list.

    Taken from the number of ops attempted, which the op list fixes, not
    from how many succeeded: the metric must not change its meaning
    between two runs of one list."""
    return supported_percentile(len(timed.results))


def end_to_end(timed: Any, setup_s: float, peak_rss_mb: float) -> Dict[str, float]:
    good = [r.latency for r in timed.results if r.error is None]
    elapsed = timed.end - timed.begin
    return {
        "ops_per_s": len(good) / elapsed if elapsed else 0.0,
        "op_p50_s": percentile(good, 50),
        "op_tail_s": percentile(good, tail_percentile(timed)),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }


# ---------------------------------------------------------------------------
# Per layer
# ---------------------------------------------------------------------------

_ENCODER_SPANS = ("encoding.encode_message",
                  "encoding.add_contention_constraints",
                  "encoding.add_stability_constraints",
                  "encoding.freeze_message")
_THEORY_SPANS = ("theory.on_assert", "theory.on_backjump",
                 "theory.propagate", "theory.final_check")
_SIMPLEX_SPANS = ("simplex.assert_bound", "simplex.check", "simplex.undo_to")
_DIFFLOGIC_SPANS = ("difflogic.assert", "difflogic.implied_bounds",
                    "difflogic.undo_to")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _span_layers(tracer: Tracer, n_ops: int) -> Dict[str, float]:
    """Layer metrics read off the in-process span tree."""
    busy, calls, counts = tracer.busy, tracer.calls, tracer.counts
    network = busy("network.candidates")
    # candidates_for runs inside encode_message: take it out of the
    # encoder's share so the two layers do not both claim it.
    encoding = sum(busy(name) for name in _ENCODER_SPANS) - network
    checks = busy("session.check")
    theory = sum(busy(name) for name in _THEORY_SPANS)
    solves = busy("synth.solve")
    probes = sum(1 for s in tracer.spans if s.name == "session.check")
    return {
        "network.paths_s": network,
        "network.routes": calls("network.candidates"),
        "encoding.busy_s": encoding,
        "encoding.assertions": calls("encoding.add_contention_constraints")
        + calls("encoding.add_stability_constraints")
        + calls("encoding.freeze_message"),
        "encoding.messages": calls("encoding.encode_message"),
        "synth.self_s": max(0.0, solves - encoding - network - checks)
        if solves else 0.0,
        # Per traced solve where there are any (the service workloads'
        # spans come from the kernel's sample, not from every request).
        "synth.checks_per_op": _ratio(probes, calls("synth.solve") or n_ops),
        "session.add_s": busy("session.add"),
        "session.check_s": checks,
        "session.checks": probes,
        "session.core_min_checks": counts["session.core_min_checks"],
        "sat.self_s": checks - theory,
        "sat.propagations": counts["sat.propagations"],
        "sat.decisions": counts["sat.decisions"],
        "sat.conflicts": counts["sat.conflicts"],
        "sat.restarts": counts["sat.restarts"],
        "sat.learnts": counts["sat.learnts"],
        "sat.props_per_s": _ratio(counts["sat.propagations"], checks - theory),
        "sat.decisions_per_conflict": _ratio(counts["sat.decisions"],
                                             counts["sat.conflicts"]),
        "theory.busy_s": theory,
        "theory.calls": sum(calls(name) for name in _THEORY_SPANS),
        "theory.asserts": calls("simplex.assert_bound")
        + calls("difflogic.assert"),
        "theory.conflicts": counts["theory.conflicts"],
        "theory.implied_lits": counts["theory.implied_lits"],
        "theory.propagate_hit_share": _ratio(counts["theory.propagate_hits"],
                                             calls("theory.propagate")),
        "simplex.busy_s": sum(busy(name) for name in _SIMPLEX_SPANS),
        "simplex.bound_asserts": calls("simplex.assert_bound"),
        "simplex.checks": calls("simplex.check"),
        "simplex.conflicts": counts["simplex.conflicts"],
        "difflogic.busy_s": sum(busy(name) for name in _DIFFLOGIC_SPANS),
        "difflogic.asserts": calls("difflogic.assert"),
        "difflogic.implied_bounds": counts["difflogic.implied_bounds"],
        "difflogic.conflicts": counts["difflogic.conflicts"],
        "validator.busy_s": busy("validator.certify"),
        "validator.solutions": calls("validator.certify"),
        "cache.lookup_s": busy("cache.lookup"),
        "cache.store_s": busy("cache.store"),
    }


def _work(statistics_: Dict[str, int]) -> int:
    return statistics_.get("conflicts", 0) + statistics_.get("decisions", 0)


def _reply_layers(timed: Any, kernels: Dict[str, Any]) -> Dict[str, float]:
    """Layer metrics read from the service's replies and counters."""
    replies = [r for r in timed.results
               if r.answer is not None and r.answer.get("type") == "result"]
    queue = [r.answer["queue_wait"] for r in replies]
    wall = [r.answer["solve_wall"] for r in replies]
    front = [r.latency - r.answer["queue_wait"] - r.answer["solve_wall"]
             for r in replies]
    stats = [r.answer.get("statistics") or {} for r in replies]
    cache = timed.extras["cache"]
    hits = cache["exact_hits"] + cache["ancestor_hits"]
    types = [r.answer.get("type") for r in timed.results
             if r.answer is not None]
    cold = kernels.get("cold_work", {})
    warm = [(r, cold[r.op.fingerprint]) for r in replies
            if r.answer["cache"]["hit"] is not None
            and r.op.fingerprint in cold]
    # Wall time of a request's first miss against its later hits, both
    # as the server saw them under the same load.
    missed: Dict[str, float] = {}
    for r in sorted(replies, key=lambda r: r.start):
        if r.answer["cache"]["hit"] is None:
            missed.setdefault(r.op.fingerprint, r.answer["solve_wall"])
    rehit = [r for r in replies if r.answer["cache"]["hit"] is not None
             and r.op.fingerprint in missed]
    out = {
        "server.queue_wait_p50_s": percentile(queue, 50),
        "server.queue_wait_p90_s": percentile(
            queue, supported_percentile(len(queue))),
        "server.solve_wall_p50_s": percentile(wall, 50),
        "server.solve_wall_p90_s": percentile(
            wall, supported_percentile(len(wall))),
        "server.frontend_p50_s": percentile(front, 50),
        "server.overloaded": types.count("overloaded"),
        "server.timeouts": types.count("timeout"),
        "server.errors": types.count("error") + sum(
            1 for r in timed.results if r.answer is None),
        "cache.exact_hits": cache["exact_hits"],
        "cache.ancestor_hits": cache["ancestor_hits"],
        "cache.misses": cache["misses"],
        "cache.stores": cache["stores"],
        "cache.evictions": cache["evictions"],
        "cache.bytes": cache["bytes"],
        "cache.hit_share": _ratio(hits, hits + cache["misses"]),
        "cache.warm_work_ratio": _ratio(
            sum(_work(r.answer.get("statistics") or {}) for r, _ in warm),
            sum(work for _, work in warm)),
        "cache.warm_wall_ratio": _ratio(
            sum(r.answer["solve_wall"] for r in rehit),
            sum(missed[r.op.fingerprint] for r in rehit)),
        "workers.restarts": timed.extras["worker_restarts"],
        "workers.crashes": timed.extras["worker_crashes"],
        "synth.stages": sum(r.answer.get("stages_completed", 0)
                            for r in replies),
        "synth.probe_hit_share": _probe_hit_share(stats),
    }
    out.update(_reply_work(stats))
    return out


def _reply_work(stats: Sequence[Dict[str, int]]) -> Dict[str, float]:
    """Solver work done in worker processes, known only from replies
    (overrides the kernel sample's counts of the same name)."""
    out = {f"sat.{key}": sum(s.get(key, 0) for s in stats)
           for key in ("propagations", "decisions", "conflicts")}
    out["sat.decisions_per_conflict"] = _ratio(out["sat.decisions"],
                                               out["sat.conflicts"])
    return out


def _probe_hit_share(stats: Sequence[Dict[str, int]]) -> float:
    """Share of shortest-route assumption probes that came back sat.

    A stage runs at most two probes and falls back on the full solve
    when they fail, which ``cores_extracted`` counts once per stage."""
    probes = sum(s.get("assumption_probes", 0) for s in stats)
    misses = sum(s.get("cores_extracted", 0) for s in stats)
    return _ratio(max(0, probes - misses), probes)


def _race_layers(timed: Any) -> Dict[str, float]:
    races = [r.answer for r in timed.results if r.answer is not None]
    overhead = 0.0
    for race in races:
        decided = [sr for sr in race.strategy_results
                   if sr.name == race.verdict_by]
        overhead += race.total_time - (decided[0].synthesis_time
                                       if decided else 0.0)
    deciding = [sr.statistics for race in races
                for sr in race.strategy_results if sr.name == race.verdict_by]
    out = {
        "portfolio.overhead_s": overhead,
        "portfolio.attempts": sum(sr.attempts for race in races
                                  for sr in race.strategy_results),
        "portfolio.clauses_imported": sum(
            sr.statistics.get("clauses_imported", 0)
            for race in races for sr in race.strategy_results),
        "portfolio.vetoes_applied": sum(
            sr.statistics.get("route_vetoes_applied", 0)
            for race in races for sr in race.strategy_results),
        "portfolio.pool_clauses": sum(
            race.pool_statistics.get("clauses_pooled", 0) for race in races),
        "portfolio.heartbeats": sum(
            race.supervision_statistics.get("heartbeats_seen", 0)
            for race in races),
        "portfolio.crash_retries": sum(
            race.supervision_statistics.get("crash_retries", 0)
            for race in races),
        "portfolio.degraded": sum(1 for race in races
                                  if race.degraded_to_serial),
        "synth.stages": sum(sr.stages_completed for race in races
                            for sr in race.strategy_results
                            if sr.name == race.verdict_by),
        "synth.probe_hit_share": _probe_hit_share(deciding),
    }
    out.update(_reply_work(deciding))
    return out


def per_layer(workload: str, timed: Any, tracer: Optional[Tracer],
              specs: Dict[str, float], kernels: Dict[str, Any]) -> Dict[str, float]:
    """Every per-layer metric this run can fill (absent ones read 0).

    Untraced runs still fill what replies and counters give, so the
    bypass sanity checks that need no spans hold on every run.
    """
    out: Dict[str, float] = {}
    good = [r for r in timed.results if r.error is None]
    out["ops.tail_percentile"] = tail_percentile(timed)
    out["ops.failed_share"] = _ratio(len(timed.results) - len(good),
                                     len(timed.results))
    if tracer is not None:
        out.update(specs)
        out.update(_span_layers(tracer, len(timed.results)))
    if workload.startswith("service_"):
        out.update(_reply_layers(timed, kernels))
        out.update({k: v for k, v in kernels.items() if k != "cold_work"})
    elif workload == "portfolio_race":
        out.update(_race_layers(timed))
    elif workload == "synth_staged":
        results = [r.answer for r in timed.results if r.answer is not None]
        out["synth.stages"] = sum(r.stages_completed for r in results)
        out["synth.probe_hit_share"] = _probe_hit_share(
            [r.statistics for r in results])
    return out


def fill(names: Sequence[Dict[str, str]],
         values: Dict[str, float]) -> Dict[str, Dict[str, Any]]:
    """``{name: {"value", "unit"}}`` for exactly the listed names."""
    unknown = set(values) - {entry["name"] for entry in names}
    if unknown:
        raise KeyError(f"metrics not in BENCHMARK.json: {sorted(unknown)}")
    return {entry["name"]: {"value": values.get(entry["name"], 0),
                            "unit": entry["unit"]} for entry in names}


# ---------------------------------------------------------------------------
# Bypass sanity checks
# ---------------------------------------------------------------------------

#: workload -> (metric, relation, threshold, what the check needs).
#: Each says that a workload really bypasses (or really exercises) a
#: layer.  "counters" checks can be enforced on any full-scale run,
#: "spans" checks on traced ones; an "advisory" check compares two wall
#: times of one run, which a noisy minute on a shared machine can flip,
#: so it is printed but never makes a run incorrect.
SANITY: Dict[str, Tuple[Tuple[str, str, float, str], ...]] = {
    "session_bool": (("theory.asserts", "==", 0, "spans"),),
    "service_unique": (("cache.exact_hits", "==", 0, "counters"),
                       ("cache.evictions", ">", 0, "counters"),
                       ("server.queue_wait_p50_s", "<", 0.001, "counters")),
    "service_repeat": (("cache.hit_share", ">=", 0.8, "counters"),
                       ("cache.warm_wall_ratio", "<", 1, "advisory"),
                       ("server.queue_wait_p50_s", "<", 0.001, "counters")),
    "portfolio_race": (("portfolio.degraded", "==", 0, "counters"),
                       ("portfolio.crash_retries", "==", 0, "counters")),
}

_RELATIONS = {"==": lambda a, b: a == b, ">": lambda a, b: a > b,
              "<": lambda a, b: a < b, ">=": lambda a, b: a >= b}


def sanity(workload: str, layers: Dict[str, float], traced: bool,
           full_scale: bool) -> List[Dict[str, Any]]:
    """The workload's checks with their verdicts.

    A check is *enforced* when the run has what it needs: spans for the
    span-based ones, and the full op list for the ones that depend on
    its length (256 stores before the first eviction, enough repeats
    for the hit share)."""
    out = []
    for name, relation, threshold, needs in SANITY.get(workload, ()):
        value = layers.get(name, 0)
        out.append({
            "check": f"{name} {relation} {threshold:g}", "value": value,
            "holds": _RELATIONS[relation](value, threshold),
            "enforced": full_scale and (needs == "counters"
                                        or (needs == "spans" and traced)),
        })
    return out
