"""Seeded op lists for the five workloads (pure input generation).

Every list is a function of ``(seed, scale)`` only: the same pair gives
the same ops, fingerprint for fingerprint.  ``scale`` is
``--seconds / 10``; the base counts below fill about ten seconds of
timed section on the reference machine (see ../README.md), so a run
measures for about ``--seconds`` seconds without the op mix changing
with machine speed.  The program under test receives only the problems
and clauses built here, never the seed.

Solver cost is heavy-tailed in the instance: random 3-SAT at the
threshold or the paper's random 15-switch networks move a run's total
by 30-60 % from one seed to the next, which would bury the 10-25 %
regressions the ledger exists to catch.  Two things keep a run's
numbers comparable across seeds:

* the seeded ops come from families whose cost is narrow by
  construction -- the paper's Fig. 1 automotive topology with seeded
  endpoints and a fixed period mix, shuffled pigeon-hole, batches of
  planted 3-SAT -- next to a few anchors that are not drawn at all (the
  GM case study itself);
* half of each family's instances come from a fixed catalogue stream
  and half from the seed (:func:`_sources`), so the seed moves the total
  half as far while no change can be tuned to the catalogue alone.

Verdicts of the propositional families are known by construction, so
any seed can be checked without solving twice.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core import ControlApplication, SynthesisOptions, SynthesisProblem
from repro.eval import workloads as W
from repro.network.timing import DelayModel
from repro.network.topology import gm_topology
from repro.portfolio import Strategy
from repro.service import problem_fingerprint, problem_to_wire
from repro.stability.piecewise import StabilitySpec

WORKLOADS = ("synth_staged", "session_bool", "service_repeat",
             "service_unique", "portfolio_race")

#: Per-op limits (seconds): an op over its limit counts as failed.
LIMIT_SYNTH = 60.0
LIMIT_REQUEST = 10.0


@dataclass(frozen=True)
class Op:
    """One unit of timed work: a synthesis problem, a Session episode,
    a service request, or a portfolio race."""

    op_id: str
    kind: str                     # synth | session | request | race
    family: str
    payload: Any = field(compare=False, repr=False)
    fingerprint: str = ""
    #: Verdict known by construction (None: certified or asked of the oracle).
    expect: Optional[str] = None
    limit_s: float = LIMIT_SYNTH


def scaled(base: int, scale: float, floor: int = 1) -> int:
    return max(floor, int(round(base * scale)))


def _rng(workload: str, seed: int) -> random.Random:
    # str seeding hashes the text, so streams of different workloads
    # and seeds do not overlap.
    return random.Random(f"ledger/{workload}/{seed}")


def _sources(rng: random.Random, family: str, count: int) -> List[random.Random]:
    """Where each of a family's ``count`` instances is drawn from: the
    first half from the family's catalogue stream (the same instances
    whatever the seed), the rest from the run's own stream."""
    catalogue = random.Random(f"ledger/catalogue/{family}")
    return [catalogue] * (count // 2) + [rng] * (count - count // 2)


def _digest(payload: object) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:32]


def _number(ops: Sequence[Op], workload: str) -> List[Op]:
    return [replace(op, op_id=f"{workload}/{i:04d}")
            for i, op in enumerate(ops)]


# ---------------------------------------------------------------------------
# Synthesis problems shared by synth_staged, service_repeat, portfolio_race
# ---------------------------------------------------------------------------

#: Table I's published (alpha, beta ms) per period class.
_GM_SPEC = {period: (alpha, beta) for period, alpha, beta in W.TABLE1_ROWS}
_GM_ENDPOINTS = 8


def gm_variant(rng: random.Random, periods_ms: Sequence[int],
               prefix: str = "gm") -> SynthesisProblem:
    """The paper's Fig. 1 topology with seeded sensor/controller pairs.

    Topology, delays, period mix (hence message count) and stability
    rows are the GM case study's; only which of the eight sensors talks
    to which of the eight controllers is drawn.  Cost varies ~10-20 %
    across draws, against 100x for the unconstrained random generator.
    """
    net = gm_topology(_GM_ENDPOINTS, _GM_ENDPOINTS)
    sensors = rng.sample(range(_GM_ENDPOINTS), len(periods_ms))
    controllers = rng.sample(range(_GM_ENDPOINTS), len(periods_ms))
    apps = []
    for i, period_ms in enumerate(periods_ms):
        alpha, beta_ms = _GM_SPEC[period_ms]
        apps.append(ControlApplication(
            name=f"{prefix}{i}", sensor=f"S{sensors[i]}",
            controller=f"C{controllers[i]}", period=Fraction(period_ms, 1000),
            stability=StabilitySpec.single_line(
                alpha, str(Fraction(beta_ms) / 1000))))
    return SynthesisProblem(net, apps, DelayModel.table1())


def _synth_op(family: str, problem: SynthesisProblem,
              options: SynthesisOptions, expect: Optional[str] = None) -> Op:
    return Op("", "synth", family, (problem, options),
              problem_fingerprint(problem, options), expect)


#: (n_apps, routes, stages) of the GM case-study anchors.
_GM_SYNTH = ((3, 3, 5), (4, 2, 5), (5, 2, 5), (4, 3, 5), (6, 2, 5))


def synth_staged(seed: int, scale: float) -> List[Op]:
    rng = _rng("synth_staged", seed)
    ops = [
        _synth_op(f"gm{n}", W.gm_case_study(n),
                  SynthesisOptions(routes=r, stages=s))
        for n, r, s in _GM_SYNTH[:min(scaled(2, scale), len(_GM_SYNTH))]
    ]
    for source in _sources(rng, "gmvar3", scaled(18, scale)):
        ops.append(_synth_op("gmvar3", gm_variant(source, (40, 50, 40)),
                             SynthesisOptions(routes=3, stages=4)))
    rng.shuffle(ops)
    return _number(ops, "synth_staged")


def synth_warmup(scale: float) -> Tuple[SynthesisProblem, SynthesisOptions]:
    """The untimed first solve of a process (first pass runs ~10 % slow)."""
    if scale < 0.5:
        return W.bottleneck_problem(3), SynthesisOptions(routes=2)
    return W.gm_case_study(3), SynthesisOptions(routes=2, stages=3)


# ---------------------------------------------------------------------------
# session_bool: propositional episodes (no arithmetic atoms)
# ---------------------------------------------------------------------------

Clause = Tuple[int, ...]          # DIMACS-style: +v / -v, v >= 1


def pigeonhole(pigeons: int, holes: int) -> Tuple[int, List[Clause]]:
    var = lambda p, h: p * holes + h + 1  # noqa: E731
    clauses: List[Clause] = [tuple(var(p, h) for h in range(holes))
                             for p in range(pigeons)]
    for h in range(holes):
        for a in range(pigeons):
            for b in range(a + 1, pigeons):
                clauses.append((-var(a, h), -var(b, h)))
    return pigeons * holes, clauses


def shuffled(rng: random.Random, nvars: int,
             clauses: Sequence[Clause]) -> List[Clause]:
    """The same formula under a random renaming, clause and literal order."""
    rename = list(range(1, nvars + 1))
    rng.shuffle(rename)
    out = [tuple(rename[abs(l) - 1] * (1 if l > 0 else -1)
                 for l in rng.sample(clause, len(clause)))
           for clause in clauses]
    rng.shuffle(out)
    return out


def random_3sat(rng: random.Random, n: int, ratio: float,
                planted: Optional[List[bool]] = None) -> List[Clause]:
    """Uniform random 3-SAT; with ``planted`` every clause agrees with
    that assignment somewhere, so the formula is satisfiable."""
    clauses: List[Clause] = []
    while len(clauses) < int(round(ratio * n)):
        clause = tuple(v if rng.random() < 0.5 else -v
                       for v in rng.sample(range(1, n + 1), 3))
        if planted is not None and not any(
                planted[abs(l) - 1] == (l > 0) for l in clause):
            continue
        clauses.append(clause)
    return clauses


def _session_op(family: str, spec: Dict[str, Any],
                expect: Optional[str] = None) -> Op:
    return Op("", "session", family, spec, _digest(spec), expect)


def _planted_batch(rng: random.Random, n: int, ratio: float,
                   formulas: int) -> Dict[str, Any]:
    """One Session, ``formulas`` planted 3-SAT formulas, each in its own
    push/pop scope: an episode's cost is a sum, so it varies far less
    than one formula's (coefficient of variation 0.65 at the threshold)."""
    return {"mode": "batch", "vars": n, "formulas": [
        random_3sat(rng, n, ratio, [rng.random() < 0.5 for _ in range(n)])
        for _ in range(formulas)]}


def _incremental_episode(rng: random.Random, n: int, checks: int) -> Dict[str, Any]:
    """One Session's script: assumption checks with push/pop in between.

    The base formula is planted (satisfiable) and under-constrained, so
    random 10-literal assumption sets flip between sat and unsat and
    the unsat ones carry non-trivial cores to minimise.
    """
    planted = [rng.random() < 0.5 for _ in range(n)]
    steps: List[List[Any]] = []
    for j in range(checks):
        if j % 4 == 1:
            steps.append(["push", random_3sat(rng, n, 0.06, planted)])
        literals = [v if rng.random() < 0.5 else -v
                    for v in rng.sample(range(1, n + 1), 10)]
        steps.append(["check", literals])
        if j % 4 == 3:
            steps.append(["pop"])
    return {"mode": "incremental", "vars": n,
            "clauses": random_3sat(rng, n, 3.6, planted), "steps": steps}


def session_bool(seed: int, scale: float) -> List[Op]:
    rng = _rng("session_bool", seed)
    big = 7 if scale >= 0.5 else 5
    nvars, clauses = pigeonhole(big + 1, big)
    ops = [_session_op(f"php{big + 1}x{big}",
                       {"mode": "oneshot", "vars": nvars, "clauses": clauses},
                       expect="unsat")
           for _ in range(scaled(1, scale))]
    nvars, clauses = pigeonhole(7, 6)
    for source in _sources(rng, "php7x6", scaled(32, scale)):
        ops.append(_session_op("php7x6_shuffled", {
            "mode": "oneshot", "vars": nvars,
            "clauses": shuffled(source, nvars, clauses)}, expect="unsat"))
    # Under-constrained: unit propagation does the work, few conflicts.
    for source in _sources(rng, "planted_easy", scaled(12, scale)):
        ops.append(_session_op("planted_easy",
                               _planted_batch(source, 400, 3.0, 12),
                               expect=",".join(["sat"] * 12)))
    # At the threshold: search does the work.
    for source in _sources(rng, "planted_hard", scaled(6, scale)):
        ops.append(_session_op("planted_hard",
                               _planted_batch(source, 100, 4.26, 24),
                               expect=",".join(["sat"] * 24)))
    for source in _sources(rng, "incremental", scaled(4, scale)):
        ops.append(_session_op("incremental",
                               _incremental_episode(source, 90, 20)))
    rng.shuffle(ops)
    return _number(ops, "session_bool")


def session_warmup() -> Dict[str, Any]:
    nvars, clauses = pigeonhole(6, 5)
    return {"mode": "oneshot", "vars": nvars, "clauses": clauses}


# ---------------------------------------------------------------------------
# Service requests
# ---------------------------------------------------------------------------


def _request_op(family: str, problem: SynthesisProblem,
                wire_options: Dict[str, int],
                expect: Optional[str] = None) -> Op:
    options = SynthesisOptions(**wire_options)
    frame = {"op": "solve", "problem": problem_to_wire(problem),
             "options": wire_options, "deadline": LIMIT_REQUEST}
    return Op("", "request", family,
              {"frame": frame, "problem": problem, "options": options},
              problem_fingerprint(problem, options), expect, LIMIT_REQUEST)


#: Periods (ms) of a site's five applications.  Every subset used below
#: holds a 40 ms and a 50 ms application, so it keeps the site's 200 ms
#: hyper-period and stays in the site's cache-compatibility bucket.
_SITE_PERIODS_MS = (40, 50, 40, 50, 50)
#: A site's request shapes, most popular first: (apps, options).  The
#: 3-app request is the site's staple; the 2-app one is its subset
#: ancestor (clauses import), the others are its supersets.
#: Mostly single-stage route subsets: that is where a cached schedule
#: and cached clauses shorten the solve (see README, service_repeat).
_SITE_SHAPES = (
    ((0, 1, 2), {"routes": 2, "stages": 1}),
    ((0, 1), {"routes": 3, "stages": 1}),
    ((0, 1, 2, 3), {"routes": 2, "stages": 1}),
    ((0, 1, 4), {"routes": 2, "stages": 2}),
)
_SITES = 4


def service_repeat(seed: int, scale: float) -> List[Op]:
    """Zipf-popular repeats of 16 base requests from four sites.

    Which base holds which popularity rank is fixed (rank r is shape
    ``r // 4`` of site ``r % 4``) and so is each rank's request count.
    Three sites are catalogue sites; the seed draws the fourth (the
    least popular of each shape) and the arrival order.  With seeded
    ranks and sites the run's median would be one site's one draw, and
    moved 20 % with it.
    """
    rng = _rng("service_repeat", seed)
    n_requests = scaled(110, scale, floor=6)
    catalogue = random.Random("ledger/catalogue/site")
    sites = [gm_variant(catalogue if k < _SITES - 1 else rng,
                        _SITE_PERIODS_MS, prefix=f"site{k}app")
             for k in range(_SITES)]
    bases = []
    for apps, wire_options in _SITE_SHAPES:
        for k, site in enumerate(sites):
            problem = SynthesisProblem(
                site.network, [site.apps[i] for i in apps], site.delays)
            bases.append(_request_op(f"site{k}", problem, wire_options))
    bases = bases[:max(3, n_requests // 4)]
    weights = [1.0 / (rank + 1) ** 0.8 for rank in range(len(bases))]
    quota = [n_requests * w / sum(weights) for w in weights]
    counts = [max(1, int(q)) for q in quota]
    # Largest remainders take what rounding down left over.
    for rank in sorted(range(len(bases)), key=lambda r: quota[r] - int(quota[r]),
                       reverse=True)[:max(0, n_requests - sum(counts))]:
        counts[rank] += 1
    stream = [base for base, count in zip(bases, counts)
              for _ in range(count)]
    rng.shuffle(stream)
    return _number(stream, "service_repeat")


#: The unique periods of a run spread over this much (seconds), whatever
#: the number of requests: the infeasible funnels must stay below the
#: relief path's 4.015 ms latency.
_UNIQUE_SPAN = Fraction(5, 10000)


def service_unique(seed: int, scale: float) -> List[Op]:
    rng = _rng("service_unique", seed)
    n_requests = scaled(1100, scale, floor=8)
    slots = 10 * n_requests
    ops: List[Op] = []
    for u in rng.sample(range(slots), n_requests):
        jitter = _UNIQUE_SPAN * u / slots
        roll = rng.random()
        if roll < 0.10:
            # Below the relief path's 4.015 ms latency: infeasible.
            problem = W.bottleneck_problem(
                rng.choice((3, 4)), period=Fraction(305, 100000) + jitter,
                islands=rng.choice((0, 1, 2)))
            ops.append(_request_op("funnel_unsat", problem, {"routes": 2},
                                   expect="unsat"))
        elif roll < 0.60:
            problem = W.bottleneck_problem(
                3, period=Fraction(45, 10000) + jitter,
                islands=rng.choice((0, 1, 2, 3)))
            ops.append(_request_op("funnel", problem, {"routes": 2}))
        else:
            problem = W.chain_problem(
                rng.choice((3, 4)), rng.choice((3, 4, 5)),
                period=Fraction(95, 10000) + jitter)
            ops.append(_request_op("chain", problem, {"routes": 1}))
    return _number(ops, "service_unique")


def service_warmup() -> Op:
    return _request_op("warmup", W.bottleneck_problem(3), {"routes": 2})


# ---------------------------------------------------------------------------
# portfolio_race
# ---------------------------------------------------------------------------

STAGED = SynthesisOptions(routes=2, stages=5)
MONOLITHIC = SynthesisOptions(routes=None, stages=1)


def race_strategies() -> List[Strategy]:
    return [Strategy("staged", STAGED), Strategy("monolithic", MONOLITHIC)]


def _race_op(family: str, problem: SynthesisProblem,
             expect: Optional[str] = None) -> Op:
    return Op("", "race", family, problem,
              problem_fingerprint(problem, STAGED), expect)


def portfolio_race(seed: int, scale: float) -> List[Op]:
    rng = _rng("portfolio_race", seed)
    ops = [_race_op(f"gm{n}", W.gm_case_study(n))
           for n in (3, 4, 5)[:scaled(3, scale)]]
    for source in _sources(rng, "gmvar3", scaled(28, scale)):
        ops.append(_race_op("gmvar3", gm_variant(source, (40, 50, 40))))
    # The race-overhead floor: both strategies refute these in ~10 ms.
    funnels = [W.bottleneck_problem(3, period=Fraction(35, 10000)),
               W.sharing_unsat_problem()]
    for _ in range(scaled(2, scale)):
        funnels.append(W.bottleneck_problem(
            rng.choice((3, 4)),
            period=Fraction(305, 100000)
            + _UNIQUE_SPAN * Fraction(rng.randrange(1000), 1000),
            islands=rng.choice((0, 1, 2))))
    ops.extend(_race_op("funnel_unsat", p, expect="unsat")
               for p in funnels[:scaled(4, scale)])
    rng.shuffle(ops)
    return _number(ops, "portfolio_race")


BUILDERS = {
    "synth_staged": synth_staged,
    "session_bool": session_bool,
    "service_repeat": service_repeat,
    "service_unique": service_unique,
    "portfolio_race": portfolio_race,
}


def build(workload: str, seed: int, scale: float) -> List[Op]:
    return BUILDERS[workload](seed, scale)
