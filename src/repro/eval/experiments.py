"""Experiment runners: one per table/figure of the paper's evaluation.

Each ``run_figN``/``run_table1`` function regenerates the corresponding
plot's data.  All runners are parameterized by a scale so the
laptop-default benchmarks stay fast while ``--full``-style invocations
approach the paper's sizes; the *shape* claims hold at either scale (the
paper's numbers are quoted in the docstrings of ``benchmarks/test_*.py``).
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..control.plants import paper_controller, plant_database
from ..core.encoding import Encoder
from ..core.problem import SynthesisProblem
from ..core.seeding import MODE_DEADLINE, MODE_STABILITY
from ..core.solution import Solution
from ..core.synthesizer import (
    SynthesisOptions,
    SynthesisResult,
    open_session,
    refine,
    solve,
)
from ..core.validator import collect_violations
from ..portfolio import PortfolioResult, Strategy, default_portfolio, synthesize_portfolio
from ..smt import Bool
from ..stability.curve import StabilityCurve, compute_stability_curve
from ..stability.piecewise import StabilitySpec, fit_lower_bound
from . import workloads
from .reporting import format_scatter, format_series, format_table


# ---------------------------------------------------------------------------
# Process-pool fan-out for the sweep experiments
# ---------------------------------------------------------------------------


def _map_tasks(fn: Callable, tasks: Sequence, jobs: Optional[int]) -> List:
    """Map ``fn`` over ``tasks``, fanning out to ``jobs`` worker processes.

    The figure sweeps are embarrassingly parallel across (seed, config)
    pairs: every task rebuilds its problem from the seed, so workers share
    nothing and the result list is identical to the serial run (same tasks,
    same order; only wall times differ).  ``jobs=None``/``1`` runs serially
    in-process; a pool that cannot be launched (restricted sandbox)
    degrades to serial automatically.
    """
    if jobs is not None and jobs > 1:
        try:
            ctx = multiprocessing.get_context()
            with ctx.Pool(processes=jobs) as pool:
                return pool.map(fn, tasks)
        except OSError:
            pass
    return [fn(t) for t in tasks]


def _sweep_task(args: Tuple) -> Tuple:
    """One (seed, stages, routes) synthesis cell of a fig4/5/6 sweep."""
    seed, n_apps, stages, routes = args
    problem = workloads.random_problem(seed, n_apps=n_apps)
    res = solve(problem, SynthesisOptions(routes=routes, stages=stages))
    return (seed, stages, routes, problem.num_messages,
            res.synthesis_time, res.status)


# ---------------------------------------------------------------------------
# Fig. 3 — stability curve + piecewise linear lower bound
# ---------------------------------------------------------------------------


@dataclass
class Fig3Result:
    curve: StabilityCurve
    bound: StabilitySpec

    def render(self) -> str:
        rows = []
        for lat, margin in self.curve.as_table():
            bound_val = None
            flat = Fraction(lat).limit_denominator(10**12)
            for seg in self.bound.segments:
                if seg.l_lo <= flat <= seg.l_hi:
                    bound_val = float(seg.jitter_bound(flat))
            rows.append(
                (
                    lat * 1000,
                    margin * 1000,
                    bound_val * 1000 if bound_val is not None else float("nan"),
                )
            )
        return format_table(
            ["L (ms)", "Jmax curve (ms)", "piecewise bound (ms)"], rows
        )


def run_fig3(n_points: int = 13, n_segments: int = 3) -> Fig3Result:
    """The paper's Fig. 3: DC servo 1000/(s^2+s), LQG, h = 6 ms."""
    spec = [p for p in plant_database() if p.name == "dc_servo"][0]
    ctrl = paper_controller(spec)
    curve = compute_stability_curve(
        spec.system, spec.nominal_period, ctrl, n_points=n_points
    )
    bound = fit_lower_bound(curve, n_segments)
    return Fig3Result(curve, bound)


# ---------------------------------------------------------------------------
# Fig. 4 — incremental-synthesis scalability (time vs #messages x stages)
# ---------------------------------------------------------------------------


@dataclass
class ScalingPoint:
    seed: int
    n_messages: int
    time_s: float
    status: str


@dataclass
class Fig4Result:
    points: Dict[int, List[ScalingPoint]]  # stages -> points
    routes: int

    def render(self) -> str:
        series = {
            f"stages={s}": [(p.n_messages, p.time_s) for p in pts if p.status == "sat"]
            for s, pts in self.points.items()
        }
        return format_scatter(
            f"Fig. 4 — synthesis time vs messages (routes={self.routes})",
            series, "messages", "time (s)",
        )


def run_fig4(
    n_problems: int = 10,
    stages_list: Sequence[int] = (3, 4, 5, 7, 9, 11),
    routes: int = 4,
    n_apps: int = 10,
    seed0: int = 0,
    jobs: Optional[int] = None,
) -> Fig4Result:
    """Paper setup: 60 random 35-node problems x stages in {3..11}.

    ``jobs`` fans the (problem, stages) grid out over a process pool; the
    resulting points are identical to the serial run.
    """
    tasks = [
        (seed0 + i, n_apps, stages, routes)
        for i in range(n_problems)
        for stages in stages_list
    ]
    points: Dict[int, List[ScalingPoint]] = {s: [] for s in stages_list}
    for seed, stages, _routes, n_msgs, time_s, status in _map_tasks(
        _sweep_task, tasks, jobs
    ):
        points[stages].append(ScalingPoint(seed, n_msgs, time_s, status))
    return Fig4Result(points, routes)


# ---------------------------------------------------------------------------
# Fig. 5 — % unsolved vs number of stages
# ---------------------------------------------------------------------------


@dataclass
class Fig5Result:
    unsolved_pct: List[Tuple[int, float]]  # (stages, % unsolved)

    def render(self) -> str:
        return format_series(
            "Fig. 5 — unsatisfied problems vs incremental stages",
            {"unsolved %": [(float(s), pct) for s, pct in self.unsolved_pct]},
            "stages", "% unsolved",
        )


def run_fig5(
    n_problems: int = 10,
    stages_list: Sequence[int] = (2, 4, 6, 8, 10, 12, 14),
    routes: int = 4,
    n_apps: int = 10,
    seed0: int = 0,
    jobs: Optional[int] = None,
) -> Fig5Result:
    tasks = [
        (seed0 + i, n_apps, stages, routes)
        for stages in stages_list
        for i in range(n_problems)
    ]
    failures: Dict[int, int] = {s: 0 for s in stages_list}
    for _seed, stages, _routes, _n_msgs, _time_s, status in _map_tasks(
        _sweep_task, tasks, jobs
    ):
        if status != "sat":
            failures[stages] += 1
    out = [
        (stages, 100.0 * failures[stages] / max(1, n_problems))
        for stages in stages_list
    ]
    return Fig5Result(out)


# ---------------------------------------------------------------------------
# Fig. 6 — route-subset scalability (time vs #messages x routes)
# ---------------------------------------------------------------------------


@dataclass
class Fig6Result:
    points: Dict[int, List[ScalingPoint]]  # routes -> points
    stages: int
    unsolved_pct: Dict[int, float]

    def render(self) -> str:
        series = {
            f"routes={r}": [(p.n_messages, p.time_s) for p in pts if p.status == "sat"]
            for r, pts in self.points.items()
        }
        body = format_scatter(
            f"Fig. 6 — synthesis time vs messages (stages={self.stages})",
            series, "messages", "time (s)",
        )
        rows = [(r, pct) for r, pct in sorted(self.unsolved_pct.items())]
        return body + "\n\n" + format_table(["routes", "% unsolved"], rows)


def run_fig6(
    n_problems: int = 10,
    routes_list: Sequence[int] = (1, 3, 5, 7, 20),
    stages: int = 5,
    n_apps: int = 10,
    seed0: int = 0,
    jobs: Optional[int] = None,
) -> Fig6Result:
    tasks = [
        (seed0 + i, n_apps, stages, routes)
        for i in range(n_problems)
        for routes in routes_list
    ]
    points: Dict[int, List[ScalingPoint]] = {r: [] for r in routes_list}
    unsolved: Dict[int, int] = {r: 0 for r in routes_list}
    for _seed, _stages, routes, n_msgs, time_s, status in _map_tasks(
        _sweep_task, tasks, jobs
    ):
        points[routes].append(ScalingPoint(0, n_msgs, time_s, status))
        if status != "sat":
            unsolved[routes] += 1
    pct = {r: 100.0 * n / max(1, n_problems) for r, n in unsolved.items()}
    return Fig6Result(points, stages, pct)


# ---------------------------------------------------------------------------
# Fig. 7 — scalability with network size
# ---------------------------------------------------------------------------


@dataclass
class Fig7Result:
    times: List[Tuple[int, float, str]]  # (n_switches, time, status)

    def render(self) -> str:
        return format_series(
            "Fig. 7 — synthesis time vs Ethernet switches (45 messages)",
            {"time (s)": [(float(n), t) for n, t, s in self.times if s == "sat"]},
            "switches", "time (s)",
        )


def run_fig7(
    switch_counts: Sequence[int] = (10, 15, 20, 25, 30, 35, 40, 45),
    n_messages: int = 45,
    n_apps: int = 10,
    routes: int = 3,
    stages: int = 5,
    seed0: int = 0,
) -> Fig7Result:
    times = []
    for n_switches in switch_counts:
        problem = workloads.problem_with_message_count(
            seed0 + n_switches, n_messages, n_apps=n_apps, n_switches=n_switches
        )
        res = solve(problem, SynthesisOptions(routes=routes, stages=stages))
        times.append((n_switches, res.synthesis_time, res.status))
    return Fig7Result(times)


# ---------------------------------------------------------------------------
# Portfolio — race the heuristics instead of fixing one configuration
# ---------------------------------------------------------------------------


@dataclass
class PortfolioPoint:
    seed: int
    n_messages: int
    winner: Optional[str]
    time_s: float
    statuses: Dict[str, str]           # strategy name -> terminal status
    strategy_times: Dict[str, float]   # strategy name -> wall seconds


@dataclass
class PortfolioExperimentResult:
    """Win/time attribution of the strategy race over random problems."""

    points: List[PortfolioPoint]
    win_counts: Dict[str, int]
    solved: int

    def render(self) -> str:
        rows = [
            (p.seed, p.n_messages, p.winner or "-", p.time_s)
            for p in self.points
        ]
        body = format_table(["seed", "messages", "winner", "time (s)"], rows)
        wins = format_table(
            ["strategy", "wins"],
            sorted(self.win_counts.items(), key=lambda kv: -kv[1]),
        )
        head = (
            f"Portfolio race — {self.solved}/{len(self.points)} solved, "
            "first-sat strategy per problem"
        )
        return "\n".join([head, body, "", wins])


def run_portfolio(
    n_problems: int = 5,
    n_apps: int = 6,
    strategies: Optional[Sequence[Strategy]] = None,
    max_workers: Optional[int] = None,
    timeout: Optional[float] = None,
    backend: str = "process",
    seed0: int = 0,
) -> PortfolioExperimentResult:
    """Race the default (or given) portfolio over the Fig. 4/6 workload."""
    entries = list(strategies) if strategies is not None else default_portfolio()
    points: List[PortfolioPoint] = []
    win_counts: Dict[str, int] = {s.name: 0 for s in entries}
    solved = 0
    for i in range(n_problems):
        problem = workloads.random_problem(seed0 + i, n_apps=n_apps)
        res: PortfolioResult = synthesize_portfolio(
            problem, entries, max_workers=max_workers,
            timeout=timeout, backend=backend,
        )
        if res.ok:
            assert collect_violations(res.solution) == []
            solved += 1
            win_counts[res.winner] += 1
        points.append(
            PortfolioPoint(
                seed=seed0 + i,
                n_messages=problem.num_messages,
                winner=res.winner,
                time_s=res.total_time,
                statuses={sr.name: sr.status for sr in res.strategy_results},
                strategy_times={
                    sr.name: sr.wall_time for sr in res.strategy_results
                },
            )
        )
    return PortfolioExperimentResult(points, win_counts, solved)


# ---------------------------------------------------------------------------
# Table I — the GM automotive case study
# ---------------------------------------------------------------------------


@dataclass
class Table1Row:
    app: str
    period_ms: float
    alpha: float
    beta_ms: float
    max_e2e_ms: float
    latency_ms: float
    jitter_ms: float
    stable: bool


@dataclass
class Table1Result:
    stability_rows: List[Table1Row]
    deadline_rows: List[Table1Row]
    stability_time: float
    deadline_time: float
    stability_stable_count: int
    deadline_stable_count: int
    n_apps: int
    n_messages: int
    stability_status: str
    deadline_status: str
    #: app -> answer to "can this app be unstable while every deadline
    #: holds?" ("sat": yes, with a witness below; "unsat": never).
    unstable_verdicts: Dict[str, str]
    unstable_witnesses: Dict[str, Solution]

    @property
    def can_be_unstable(self) -> List[str]:
        return [app for app, verdict in self.unstable_verdicts.items()
                if verdict == "sat"]

    def render(self) -> str:
        def table(rows: List[Table1Row]) -> str:
            return format_table(
                ["app", "period(ms)", "alpha", "beta(ms)", "max e2e(ms)",
                 "latency(ms)", "jitter(ms)", "stable"],
                [
                    (r.app, r.period_ms, r.alpha, r.beta_ms, r.max_e2e_ms,
                     r.latency_ms, r.jitter_ms, r.stable)
                    for r in rows
                ],
            )

        parts = [
            f"Table I — GM case study ({self.n_apps} apps, "
            f"{self.n_messages} messages)",
            "",
            f"[Stability-Aware]  status={self.stability_status}  "
            f"time={self.stability_time:.1f}s  "
            f"stable: {self.stability_stable_count}/{self.n_apps}",
            table(self.stability_rows),
            "",
            f"[Deadline]  status={self.deadline_status}  "
            f"time={self.deadline_time:.1f}s  "
            f"stable in the sampled schedule: "
            f"{self.deadline_stable_count}/{self.n_apps}",
            table(self.deadline_rows),
            "",
            f"[Deadline, any schedule]  can be unstable: "
            f"{len(self.can_be_unstable)}/{self.n_apps} "
            f"({', '.join(self.can_be_unstable) or '-'})",
        ]
        return "\n".join(parts)


def unstable_verdicts(
    problem: SynthesisProblem, routes: Optional[int],
) -> Tuple[Dict[str, str], Dict[str, Solution]]:
    """Table I's claim 2 as a property of the problem, not of a model:
    per app, can it be unstable in a schedule that meets every deadline?

    One deadline-mode session (``routes`` as given, one stage) holds
    every message and, per app, the exact ``Lmin``/``Lmax`` with Eq. (2)
    negated under one guard literal
    (:meth:`Encoder.add_stability_constraints` with ``unstable``).  App
    i's question is one :func:`refine` assuming its guard: ``sat``
    answers carry the witness schedule, ``unsat`` means every
    deadline-feasible schedule keeps the app stable.  Routes are lazy
    under any limit: the routes the questions need are encoded as the
    cores ask for them (up to ``routes``), and later questions keep
    them.
    """
    session, _ = open_session(SynthesisOptions(mode=MODE_DEADLINE,
                                               routes=routes))
    encoder = Encoder(problem, session, routes)
    for message in problem.messages:
        encoder.encode_message(message)
    guards = {app.name: Bool(f"unstable[{app.name}]") for app in problem.apps}
    for app in problem.apps:
        encoder.add_stability_constraints(app, unstable=guards[app.name])
    verdicts: Dict[str, str] = {}
    witnesses: Dict[str, Solution] = {}
    for app in problem.apps:
        outcome = refine(session, encoder, [guards[app.name]])
        verdicts[app.name] = outcome.status.name
        if outcome == "sat":
            model = outcome.require_model()
            witnesses[app.name] = Solution(problem, {
                uid: encoder.freeze_message(plan, model, pin=False)
                for uid, plan in encoder.plans.items()
            }, mode=MODE_DEADLINE)
    return verdicts, witnesses


def run_table1(
    n_apps: int = 20,
    routes: int = 3,
    stages: int = 5,
    show_rows: int = 5,
) -> Table1Result:
    """Both columns of Table I: stability-aware vs deadline synthesis,
    and per app whether deadlines alone can leave it unstable
    (:func:`unstable_verdicts`; the deadline column's stable count is
    one sampled schedule's)."""
    problem = workloads.gm_case_study(n_apps=n_apps)

    def rows_of(result: SynthesisResult) -> Tuple[List[Table1Row], int]:
        if not result.ok:
            return [], 0
        rows = []
        stable_count = 0
        for app in problem.apps:
            report = result.solution.app_report(app.name)
            seg = app.stability.segments[0]
            if report.stable:
                stable_count += 1
            rows.append(
                Table1Row(
                    app=app.name,
                    period_ms=float(app.period * 1000),
                    alpha=float(seg.alpha),
                    beta_ms=float(seg.beta * 1000),
                    max_e2e_ms=float(report.max_e2e * 1000),
                    latency_ms=float(report.latency * 1000),
                    jitter_ms=float(report.jitter * 1000),
                    stable=bool(report.stable),
                )
            )
        return rows, stable_count

    res_stab = solve(
        problem, SynthesisOptions(mode=MODE_STABILITY, routes=routes, stages=stages)
    )
    if res_stab.ok:
        assert collect_violations(res_stab.solution) == []
    res_dead = solve(
        problem, SynthesisOptions(mode=MODE_DEADLINE, routes=routes, stages=stages)
    )
    if res_dead.ok:
        assert collect_violations(res_dead.solution, check_stability=False) == []

    verdicts, witnesses = unstable_verdicts(problem, routes)
    for name, witness in witnesses.items():
        assert collect_violations(witness, check_stability=False) == []
        assert witness.app_report(name).stable is False

    stab_rows, stab_count = rows_of(res_stab)
    dead_rows, dead_count = rows_of(res_dead)
    return Table1Result(
        stability_rows=stab_rows[:show_rows],
        deadline_rows=dead_rows[:show_rows],
        stability_time=res_stab.synthesis_time,
        deadline_time=res_dead.synthesis_time,
        stability_stable_count=stab_count,
        deadline_stable_count=dead_count,
        n_apps=len(problem.apps),
        n_messages=problem.num_messages,
        stability_status=res_stab.status,
        deadline_status=res_dead.status,
        unstable_verdicts=verdicts,
        unstable_witnesses=witnesses,
    )
