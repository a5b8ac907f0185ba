"""Independent exact validator for synthesized solutions.

Re-checks every constraint of paper Sec. V against a :class:`Solution`
using exact ``Fraction`` arithmetic, *without* going through the SMT
machinery — the classic "certify, don't trust" pattern: a bug anywhere in
the solver stack (SAT core, theory engines, encoding) surfaces here as a
:class:`ValidationError` instead of silently producing an invalid
schedule.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Sequence, Tuple

from ..errors import ValidationError
from ..network.graph import NodeKind
from .solution import Solution


def overlapping_pairs(windows: Sequence[Tuple], ld: Fraction
                      ) -> List[Tuple[Tuple, Tuple]]:
    """Every pair of one link's transmission windows that violates Eq. 5.

    ``windows`` holds ``(start, key)`` entries of one directed link; a
    pair whose starts are less than ``ld`` apart comes back as its two
    entries in start order.  The one Eq. 5 detector: the validator
    reports these pairs, and :meth:`Encoder.add_contention_constraints`
    asserts a clause for each of them.
    """
    entries = sorted(windows)
    pairs = []
    for i, first in enumerate(entries):
        for j in range(i + 1, len(entries)):
            if entries[j][0] - first[0] >= ld:
                break
            pairs.append((first, entries[j]))
    return pairs


def validate_solution(solution: Solution, check_stability: bool = True) -> None:
    """Raise :class:`ValidationError` listing every violated constraint."""
    violations = collect_violations(solution, check_stability)
    if violations:
        raise ValidationError(
            f"{len(violations)} constraint violation(s):\n  " + "\n  ".join(violations)
        )


def collect_violations(solution: Solution, check_stability: bool = True) -> List[str]:
    """All constraint violations (empty list == valid)."""
    problem = solution.problem
    net = problem.network
    sd, ld = problem.delays.sd, problem.delays.ld
    out: List[str] = []

    # Every message of the hyper-period must be scheduled exactly once,
    # released at its sampling instant.
    messages = {m.uid: m for m in problem.messages}
    got = set(solution.schedules)
    for uid in sorted(messages.keys() - got):
        out.append(f"{uid}: message not scheduled")
    for uid in sorted(got - messages.keys()):
        out.append(f"{uid}: schedule for unknown message")

    link_windows = []  # (u, v, start, uid)
    for uid in sorted(got & messages.keys()):
        sched = solution.schedules[uid]
        message = messages[uid]
        if sched.uid != uid or sched.app != message.flow.name:
            out.append(f"{uid}: schedule names {sched.uid!r} of app "
                       f"{sched.app!r}")
            continue
        if sched.release != message.release:
            out.append(f"{uid}: release {sched.release} is not the "
                       f"sampling instant {message.release}")
        app = problem.app_of(message)
        route = sched.route
        if len(route) < 3:
            out.append(f"{uid}: route {route} passes no switch")
            continue

        # Route constraint (Eq. 8) + topology (Eq. 4) + no-loop (Eq. 7).
        if route[0] != app.sensor:
            out.append(f"{uid}: route does not start at sensor {app.sensor!r}")
        if route[-1] != app.controller:
            out.append(f"{uid}: route does not end at controller {app.controller!r}")
        if len(set(route)) != len(route):
            out.append(f"{uid}: route visits a node twice (Eq. 7)")
        for u, v in zip(route, route[1:]):
            if not net.has_link(u, v):
                out.append(f"{uid}: route uses missing link {u!r}-{v!r} (Eq. 4)")
        for node in route[1:-1]:
            if node not in net or net.kind(node) != NodeKind.SWITCH:
                out.append(f"{uid}: intermediate node {node!r} is not a switch")

        # Transposition (Eq. 6).
        prev = sched.release
        for node in route[1:-1]:
            g = sched.gammas.get(node)
            if g is None:
                out.append(f"{uid}: missing release time at {node!r}")
                break
            if g < prev + sd + ld:
                out.append(
                    f"{uid}: transposition violated at {node!r} "
                    f"({g} < {prev} + sd + ld) (Eq. 6)"
                )
            prev = g
        else:
            # e2e consistency and the implicit deadline.
            last_sw = route[-2]
            e2e = sched.gammas[last_sw] + ld - sched.release
            if e2e != sched.e2e:
                out.append(f"{uid}: recorded e2e {sched.e2e} != derived {e2e}")
            if e2e > app.period:
                out.append(f"{uid}: e2e {e2e} exceeds period {app.period}")

        # Collect directed-link transmission windows for Eq. 5.
        for u, v in zip(route, route[1:]):
            start = sched.release if u == app.sensor else sched.gammas.get(u)
            if start is not None:
                link_windows.append((u, v, start, uid))

    # Contention-free (Eq. 5): per directed link, starts >= ld apart.
    by_link = {}
    for u, v, start, uid in link_windows:
        by_link.setdefault((u, v), []).append((start, uid))
    for (u, v), windows in sorted(by_link.items()):
        for (t1, u1), (t2, u2) in overlapping_pairs(windows, ld):
            out.append(
                f"link {u}->{v}: {u1} and {u2} overlap "
                f"({t1} vs {t2}, ld={ld}) (Eq. 5)"
            )

    # Stability (Eqs. 3 + 10).
    if check_stability:
        for app in problem.apps:
            if app.stability is None:
                continue
            try:
                report = solution.app_report(app.name)
            except ValidationError:
                continue  # unscheduled messages already reported
            if report.margin < 0:
                out.append(
                    f"app {app.name}: stability margin {report.margin:.6g} < 0 "
                    f"(L={float(report.latency):.6g}, J={float(report.jitter):.6g}) "
                    "(Eq. 10)"
                )
    return out
