"""Command-line experiment runner: ``python -m repro.eval <experiment>``.

Regenerates any of the paper's tables/figures from the terminal::

    python -m repro.eval fig3
    python -m repro.eval fig4 --problems 5 --apps 6 --jobs 4
    python -m repro.eval table1 --apps 20
    python -m repro.eval all

The sweep experiments (fig4/fig5/fig6) accept ``--jobs N`` to fan their
(seed, configuration) grid out over a process pool; results are identical
to the serial run.  ``bench`` runs the regression-tracked benchmark suite
(:mod:`repro.eval.bench`), writing ``BENCH_<name>.json`` files and
optionally failing on regression against a committed baseline::

    python -m repro.eval bench --bench-names table1 fig3 \
        --baseline-dir benchmarks/baselines --fail-threshold 0.25
"""

from __future__ import annotations

import argparse
import sys

from . import experiments


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.eval",
        description="Regenerate the paper's evaluation figures/tables.",
    )
    parser.add_argument(
        "experiment",
        choices=("fig3", "fig4", "fig5", "fig6", "fig7", "table1",
                 "portfolio", "bench", "all"),
        help="which artifact to regenerate (or 'bench' for the "
             "regression-tracked benchmark suite)",
    )
    parser.add_argument("--problems", type=int, default=5,
                        help="number of random problems (figs 4-6)")
    parser.add_argument("--apps", type=int, default=6,
                        help="control applications per problem")
    parser.add_argument("--routes", type=int, default=4,
                        help="candidate routes per application")
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker processes for the fig4-6 sweeps "
                             "(default: serial)")
    parser.add_argument("--bench-names", nargs="+", default=None,
                        metavar="NAME",
                        help="benchmarks to run with 'bench' (default: "
                             "table1 fig3 fig4 backends unsat_core "
                             "portfolio faults service)")
    parser.add_argument("--out", default=".",
                        help="directory for BENCH_<name>.json files")
    parser.add_argument("--baseline-dir", default=None,
                        help="directory with committed BENCH baselines to "
                             "compare against")
    parser.add_argument("--fail-threshold", type=float, default=0.25,
                        help="regression tolerance vs baseline "
                             "(default 0.25 = +25%%)")
    parser.add_argument("--no-wall-gate", action="store_true",
                        help="skip the wall-time gate (statuses and "
                             "deterministic solver-work counters only); "
                             "use when the baseline was recorded on "
                             "different hardware")
    args = parser.parse_args(argv)

    if args.experiment == "bench":
        from .bench import run_suite

        names = args.bench_names or ["table1", "fig3", "fig4",
                                     "backends", "unsat_core", "portfolio",
                                     "faults", "service"]
        regressions = run_suite(
            names,
            out_dir=args.out,
            baseline_dir=args.baseline_dir,
            threshold=args.fail_threshold,
            wall_gate=not args.no_wall_gate,
        )
        return 1 if regressions else 0

    runners = {
        "fig3": lambda: experiments.run_fig3(),
        "fig4": lambda: experiments.run_fig4(
            n_problems=args.problems, n_apps=args.apps, routes=args.routes,
            jobs=args.jobs),
        "fig5": lambda: experiments.run_fig5(
            n_problems=args.problems, n_apps=args.apps, routes=args.routes,
            jobs=args.jobs),
        "fig6": lambda: experiments.run_fig6(
            n_problems=args.problems, n_apps=args.apps, jobs=args.jobs),
        "fig7": lambda: experiments.run_fig7(
            switch_counts=(6, 10, 14, 18), n_messages=24, n_apps=5),
        "table1": lambda: experiments.run_table1(n_apps=args.apps),
        "portfolio": lambda: experiments.run_portfolio(
            n_problems=args.problems, n_apps=args.apps),
    }
    names = list(runners) if args.experiment == "all" else [args.experiment]
    for name in names:
        print(f"\n===== {name} =====")
        result = runners[name]()
        print(result.render())
    return 0


if __name__ == "__main__":
    sys.exit(main())
