"""The layered performance ledger: one command, five workloads.

Usage (from the root of a checkout; no PYTHONPATH needed)::

    python3 benchmarks/ledger/run.py                      # all five, untraced
    python3 benchmarks/ledger/run.py --workload synth_staged --seed 3
    python3 benchmarks/ledger/run.py --trace 1            # per-layer pass
    python3 benchmarks/ledger/run.py --smoke              # every path, < 20 s
    python3 benchmarks/ledger/run.py --repeat 3 --out DIR # results.json for agree
    python3 benchmarks/ledger/run.py agree A.json B.json
    python3 benchmarks/ledger/run.py record-expected --seed 0 --seed 1

Each run of a workload happens in a fresh subprocess (see
``harness/execute.py``).  Every metric is printed by name with its
unit; the last line of standard output is the run's JSON object in the
shape ``BENCHMARK.json``'s contract asks for.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORK = HERE / ".work"
DEFAULT_OUT = HERE / "out"

#: Extra set-up-only processes per untraced run; ``setup_s`` is the
#: median over them and the measuring process's own set-up.
SETUP_PROBES = 2


def _import_harness():
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"ledger: no program to measure: {ROOT / 'src' / 'repro'} "
                 "is missing")
    for path in (str(ROOT / "src"), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import harness.agree
    import harness.execute
    import harness.inputs
    import harness.metrics
    import harness.oracle
    import harness.tracing
    return harness


# ---------------------------------------------------------------------------
# The child process (internal)
# ---------------------------------------------------------------------------


def child_main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(prog="run.py child")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)
    harness = _import_harness()
    record = harness.execute.run_child(
        args.workload, args.seed, args.seconds, bool(args.trace),
        args.spawned_at, args.setup_only, Path(args.workdir))
    Path(args.result).write_text(json.dumps(record))
    return 0


def _spawn(workload: str, seed: int, seconds: float, trace: bool,
           setup_only: bool, tag: str) -> Dict[str, Any]:
    """Run one child to completion and return what it recorded."""
    scratch = WORK / str(os.getpid())
    scratch.mkdir(parents=True, exist_ok=True)
    result = scratch / f"{tag}.json"
    command = [
        sys.executable, str(HERE / "run.py"), "child",
        "--workload", workload, "--seed", str(seed),
        "--seconds", repr(seconds), "--trace", str(int(trace)),
        "--workdir", str(scratch / tag), "--result", str(result),
    ]
    if setup_only:
        command.append("--setup-only")
    # perf_counter is CLOCK_MONOTONIC: one clock for parent and child.
    command += ["--spawned-at", repr(time.perf_counter())]
    # The child's own chatter must not end up after our JSON line.
    subprocess.run(command, check=True, stdout=sys.stderr, timeout=170)
    return json.loads(result.read_text())


# ---------------------------------------------------------------------------
# One run of one workload
# ---------------------------------------------------------------------------


def run_workload(harness, benchmark: Dict[str, Any], workload: str, seed: int,
                 seconds: float, trace: bool, probes: int,
                 out_dir: Optional[Path]) -> Dict[str, Any]:
    metrics = harness.metrics
    if trace:
        reference = _spawn(workload, seed, seconds, False, False, "reference")
        record = _spawn(workload, seed, seconds, True, False, "traced")
        record["per_layer"]["trace.overhead_ratio"] = (
            record["timed_s"] / reference["timed_s"])
        spans = record.pop("spans")
        target = out_dir or DEFAULT_OUT
        target.mkdir(parents=True, exist_ok=True)
        (target / f"trace.{workload}.json").write_text(json.dumps(
            {"workload": workload, "seed": seed, "seconds": seconds,
             "spans": spans}))
        _print_self_times(harness, workload, spans)
        reported = metrics.fill(benchmark["per_layer"], record["per_layer"])
    else:
        setups = [_spawn(workload, seed, seconds, False, True,
                         f"setup{i}")["setup_s"] for i in range(probes)]
        record = _spawn(workload, seed, seconds, False, False, "main")
        setups.append(record["setup_s"])
        record["end_to_end"]["setup_s"] = statistics.median(setups)
        record["setup_samples"] = setups
        reported = metrics.fill(benchmark["end_to_end"], record["end_to_end"])

    enforced = [c for c in record["sanity"] if c["enforced"]]
    broken = [c for c in enforced if not c["holds"]]
    failed = min(record["attempted"],
                 record["failed"] + record["leaked_children"])
    _print_run(workload, record, reported, broken)
    record["summary"] = {
        "correct": failed == 0 and not broken,
        "attempted": record["attempted"],
        "failed": failed,
        "metrics": reported,
    }
    return record


def _print_run(workload: str, record: Dict[str, Any],
               reported: Dict[str, Dict[str, Any]],
               broken: List[Dict[str, Any]]) -> None:
    print(f"== {workload}  seed={record['seed']}  "
          f"ops={record['attempted']}  failed={record['failed']}  "
          f"timed={record['timed_s']:.2f} s  "
          f"{'traced' if record['traced'] else 'untraced'}")
    for name, entry in reported.items():
        print(f"{workload}.{name:<32} {entry['value']:>14.6g} {entry['unit']}")
    for check in record["sanity"]:
        state = ("ok" if check["holds"] else "BROKEN") if check["enforced"] \
            else ("holds" if check["holds"] else "does not hold") + \
            ", not enforced (advisory, or not measurable in this run)"
        print(f"   sanity  {check['check']:<36} value={check['value']:.6g}"
              f"  {state}")
    for op_id, reason in sorted(record["failures"].items()):
        print(f"   FAILED  {op_id}: {reason}")
    if record["leaked_children"]:
        print(f"   FAILED  {record['leaked_children']} child process(es) "
              "still alive after teardown")
    if broken:
        print(f"   {len(broken)} sanity check(s) broken: the workload does "
              "not stress/bypass the layer it is meant to")


def _print_self_times(harness, workload: str, spans: List[dict]) -> None:
    tracing = harness.tracing
    print(f"-- {workload}: self time by span (busy minus children)")
    print(f"   {'span':<40}{'calls':>10}{'busy s':>10}{'self s':>10}")
    for name, calls, busy, own in tracing.self_time_table(spans):
        print(f"   {name:<40}{calls:>10}{busy:>10.3f}{own:>10.3f}")
    print(f"   op-span closure error: "
          f"{tracing.closure_error(spans):.2e} (self times / op duration - 1)")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _machine() -> Dict[str, Any]:
    return {"python": platform.python_version(),
            "platform": platform.platform(), "cpus": os.cpu_count()}


def run_main(argv: List[str]) -> int:
    harness = _import_harness()
    benchmark = harness.metrics.load_benchmark()
    names = [w["name"] for w in benchmark["workloads"]]
    parser = argparse.ArgumentParser(
        prog="run.py", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append", choices=names,
                        help="repeatable; default: all five")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=float(benchmark["run_seconds"]),
                        help="length of the timed section the op lists "
                             "are sized for")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="1: the traced (per-layer) pass")
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload (fresh processes)")
    parser.add_argument("--out", type=Path,
                        help=f"write results.json (and traces) here; traces "
                             f"default to {DEFAULT_OUT.relative_to(ROOT)}")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny op lists, no set-up probes: every code "
                             "path in under 20 s")
    args = parser.parse_args(argv)
    seconds = 1.0 if args.smoke else args.seconds
    probes = 0 if args.smoke else SETUP_PROBES
    runs = []
    try:
        for workload in args.workload or names:
            for _ in range(args.repeat):
                record = run_workload(harness, benchmark, workload, args.seed,
                                      seconds, bool(args.trace), probes,
                                      args.out)
                runs.append(record)
                print(json.dumps(record["summary"]), flush=True)
    finally:
        shutil.rmtree(WORK / str(os.getpid()), ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        (args.out / "results.json").write_text(json.dumps({
            "meta": dict(_machine(), seed=args.seed, seconds=seconds,
                         traced=bool(args.trace)),
            "runs": [{
                "workload": r["workload"], "seed": r["seed"],
                "attempted": r["summary"]["attempted"],
                "failed": r["summary"]["failed"],
                "correct": r["summary"]["correct"],
                "timed_s": r["timed_s"],
                "end_to_end": r["summary"]["metrics"] if not r["traced"] else {},
                "per_layer": r["summary"]["metrics"] if r["traced"] else {},
            } for r in runs]}, indent=1) + "\n")
    # The JSON lines above already say so; the exit code says it to a
    # shell or a CI step that does not read them.
    return 0 if all(r["summary"]["correct"] for r in runs) else 1


def record_expected_main(argv: List[str]) -> int:
    harness = _import_harness()
    benchmark = harness.metrics.load_benchmark()
    names = [w["name"] for w in benchmark["workloads"]]
    parser = argparse.ArgumentParser(prog="run.py record-expected")
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--seed", type=int, action="append")
    parser.add_argument("--seconds", type=float,
                        default=float(benchmark["run_seconds"]))
    args = parser.parse_args(argv)
    for workload in args.workload or names:
        for seed in args.seed or [0, 1]:
            ops = harness.inputs.build(workload, seed, args.seconds / 10.0)
            path = harness.oracle.record_expected(workload, seed, ops,
                                                  args.seconds)
            print(f"{path.relative_to(ROOT)}: {len(ops)} ops")
    return 0


def agree_main(argv: List[str]) -> int:
    harness = _import_harness()
    parser = argparse.ArgumentParser(prog="run.py agree")
    parser.add_argument("a")
    parser.add_argument("b")
    args = parser.parse_args(argv)
    return harness.agree.main(args.a, args.b,
                              harness.metrics.load_benchmark())


def main(argv: List[str]) -> int:
    commands = {"child": child_main, "agree": agree_main,
                "record-expected": record_expected_main}
    if argv and argv[0] in commands:
        return commands[argv[0]](argv[1:])
    return run_main(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
