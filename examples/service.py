#!/usr/bin/env python3
"""Synthesis-as-a-service: batched requests, deadlines, knowledge cache.

Starts an in-process :class:`repro.service.SynthesisServer` with two
persistent solver workers and a disk-backed knowledge cache, then:

1. submits a batch with mixed per-request deadlines — the generously
   budgeted GM case-study requests complete, while a deliberately
   starved request on a harder instance comes back as a typed
   ``timeout`` (its solve is stopped mid-search, not abandoned);
2. re-submits one of the solved problems byte-identically — the
   fingerprint matches, and the server answers from the stored
   schedule once the validator has certified it for this request: no
   worker, no search (``attempts`` 0), the same schedule as the cold
   solve;
3. prints the server's stats endpoint: request counters, latency
   percentiles, cache hit/miss counters, supervision state.

Run:  python examples/service.py
"""

import asyncio
import tempfile

from repro.core.synthesizer import SynthesisOptions
from repro.eval import gm_case_study
from repro.eval.workloads import slow_funnel_problem
from repro.service import (
    KnowledgeCache,
    ServiceClient,
    ServicePolicy,
    SynthesisRequest,
    SynthesisServer,
)


def work(reply: dict) -> int:
    stats = reply.get("statistics", {})
    return stats.get("conflicts", 0) + stats.get("decisions", 0)


async def main() -> None:
    opts = SynthesisOptions(routes=2)
    with tempfile.TemporaryDirectory() as cache_dir:
        cache = KnowledgeCache(cache_dir)
        policy = ServicePolicy(workers=2, worker_mode="process")
        async with SynthesisServer(policy=policy, cache=cache) as server:
            client = ServiceClient(server)

            print("== batch with mixed deadlines ==")
            replies = await client.solve_batch([
                # Far too little budget for this instance (its unsat
                # proof takes ~10 s): the worker's stop predicate ends
                # the solve mid-flight and the server answers with a
                # typed timeout.
                SynthesisRequest(id="starved", problem=slow_funnel_problem(),
                                 options=opts, deadline=2.5),
                SynthesisRequest(id="gm3", problem=gm_case_study(3),
                                 options=opts, deadline=60.0),
                SynthesisRequest(id="gm4", problem=gm_case_study(4),
                                 options=opts, deadline=60.0),
            ])
            for reply in replies:
                status = reply.get("status", "-")
                print(f"  {reply['id']:<8} type={reply['type']:<8} "
                      f"status={status:<8} wall={reply['solve_wall']:.2f}s "
                      f"work={work(reply)}")
            cold = next(r for r in replies if r["id"] == "gm3")

            print("== exact repeat answered from the cache ==")
            warm = await client.solve(gm_case_study(3), opts,
                                      deadline=60.0, request_id="gm3-again")
            print(f"  hit={warm['cache']['hit']}  "
                  f"attempts={warm['attempts']}  "
                  f"cold work={work(cold)}  warm work={work(warm)}  "
                  f"same schedule: "
                  f"{warm['schedules'] == cold['schedules']}")

            print("== server stats ==")
            stats = server.stats()
            print(f"  requests: {stats['requests']}")
            total = stats["latency"]["total"]
            print(f"  latency: p50={total['p50']:.3f}s "
                  f"p99={total['p99']:.3f}s over {total['count']} requests")
            print(f"  cache: {stats['cache']}")
            print(f"  supervision: {stats['supervision']}")


if __name__ == "__main__":
    asyncio.run(main())
