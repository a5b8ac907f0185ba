"""Problem generators draw the same problem in every interpreter.

A ``seed`` names a problem: the benches, the figures and the cache key
all assume that ``random_problem(3)`` today is ``random_problem(3)``
tomorrow.  Set iteration order follows ``PYTHONHASHSEED``, which differs
per interpreter, so one set walk on the way from seed to problem — such
as random topology repair picking which components to link by set
order — makes a seed name several problems.  Each generator runs here in fresh
interpreters under different hash seeds, and their fingerprints must
agree.
"""

import json
import os
import subprocess
import sys
import textwrap

import repro

SRC = os.path.dirname(os.path.dirname(repro.__file__))

FINGERPRINTS = textwrap.dedent("""
    import json
    from repro.eval.workloads import (
        bottleneck_problem, chain_problem, gm_case_study,
        problem_with_message_count, random_problem, sharing_problem)
    from repro.service.fingerprint import problem_fingerprint
    problems = {
        # experiment_network(21) with its default 10 + 10 endpoints.
        "experiment_network(21)": random_problem(21),
        "random_problem(5, n_apps=3)": random_problem(5, n_apps=3),
        "problem_with_message_count(0, 13, n_apps=3, n_switches=6)":
            problem_with_message_count(0, 13, n_apps=3, n_switches=6),
        "gm_case_study(3)": gm_case_study(3),
        "bottleneck_problem(3)": bottleneck_problem(3),
        "sharing_problem()": sharing_problem(),
        "chain_problem()": chain_problem(),
    }
    print(json.dumps({name: problem_fingerprint(problem)
                      for name, problem in problems.items()}))
""")


def test_every_generator_ignores_the_hash_seed():
    children = [
        subprocess.Popen([sys.executable, "-c", FINGERPRINTS],
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                         text=True,
                         env=dict(os.environ, PYTHONPATH=SRC,
                                  PYTHONHASHSEED=str(hash_seed)))
        for hash_seed in (0, 1, 2)]
    drawn = []
    for child in children:
        out, err = child.communicate(timeout=120)
        assert child.returncode == 0, err
        drawn.append(json.loads(out))
    assert drawn[0] == drawn[1] == drawn[2]
