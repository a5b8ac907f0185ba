"""Synthesis never loads numpy; the stability names still resolve.

Stability analysis (paper Sec. IV) needs numpy, synthesis (Sec. V) does
not, so the packages that re-export curve and jitter-margin names import
them on first access (``repro/_lazy.py``).  Each check runs in a fresh
interpreter: ``sys.modules`` and the package attributes of the test
process have long been touched by other tests.
"""

import json
import os
import subprocess
import sys
import textwrap

import repro

SRC = os.path.dirname(os.path.dirname(repro.__file__))


def run_fresh(code: str):
    """Run ``code`` in a new interpreter; return what it prints as JSON."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_synthesis_imports_and_runs_without_numpy():
    loaded = run_fresh("""
        import json, sys
        import repro, repro.core, repro.api, repro.service, repro.portfolio
        import repro.runtime, repro.eval.workloads
        from repro.core import solve
        from repro.eval.workloads import bottleneck_problem
        from repro.service import problem_fingerprint
        assert solve(bottleneck_problem(3)).status == "sat"
        assert problem_fingerprint(bottleneck_problem(3))
        print(json.dumps(sorted(m for m in sys.modules
                                if m == "numpy" or m.startswith("numpy."))))
    """)
    assert loaded == []


def test_every_public_name_resolves_and_is_listed():
    missing = run_fresh("""
        import json
        import repro, repro.eval, repro.stability
        missing = []
        for module in (repro, repro.stability, repro.eval):
            for name in module.__all__:
                if name not in dir(module):
                    missing.append(f"{module.__name__}: {name} not in dir()")
                getattr(module, name)
        print(json.dumps(missing))
    """)
    assert missing == []


def test_jitter_margin_is_the_function_in_either_import_order():
    kinds = run_fresh("""
        import inspect, json
        from repro.stability import jitter_margin as first
        import repro.stability.curve
        from repro.stability import jitter_margin as after_curve
        import repro
        print(json.dumps([inspect.isfunction(f)
                          for f in (first, after_curve, repro.jitter_margin)]))
    """)
    assert kinds == [True, True, True]
    kinds = run_fresh("""
        import inspect, json
        import repro.stability.curve
        from repro.stability import jitter_margin
        from repro import jitter_margin as top
        print(json.dumps([inspect.isfunction(jitter_margin),
                          inspect.isfunction(top)]))
    """)
    assert kinds == [True, True]
