"""The layered performance ledger's harness (see ../README.md).

``inputs`` builds the seeded op lists, ``execute`` runs one workload in
a fresh process (set-up, timed section, verification), ``tracing``
records spans around the layers' public entry points, ``oracle``
checks answers, ``metrics`` turns op results and spans into the named
metrics of ``BENCHMARK.json``, and ``agree`` compares two result files.
Nothing in here is imported by ``src/repro``.
"""
