"""The engines' assert calls, for tests that hold ``DeltaRational`` bounds.

``Simplex.assert_lower`` / ``assert_upper`` and
``DifferenceLogic.assert_constraint`` / ``watch_pair`` take bounds as
integer pairs in the engine's scale.  The theory converts each bound
once at registration; a test that asserts a fresh ``DeltaRational``
converts it on the spot — which is also where the engine rescales when
the bound's denominator is new.
"""


def scaled(engine, bound):
    return engine.scaled_bound(bound.real, bound.delta)


def assert_lower(sx, var, bound, lit):
    return sx.assert_lower(var, scaled(sx, bound), lit)


def assert_upper(sx, var, bound, lit):
    return sx.assert_upper(var, scaled(sx, bound), lit)


def assert_constraint(dl, x, y, bound, lit):
    return dl.assert_constraint(x, y, scaled(dl, bound), lit)


def watch_pair(dl, src, dst, bound):
    dl.watch_pair(src, dst, scaled(dl, bound))
