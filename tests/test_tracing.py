"""The benchmark's outside-in tracer (perfbench/tracing.py) against the
library: every name it binds exists, descent through ``Couple`` reaches its
wrapper, and uninstalling restores every binding."""

import os

import numpy as np

from interpk.couples import ORACLE, Couple, WeightedNorm

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")


def _bindings(tracing):
    """Every module and class attribute the tracer may rebind."""
    owners = list(tracing.MODULES) + [owner for entries in
                                      tracing.ENTRY_POINTS.values()
                                      for owner, _ in entries
                                      if isinstance(owner, type)]
    return {(id(owner), key): value for owner in owners
            for key, value in vars(owner).items()}


def test_tracer_counts_descent_and_restores_every_binding(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import tracing

    rng = np.random.default_rng(0)
    # built before the tracer goes in: the descent route looks its engine
    # up when it runs
    c = Couple(WeightedNorm(2.0, 0, 2.0 ** rng.uniform(-1, 1, 3)),
               WeightedNorm(3.0, 0, 2.0 ** rng.uniform(-1, 1, 3)), ORACLE)
    assert c.route.name == "descent"
    before = _bindings(tracing)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert _bindings(tracing) != before
        values = c.profile_batch(rng.standard_normal(3), 2.0 ** np.arange(-2, 3))
    finally:
        tracer.uninstall()
    metrics = tracer.metrics(overhead=0.0)
    assert metrics["descent.calls"] >= 1
    assert metrics["descent.norm_evals"] > 0
    assert np.all(np.isfinite(values))
    after = _bindings(tracing)
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
