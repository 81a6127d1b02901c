import threading

import hypothesis
import pytest

from mfprop import simulator as sim
from mfprop.activations import builtin
from mfprop.meanfield import EnsembleParams

hypothesis.settings.register_profile(
    "numeric",
    deadline=None,
    max_examples=25,
    derandomize=True,
)
hypothesis.settings.load_profile("numeric")


@pytest.fixture
def no_draws(monkeypatch):
    """The list of tasks submitted to the draw pool, which runs none of them:
    a refusal made before the first draw leaves it empty."""
    submitted = []
    monkeypatch.setattr(sim._POOL, "submit", lambda *args: submitted.append(args))
    return submitted


@pytest.fixture
def warm_pool():
    """Start every thread of the draw pool and draw one small network, for a
    test that traces memory: a thread's start and numpy.random's first
    import allocate memory that is no layer's."""
    pool, release = sim._POOL, threading.Event()
    held = []
    # the held tasks keep every started thread busy, so a submit that finds
    # no idle thread starts a new one
    while len(pool._threads) < pool._max_workers:
        held.append(pool.submit(release.wait, 10))
    release.set()
    for future in held:
        future.result()
    sim.sample_network((8, 8, 8), EnsembleParams(1.0, 0.3, builtin("tanh")), 0)
