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
    """The arguments of every call to `simulator._fill`, the one draw of
    every layer, which the fixture makes fill nothing: a refusal made before
    the first draw leaves the list empty."""
    drawn = []
    monkeypatch.setattr(sim, "_fill", lambda *args: drawn.append(args))
    return drawn


@pytest.fixture
def warm_draws():
    """Draw one small layer stream, for a test that traces memory:
    numpy.random's first use allocates memory that is no layer's."""
    list(sim._layers((8, 8, 8), [EnsembleParams(1.0, 0.3, builtin("tanh"))], 0))
