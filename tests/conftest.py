import numpy as np
import pytest


def haar_unitaries(rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` Haar-random 2x2 unitaries via one batched QR of Ginibre matrices."""
    g = rng.normal(size=(n, 2, 2)) + 1j * rng.normal(size=(n, 2, 2))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[:, None, :]  # fix the gauge so the draw is Haar


def haar_unitary(rng: np.random.Generator) -> np.ndarray:
    """One Haar-random 2x2 unitary."""
    return haar_unitaries(rng, 1)[0]


class ScriptedRng:
    """Stand-in generator that replays a fixed list of uniform draws."""

    def __init__(self, values):
        self._values = list(values)

    def random(self, size=None):
        if size is None:
            return self._values.pop(0)
        out = np.array([self._values.pop(0) for _ in range(int(size))])
        return out


@pytest.fixture
def rng():
    return np.random.default_rng(20160811)
