import numpy as np
import pytest


def _top_bump(mesh, center):
    """A cos^2 bump of half-width 0.5 at x = center pushing the top side
    up, zero elsewhere: the velocity field of the shape-fd benchmark."""
    x, y = mesh.vertices[:, 0], mesh.vertices[:, 1]
    V = np.zeros_like(mesh.vertices)
    on_top = np.abs(y - y.max()) < 1e-12
    prof = np.cos(np.pi * (x - center)) ** 2 * (np.abs(x - center) < 0.5)
    V[on_top, 1] = prof[on_top]
    return V


@pytest.fixture(scope="session")
def top_bump():
    """_top_bump(mesh, center), the velocity field shared by the fem and
    shape-derivative tests."""
    return _top_bump
