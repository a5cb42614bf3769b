import os

import numpy as np
import pytest

from fvl.dataio import SCENARIO_FILE, write_video_dir
from fvl.flowfeat import write_flow_grid


def fd_gradient(f, arr: np.ndarray, step: float = 1e-6) -> np.ndarray:
    """Independent central-finite-difference oracle.

    Perturbs ``arr`` in place (restoring it) and re-evaluates the scalar
    ``f()`` for every element.  Deliberately knows nothing about the tape.
    """
    grad = np.zeros_like(arr, dtype=np.float64)
    flat = arr.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + step
        f_plus = float(f())
        flat[i] = original - step
        f_minus = float(f())
        flat[i] = original
        grad_flat[i] = (f_plus - f_minus) / (2.0 * step)
    return grad


@pytest.fixture
def fd():
    return fd_gradient


@pytest.fixture
def child_env():
    """The environment of a child interpreter that imports from `paths`.
    It turns the warnings that pyproject.toml's filterwarnings makes
    errors here into errors there too, but for pytest's own category,
    which a plain interpreter cannot name."""
    def env(*paths):
        return dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, paths)),
                    PYTHONWARNINGS="error::RuntimeWarning,error::ResourceWarning")
    return env


@pytest.fixture
def external_flow_dir():
    """A writer of video directories whose flow comes from outside the
    generator: `write_video_dir`'s files without the scenario, plus one
    `.ffgr` grid per frame of the video's rendered flow."""
    def write(video, root, **window):
        write_video_dir(video, root, **window)
        (root / SCENARIO_FILE).unlink()
        (root / "flow").mkdir()
        for t in range(video.frames):
            write_flow_grid(root / "flow" / f"{t:06d}.ffgr", video.flow_grid(t))
        return root
    return write
