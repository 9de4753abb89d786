import inspect

# conewave first: importing it pins BLAS to one thread per process (a value
# already set wins), which only holds if it runs before numpy loads its BLAS
import conewave  # noqa: F401  isort: skip
import numpy as np
import pytest

from conewave import FREQUENCY, GridSpec, SpaceTimeField, SpatialField


@pytest.fixture
def grid8():
    return GridSpec(nx=8, nt=8)


@pytest.fixture
def grid16():
    return GridSpec(nx=16, nt=16)


def random_field(grid, seed, rep=FREQUENCY, spatial=False):
    rng = np.random.default_rng(seed)
    shape = grid.spatial_shape if spatial else grid.shape
    vals = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    cls = SpatialField if spatial else SpaceTimeField
    return cls(grid, vals, rep)


FFT_NAMES = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft", "irfft",
             "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft")


def count_fft_calls(monkeypatch, module):
    """List that collects the name of every np.fft transform called from
    module's own code while the monkeypatch is active."""
    calls = []
    for name in FFT_NAMES:
        original = getattr(np.fft, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            caller = inspect.currentframe().f_back.f_globals.get("__name__")
            if caller == module.__name__:
                calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counting)
    return calls
