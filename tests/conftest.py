"""Shared test oracles."""

import numpy as np
import pytest


@pytest.fixture
def coords_from_codes():
    """The oracle of the packed vertex keys, apart from the sampler's
    code: ``coords(d, codes)`` gives the vertex coordinates (rows, n+1, d)
    as int64 of walks from the origin with step codes (rows, n), where
    step code 2a is +e_a and 2a+1 is -e_a."""
    def coords(d, codes):
        units = np.zeros((2 * d, d), dtype=np.int64)
        units[::2], units[1::2] = np.eye(d), -np.eye(d)
        out = np.zeros((len(codes), codes.shape[1] + 1, d), dtype=np.int64)
        np.cumsum(units[codes], axis=1, out=out[:, 1:])
        return out
    return coords
