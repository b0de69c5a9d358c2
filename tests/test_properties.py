"""Properties over drawn spectra, laws and snr grids.

Sizes stay small (at most 6 snr points, n <= 64) so the tier1 profile's
fixed examples keep Tier-1 fast.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from prelog_lab.bounds import FadingModel, bound_sweep  # noqa: E402
from prelog_lab.spectra import autocovariance_sequence  # noqa: E402
from prelog_lab.toeplitz import szego_logdet_rate  # noqa: E402

from oracles import random_density, toeplitz_matrix  # noqa: E402

seeds = st.integers(0, 2**32 - 1)
snr_grids = st.lists(st.floats(1e-3, 1e6), min_size=1, max_size=6, unique=True).map(sorted)


@given(seeds, st.sampled_from(["rayleigh", "onoff"]), snr_grids)
def test_lower_bound_never_exceeds_upper(seed, law, snr_grid):
    S = random_density(np.random.default_rng(seed), unit_variance=True)
    low, up = bound_sweep(FadingModel(f"random:{seed}", S, law), snr_grid)
    for lb, ub in zip(low.values, up.values):
        assert lb <= ub


@given(seeds, st.integers(1, 64), st.floats(1.0, 1e6))
def test_levinson_rate_matches_slogdet(seed, n, snr):
    S = random_density(np.random.default_rng(seed))
    row = np.asarray(autocovariance_sequence(S, n - 1).values)
    sign, logdet = np.linalg.slogdet(np.eye(n) + snr * toeplitz_matrix(row))
    assert sign.real > 0
    r0 = row[0].real
    assert abs(szego_logdet_rate(S, snr, n) - logdet / n) <= 1e-13 * snr * max(1.0, r0)
