"""Traced memory of the Monte Carlo loops that hold a sample, and of a population.

numpy reports its data buffers to ``tracemalloc``, so the traced peak of a call
counts the arrays it allocates. Each loop draws in chunks of at most
``core.MC_DRAW_BUDGET`` values (512 KB of doubles), so its peak is what it must
keep plus about one chunk's arrays. A population holds each distinct covariate
law once, so the memory it keeps does not grow with its task count when its
tasks share one law.
"""
import tracemalloc

import numpy as np
import pytest

from transferlab.cli import build_population, example_config
from transferlab.core import GaussianLaw, LinearHead, LinearRep
from transferlab.diagnostics import nrls_quantities
from transferlab.smallball import lower_isometry_tail_check


def traced_peak_mb(call) -> float:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("mc_samples", [200_000, 1_000_000])
def test_nrls_memory_does_not_grow_with_the_sample(mc_samples):
    # d_x = 64, r = 2, d_y = 1: a whole sample of 200 000 holds 102 MB of x
    # alone; the one pass keeps a chunk of 1024 rows (0.5 MB of x)
    rng = np.random.default_rng(0)
    rep = LinearRep(rng.standard_normal((2, 64)))
    head = LinearHead(rng.standard_normal((1, 2)))
    law = GaussianLaw(sigma_x=np.eye(64))
    peak = traced_peak_mb(lambda: nrls_quantities(law, rep, head, rep, 0.5,
                                                  mc_samples=mc_samples, seed=1))
    assert peak < 4.0


def test_iid_tail_check_memory_at_benchmark_size():
    # m = 64, 6000 replicates, 20 000 calibration rows: one 384 000-row draw
    # takes 6.5 MB; chunks of 1024 replicates keep the peak near 1.4 MB
    peak = traced_peak_mb(lambda: lower_isometry_tail_check(
        lambda n, rng: rng.standard_normal((n, 1)), lambda x: x[:, 0] ** 2, c=3.5, m=64,
        replicates=6000, seed=0, calibration_samples=20_000))
    assert peak < 2.0


@pytest.mark.parametrize("calibration_samples", [200_000, 1_000_000])
def test_iid_tail_check_memory_does_not_grow_with_the_calibration(calibration_samples):
    # a 16-d law: a whole calibration draw of 200 000 rows peaked at 52 MB (256 MB
    # at 1 000 000); chunks of 4096 rows keep the peak near 2 MB at both sizes
    law = GaussianLaw(sigma_x=np.eye(16))
    peak = traced_peak_mb(lambda: lower_isometry_tail_check(
        law, lambda x: x[:, 0] ** 2, c=3.5, m=64, replicates=100, seed=0,
        calibration_samples=calibration_samples))
    assert peak < 4.0


def test_population_memory_does_not_grow_with_the_source_count():
    # T = 64 and d_x = 64 with one Gaussian law: 65 separate laws held 4.3 MB
    # (a 32 KB covariance and a 32 KB root each); the one shared law, 0.09 MB
    pop = {**example_config()["population"], "d_x": 64, "num_sources": 64,
           "law": {"kind": "gaussian", "scale_spread": 1.0}}
    tracemalloc.start()
    try:
        spec = build_population(pop, seed=0)
        held = tracemalloc.get_traced_memory()[0] / 1e6
    finally:
        tracemalloc.stop()
    assert spec.num_sources == 64
    assert held < 0.5
