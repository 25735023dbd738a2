"""Property tests (hypothesis): Penrose identities of the stacked pseudo-inverse,
the PSD square-root round trip, the ALS normal-equation solve against the SVD
solver, the orthonormal, seed-determined ALS output, and sweep rows that do not
depend on the thread count for any law kind."""
import dataclasses

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import make_gaussian_population, random_normal_matrix
from transferlab.cli import ExperimentConfig, example_config, run_sweep
from transferlab.core import pinv, sqrt_psd
from transferlab.datagen import SampleRequest, sample_tasks
from transferlab.erm import FitOptions, _min_norm_lstsq, fit_first_stage_linear

# Few examples and no deadline keep the module to about a second of tier-1 time;
# derandomized, every run checks the same examples.
FAST = settings(deadline=None, max_examples=25, derandomize=True, database=None)

SEEDS = st.integers(0, 2 ** 32 - 1)
# A singular value of 0 makes the matrix rank deficient; the others keep the
# condition number at most 1e6, far inside the pinv cutoff of 1e-10.
SINGULAR_VALUES = st.one_of(st.just(0.0), st.floats(1e-3, 1e3))


@st.composite
def stacks(draw):
    """A (batch, m, n) stack with a prescribed spectrum per matrix."""
    batch, m, n = draw(st.integers(1, 4)), draw(st.integers(1, 5)), draw(st.integers(1, 5))
    k = min(m, n)
    s = np.array(draw(st.lists(st.lists(SINGULAR_VALUES, min_size=k, max_size=k),
                               min_size=batch, max_size=batch)))
    rng = np.random.default_rng(draw(SEEDS))
    u, _ = np.linalg.qr(rng.standard_normal((batch, m, m)))
    v, _ = np.linalg.qr(rng.standard_normal((batch, n, n)))
    return (u[..., :k] * s[:, None, :]) @ np.swapaxes(v[..., :k], -1, -2)


def _norms(a):
    return np.linalg.norm(a, axis=(-2, -1))


@FAST
@given(stacks())
def test_stacked_pinv_penrose_identities(a):
    x = pinv(a)
    assert x.shape == a.shape[:-2] + (a.shape[-1], a.shape[-2])
    ax, xa = a @ x, x @ a
    tol = 1e-8
    assert np.all(_norms(ax @ a - a) <= tol * np.maximum(_norms(a), 1e-300))
    assert np.all(_norms(xa @ x - x) <= tol * np.maximum(_norms(x), 1e-300))
    assert np.all(_norms(np.swapaxes(ax, -1, -2) - ax) <= tol)
    assert np.all(_norms(np.swapaxes(xa, -1, -2) - xa) <= tol)


@FAST
@given(SEEDS, st.integers(1, 6), st.integers(0, 6))
def test_sqrt_psd_round_trip(seed, d, rank):
    rng = np.random.default_rng(seed)
    b = rng.standard_normal((d, min(rank, d)))
    m = b @ b.T
    s = sqrt_psd(m)
    scale = max(1.0, np.linalg.norm(m))
    assert np.linalg.norm(s - s.T) <= 1e-12 * scale
    assert np.linalg.eigvalsh(0.5 * (s + s.T)).min(initial=0.0) >= -1e-10 * scale
    assert np.linalg.norm(s @ s - m) <= 1e-10 * scale


@st.composite
def als_sizes(draw):
    """(T, d_x, r, d_y, N) of an ALS normal matrix; a third of the draws have
    T N < d_x and a third T d_y < r, so the matrix is singular."""
    kind = draw(st.sampled_from(["any", "few_rows", "few_heads"]))
    t, d_y = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    d_x, r, n = draw(st.integers(1, 8)), draw(st.integers(1, 3)), draw(st.integers(1, 12))
    if kind == "few_rows":
        d_x = draw(st.integers(t + 1, 8 + t))
        n = draw(st.integers(1, (d_x - 1) // t))
    elif kind == "few_heads":
        r = draw(st.integers(t * d_y + 1, t * d_y + 2))
    return t, d_x, r, d_y, n


@FAST
@given(SEEDS, als_sizes())
def test_min_norm_lstsq_matches_svd_solver(seed, sizes):
    # A least-squares right-hand side also tests the minimum-norm choice on
    # the null space of a singular matrix.
    rng = np.random.default_rng(seed)
    t, d_x, r, d_y, n = sizes
    a = random_normal_matrix(t, d_x, r, d_y, n, rng)
    s = np.linalg.svd(a, compute_uv=False)
    cutoff = a.shape[0] * np.finfo(float).eps * s[0]
    # Within two decades of the shared n eps cutoff, pivoted QR and the SVD may
    # decide the rank differently, and then both answers are defensible.
    assume(not np.any((s > cutoff / 100) & (s < cutoff * 100)))
    kept = s[s > cutoff]
    b = rng.standard_normal(a.shape[0])
    expected = np.linalg.lstsq(a, b, rcond=None)[0]
    # forward error of two backward-stable solves on the kept spectrum
    tol = 10 * cutoff / kept[-1]
    assert np.linalg.norm(_min_norm_lstsq(a, b) - expected) <= tol * np.linalg.norm(expected)


@settings(FAST, max_examples=10)
@given(SEEDS, st.integers(2, 4), st.integers(1, 2), st.integers(3, 6))
def test_linear_fit_orthonormal_and_seed_determined(seed, t, r, d_x):
    spec = make_gaussian_population(d_x=d_x, d_y=1, r=r, t=t, noise_sigma=0.3,
                                    seed=seed % 1000)
    data = sample_tasks(SampleRequest(spec=spec, per_task_n=(12,) * (t + 1), seed=seed))
    opts = FitOptions(max_iters=30, restarts=2, seed=seed)
    first = fit_first_stage_linear(data[1:], r=r, opts=opts)
    again = fit_first_stage_linear(data[1:], r=r, opts=opts)
    g = first.rep.g
    assert np.allclose(g @ g.T, np.eye(r), atol=1e-10)
    assert np.array_equal(g, again.rep.g)
    assert first.objective == again.objective


@settings(deadline=None, max_examples=8, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 31 - 1))
def test_sweep_rows_are_reproducible(seed):
    # One sweep per law kind: iid Gaussian, LDS and Markov covariates.
    for law in ({"kind": "gaussian", "scale_spread": 1.0},
                {"kind": "lds", "spectral_radius": 0.9},
                {"kind": "markov", "states": 6, "stay_prob": 0.8}):
        cfg = example_config()
        cfg["seed"] = seed
        cfg["population"].update({"d_x": 5, "num_sources": 2, "noise_sigma": 0.3,
                                  "law": law})
        cfg["fit"].update({"restarts": 1, "max_iters": 40})
        cfg["sweep"] = {"axis": "N", "grid": [8, 16, 32], "replicates": 1, "n": 16,
                        "n_prime": 16}
        cfg["diagnostics"] = {"mc_samples": 500}
        config = ExperimentConfig.from_dict(cfg)
        first, second = run_sweep(config), run_sweep(config)
        assert first.slopes == second.slopes, law["kind"]
        assert len(first.rows) == len(second.rows) == 3
        for a, b in zip(first.rows, second.rows):
            for field in dataclasses.fields(a):
                if field.name != "wall_time_ms":
                    va, vb = getattr(a, field.name), getattr(b, field.name)
                    assert va == vb or (np.isnan(va) and np.isnan(vb)), (law["kind"],
                                                                          field.name)
