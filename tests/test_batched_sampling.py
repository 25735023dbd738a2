"""Batched path sampling and the batched Monte Carlo checks, against the
per-path, per-block and per-replicate loops they replaced.

The reference functions below are those loops, kept verbatim in behaviour:
Markov paths, iid paths, decoupled samples, SNM violation counts and tail-check
frequencies must match them exactly; LDS paths differ only by the round-off of
the chunked recursion.
"""
import math

import numpy as np
import pytest

from transferlab import bounds
from transferlab.bounds import BoundConfig, FiniteClass, snm_bound_check
from transferlab.core import Dims, GaussianLaw, LdsLaw, MarkovLaw, logdet_psd, sqrt_psd
from transferlab.errors import NotPSD
from transferlab.mixing import decouple_trajectory, geometric_profile_from_lds, make_blocks
from transferlab.smallball import BlockedMode, lower_isometry_tail_check

# LDS paths may differ from the step-by-step recursion by this much, relative
# to the largest stationary standard deviation.
LDS_TOLERANCE = 1e-12


# ---------------------------------------------------------------------------
# reference loops
# ---------------------------------------------------------------------------

def markov_path_reference(law, n, rng, burn_in=0):
    states = np.empty(burn_in + n, dtype=int)
    cum = np.cumsum(law.transition, axis=1)
    s = int(rng.choice(law.n_states, p=law.stationary))
    u = rng.random(burn_in + n)
    for i in range(burn_in + n):
        s = min(int(np.searchsorted(cum[s], u[i], side="right")), law.n_states - 1)
        states[i] = s
    return law.embedding[states[burn_in:]]


def lds_path_reference(law, n, rng, burn_in=0):
    x = sqrt_psd(law.second_moment()) @ rng.standard_normal(law.d_x)
    noise = rng.standard_normal((burn_in + n, law.d_x))
    out = np.empty((n, law.d_x))
    for i in range(burn_in + n):
        x = law.a @ x + noise[i]
        if i >= burn_in:
            out[i - burn_in] = x
    return out


def path_reference(law, n, rng, burn_in=0):
    if isinstance(law, MarkovLaw):
        return markov_path_reference(law, n, rng, burn_in)
    if isinstance(law, LdsLaw):
        return lds_path_reference(law, n, rng, burn_in)
    return law.sample_marginal(n, rng)


def decouple_reference(law, partition, seed):
    rng = np.random.default_rng(seed)
    out = np.empty((partition.n, law.d_x))
    for start, stop in partition.blocks:
        out[start:stop] = path_reference(law, stop - start, rng)
    return out


def snm_violations_reference(config, replicates, seed, reg):
    d, n, t = config.dims.d_x, config.n, config.t_tasks
    sigma, delta = config.sigma_w, config.delta
    logdet_reg = logdet_psd(reg)
    rng = np.random.default_rng(seed)
    violations = 0
    for _ in range(replicates):
        lhs = 0.0
        rhs = 2.0 * sigma ** 2 * math.log(1.0 / delta)
        for _ in range(t):
            x = rng.standard_normal((n, d))
            w = sigma * rng.standard_normal((n, d))
            gram = reg + x.T @ x
            vals, vecs = np.linalg.eigh(gram)
            s_mat = w.T @ x @ ((vecs / np.sqrt(vals)) @ vecs.T)
            lhs += float(np.sum(s_mat * s_mat))
            rhs += d * sigma ** 2 * (logdet_psd(gram) - logdet_reg)
        violations += lhs > rhs
    return violations


def tail_frequency_reference(source, psi, m, replicates, seed, calibration_samples,
                             blocked):
    """The replicate loop of the tail check, after its calibration draw."""
    rng = np.random.default_rng(seed)

    def draw(n):
        if hasattr(source, "sample_marginal"):
            if blocked:
                return path_reference(source, n, rng)
            return source.sample_marginal(n, rng)
        return source(n, rng)

    mean_psi = float(np.mean(psi(draw(calibration_samples))))
    hits = 0
    for _ in range(replicates):
        if float(np.mean(psi(draw(m)))) <= 0.5 * mean_psi:
            hits += 1
    return hits / replicates


# ---------------------------------------------------------------------------
# sample_paths
# ---------------------------------------------------------------------------

def random_chain(states, seed):
    rng = np.random.default_rng(seed)
    return rng.dirichlet(np.full(states, 0.5), size=states)


@pytest.mark.parametrize("states", [2, 5, 64])
@pytest.mark.parametrize("batch,n,burn_in", [(1, 20_000, 0), (7, 13, 5), (3, 1, 0),
                                             (2, 0, 4)])
def test_markov_sample_paths_equal_sequential_reference(states, batch, n, burn_in):
    law = MarkovLaw(transition=random_chain(states, states), d_x=3)
    rng_ref, rng = np.random.default_rng(batch), np.random.default_rng(batch)
    ref = np.stack([markov_path_reference(law, n, rng_ref, burn_in)
                    for _ in range(batch)])
    got = law.sample_paths(batch, n, rng, burn_in)
    assert got.shape == (batch, n, 3)
    assert np.array_equal(got, ref)
    assert rng.random() == rng_ref.random()  # same draws consumed
    single_ref = markov_path_reference(law, n, rng_ref, burn_in)
    assert np.array_equal(law.sample_path(n, rng, burn_in), single_ref)


LDS_MATRICES = [
    np.array([[0.9]]),
    np.array([[0.6, 0.2], [0.0, 0.5]]),  # non-normal
    0.95 * np.linalg.qr(np.random.default_rng(8).standard_normal((8, 8)))[0],
    0.9 * np.linalg.qr(np.random.default_rng(20).standard_normal((20, 20)))[0],  # L = 1
]


@pytest.mark.parametrize("a", LDS_MATRICES, ids=lambda a: f"d{a.shape[0]}")
@pytest.mark.parametrize("batch,n,burn_in", [(1, 20_000, 0), (5, 133, 7), (3, 1, 0),
                                             (2, 0, 3)])
def test_lds_sample_paths_match_recursion_to_round_off(a, batch, n, burn_in):
    law = LdsLaw(a=a)
    scale = math.sqrt(float(np.diag(law.second_moment()).max()))
    rng_ref, rng = np.random.default_rng(batch), np.random.default_rng(batch)
    ref = np.stack([lds_path_reference(law, n, rng_ref, burn_in) for _ in range(batch)])
    got = law.sample_paths(batch, n, rng, burn_in)
    assert got.shape == ref.shape
    assert np.abs(got - ref).max(initial=0.0) <= LDS_TOLERANCE * scale
    assert rng.random() == rng_ref.random()


def test_iid_sample_paths_are_the_reshaped_marginal():
    law = GaussianLaw(sigma_x=np.array([[2.0, 0.3], [0.3, 1.0]]))
    got = law.sample_paths(6, 11, np.random.default_rng(3), burn_in=5)
    ref = law.sample_marginal(66, np.random.default_rng(3)).reshape(6, 11, 2)
    assert np.array_equal(got, ref)
    assert np.array_equal(law.sample_path(11, np.random.default_rng(3)), ref[0])


# ---------------------------------------------------------------------------
# decoupling
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("law", [
    MarkovLaw(transition=np.array([[0.9, 0.1], [0.1, 0.9]]), d_x=1),
    MarkovLaw(transition=random_chain(5, 1), d_x=3),
    GaussianLaw(sigma_x=np.array([[1.0, 0.5], [0.5, 2.0]])),
], ids=["markov2", "markov5", "gaussian"])
def test_decouple_trajectory_equals_per_block_reference(law):
    part = make_blocks(24, 6)
    for seed in range(10):
        assert np.array_equal(decouple_trajectory(law, part, seed=seed),
                              decouple_reference(law, part, seed))


def test_decouple_trajectory_lds_within_round_off():
    law = LdsLaw(a=np.array([[0.6, 0.2], [0.0, 0.5]]))
    part = make_blocks(120, 30)
    scale = math.sqrt(float(np.diag(law.second_moment()).max()))
    for seed in range(5):
        gap = np.abs(decouple_trajectory(law, part, seed=seed)
                     - decouple_reference(law, part, seed)).max()
        assert gap <= LDS_TOLERANCE * scale


# ---------------------------------------------------------------------------
# SNM coverage check
# ---------------------------------------------------------------------------

def snm_config(delta):
    return BoundConfig(dims=Dims(d_x=3, d_y=1, r=1), t_tasks=5, n=5, n_prime=1,
                       sigma_w=1.0, b_f=1.0, b_g=1.0,
                       class_complexity=FiniteClass(log_card=1.0), delta=delta)


@pytest.mark.parametrize("delta", [0.6, 0.8, 1.0])
def test_snm_violations_equal_per_replicate_reference(delta):
    # a large regularizer and delta near 1 make violations common, so the
    # counts compared are not all zero
    reg = 100.0 * np.eye(3)
    counts = []
    for seed in range(20):
        res = snm_bound_check(snm_config(delta), replicates=60, seed=seed, reg=reg)
        ref = snm_violations_reference(snm_config(delta), 60, seed, reg)
        assert round(res.violation_rate * 60) == ref
        counts.append(ref)
    assert sum(counts) > 0


def test_snm_chunks_keep_the_replicate_stream(monkeypatch):
    reg = 100.0 * np.eye(3)
    whole = snm_bound_check(snm_config(1.0), replicates=50, seed=4, reg=reg)
    # 150 normals per replicate: chunks of 7 replicates, the last one short
    monkeypatch.setattr(bounds, "_SNM_DRAW_BUDGET", 7 * 150)
    chunked = snm_bound_check(snm_config(1.0), replicates=50, seed=4, reg=reg)
    assert chunked.violation_rate == whole.violation_rate
    assert round(whole.violation_rate * 50) == snm_violations_reference(
        snm_config(1.0), 50, 4, reg)


# ---------------------------------------------------------------------------
# lower-isometry tail check
# ---------------------------------------------------------------------------

def square(x):
    return x[:, 0] ** 2


TAIL_SOURCES = {
    "callable": (lambda n, rng: rng.standard_normal((n, 1)), False),
    "gaussian_iid": (GaussianLaw(sigma_x=np.eye(1)), False),
    "lds_blocked": (LdsLaw(a=0.5 * np.eye(1)), True),
}


@pytest.mark.parametrize("name", sorted(TAIL_SOURCES))
def test_tail_frequency_equals_per_replicate_reference(name):
    # at m = 8 the bad event is common, so the frequencies compared are not 0
    source, blocked = TAIL_SOURCES[name]
    mode = None
    if blocked:
        profile = geometric_profile_from_lds(source.a, mc_samples=5000, seed=0)
        mode = BlockedMode(profile=profile, k=4)
    for seed in range(3):
        res = lower_isometry_tail_check(source, square, c=3.5, m=8, replicates=400,
                                        seed=seed, blocked=mode,
                                        calibration_samples=20_000)
        ref = tail_frequency_reference(source, square, 8, 400, seed, 20_000, blocked)
        assert res.empirical_freq == ref
        assert res.empirical_freq > 0.05


@pytest.mark.parametrize("name", ["callable", "gaussian_iid"])
def test_tail_frequency_equals_per_replicate_reference_at_benchmark_size(name):
    # the benchmark's iid tail check (m = 64, 6000 replicates, C = 3.5): the
    # bad event is rare, but the three seeds hit it, so not every count is 0
    source, _ = TAIL_SOURCES[name]
    freqs = []
    for seed in range(3):
        res = lower_isometry_tail_check(source, square, c=3.5, m=64, replicates=6000,
                                        seed=seed, calibration_samples=20_000)
        ref = tail_frequency_reference(source, square, 64, 6000, seed, 20_000, False)
        assert res.empirical_freq == ref
        freqs.append(ref)
    assert sum(freqs) > 0.0


# ---------------------------------------------------------------------------
# stacked log-determinant
# ---------------------------------------------------------------------------

def test_logdet_psd_stack_matches_per_matrix():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((4, 3, 5, 5))
    stack = a @ np.swapaxes(a, -1, -2) + np.eye(5)
    got = logdet_psd(stack)
    assert got.shape == (4, 3)
    for idx in np.ndindex(4, 3):
        assert got[idx] == pytest.approx(logdet_psd(stack[idx]), rel=1e-13)
    assert isinstance(logdet_psd(stack[0, 0]), float)


def test_logdet_psd_stack_rejects_one_indefinite_member():
    stack = np.stack([np.eye(2), np.diag([1.0, -1.0]), 2.0 * np.eye(2)])
    with pytest.raises(NotPSD):
        logdet_psd(stack)
