"""Batched path sampling and the batched Monte Carlo checks, against the
per-path, per-block and per-replicate loops they replaced.

The reference functions below are those loops, kept verbatim in behaviour:
Markov paths, iid paths, decoupled samples, SNM violation counts and tail-check
frequencies must match them exactly; LDS paths differ only by the round-off of
the chunked recursion. The SNM loop draws each task's Gram factor, as the check
does; a raw-row draw checks that the factor draw keeps the violation law. The
checks draw in chunks of at most ``core.MC_DRAW_BUDGET`` values; shrinking the
budget leaves SNM counts and tail frequencies unchanged, and the tail check's
chunked calibration keeps the whole sample's moments up to round-off.
"""
import math
from bisect import bisect_right

import numpy as np
import pytest

from transferlab import bounds, core
from transferlab.bounds import BoundConfig, FiniteClass, snm_bound_check
from transferlab.core import (Dims, GaussianLaw, LdsLaw, MarkovLaw, bartlett, logdet_psd,
                              sqrt_psd)
from transferlab.errors import NotPSD, PreconditionViolated
from transferlab.mixing import decouple_trajectory, geometric_profile_from_lds, make_blocks
from transferlab.smallball import BlockedMode, lower_isometry_tail_check

# LDS paths may differ from the step-by-step recursion by this much, relative
# to the largest stationary standard deviation.
LDS_TOLERANCE = 1e-12


# ---------------------------------------------------------------------------
# reference loops
# ---------------------------------------------------------------------------

def markov_path_reference(law, n, rng):
    states = np.empty(n, dtype=int)
    cum = np.cumsum(law.transition, axis=1)
    s = int(rng.choice(law.n_states, p=law.stationary))
    u = rng.random(n)
    for i in range(n):
        s = min(int(np.searchsorted(cum[s], u[i], side="right")), law.n_states - 1)
        states[i] = s
    return law.embedding[states]


def lds_path_reference(law, n, rng):
    x = sqrt_psd(law.second_moment()) @ rng.standard_normal(law.d_x)
    noise = rng.standard_normal((n, law.d_x))
    out = np.empty((n, law.d_x))
    for i in range(n):
        x = law.a @ x + noise[i]
        out[i] = x
    return out


def path_reference(law, n, rng):
    if isinstance(law, MarkovLaw):
        return markov_path_reference(law, n, rng)
    if isinstance(law, LdsLaw):
        return lds_path_reference(law, n, rng)
    return law.sample_marginal(n, rng)


def decouple_reference(law, partition, seed):
    rng = np.random.default_rng(seed)
    out = np.empty((partition.n, law.d_x))
    for start, stop in partition.blocks:
        out[start:stop] = path_reference(law, stop - start, rng)
    return out


def snm_violations_reference(config, replicates, seed, reg):
    """One replicate, one task at a time: the Bartlett factor R (chi-squares
    and normals from their own streams) or, for N < d, the raw covariates, and
    the projected noise Xi; the left side by an eigendecomposition."""
    d, n, t = config.dims.d_x, config.n, config.t_tasks
    sigma, delta = config.sigma_w, config.delta
    logdet_reg = logdet_psd(reg)
    chi_rng, cov_rng, noise_rng = (np.random.default_rng(s)
                                   for s in np.random.SeedSequence(seed).spawn(3))
    violations = 0
    for _ in range(replicates):
        lhs = 0.0
        rhs = 2.0 * sigma ** 2 * math.log(1.0 / delta)
        for _ in range(t):
            if n >= d:
                r = bartlett(d, n, chi_rng, normal_rng=cov_rng)
            else:
                r = cov_rng.standard_normal((n, d))
            xi = sigma * noise_rng.standard_normal((min(n, d), d))
            gram = reg + r.T @ r
            vals, vecs = np.linalg.eigh(gram)
            s_mat = xi.T @ r @ ((vecs / np.sqrt(vals)) @ vecs.T)
            lhs += float(np.sum(s_mat * s_mat))
            rhs += d * sigma ** 2 * (logdet_psd(gram) - logdet_reg)
        violations += lhs > rhs
    return violations


def snm_raw_rows_violations(config, replicates, seed, reg):
    """Violation count from N raw rows of X and W per task, the law the
    factor draw must keep."""
    d, n, t = config.dims.d_x, config.n, config.t_tasks
    sigma, delta = config.sigma_w, config.delta
    rng = np.random.default_rng(seed)
    violations = 0
    for start in range(0, replicates, 500):
        z = rng.standard_normal((min(500, replicates - start), t, 2, n, d))
        x, w = z[:, :, 0], sigma * z[:, :, 1]
        gram = reg + np.swapaxes(x, -1, -2) @ x
        vals, vecs = np.linalg.eigh(gram)
        proj = np.swapaxes(w, -1, -2) @ x @ vecs
        lhs = (proj * proj / vals[..., None, :]).sum(axis=(1, 2, 3))
        rhs = (2.0 * sigma ** 2 * math.log(1.0 / delta)
               + (d * sigma ** 2 * (logdet_psd(gram) - logdet_psd(reg))).sum(axis=1))
        violations += int(np.count_nonzero(lhs > rhs))
    return violations


def tail_frequency_reference(source, psi, m, replicates, seed, calibration_samples,
                             blocked):
    """The replicate loop of the tail check, after its calibration draw. The
    calibration rows come from the stationary marginal in both modes; blocked
    replicates are paths."""
    rng = np.random.default_rng(seed)

    def draw(n, path):
        if hasattr(source, "sample_marginal"):
            if path:
                return path_reference(source, n, rng)
            return source.sample_marginal(n, rng)
        return source(n, rng)

    mean_psi = float(np.mean(psi(draw(calibration_samples, False))))
    hits = 0
    for _ in range(replicates):
        if float(np.mean(psi(draw(m, blocked)))) <= 0.5 * mean_psi:
            hits += 1
    return hits / replicates


# ---------------------------------------------------------------------------
# sample_paths
# ---------------------------------------------------------------------------

def random_chain(states, seed):
    rng = np.random.default_rng(seed)
    return rng.dirichlet(np.full(states, 0.5), size=states)


@pytest.mark.parametrize("states", [2, 5, 64])
@pytest.mark.parametrize("batch,n,seed", [(1, 20_000, 0), (7, 13, 5), (3, 1, 0), (2, 0, 4)])
def test_markov_sample_paths_equal_sequential_reference(states, batch, n, seed):
    law = MarkovLaw(transition=random_chain(states, states), d_x=3)
    rng_ref, rng = np.random.default_rng(seed), np.random.default_rng(seed)
    ref = np.stack([markov_path_reference(law, n, rng_ref) for _ in range(batch)])
    got = law.sample_paths(batch, n, rng)
    assert got.shape == (batch, n, 3)
    assert np.array_equal(got, ref)
    assert rng.random() == rng_ref.random()  # same draws consumed
    single_ref = markov_path_reference(law, n, rng_ref)
    assert np.array_equal(law.sample_path(n, rng), single_ref)


def markov_walk_reference(law, batch, n, rng):
    """The walk loop as it was: the start states by one searchsorted over the
    stationary CDF, then one list of states per path."""
    u = rng.random((batch, 1 + n))
    first = np.searchsorted(law._stationary_cdf, u[:, 0], side="right").tolist()
    table = law._walk_table
    states = []
    for s, row in zip(first, u[:, 1:].tolist()):
        walk = []
        for v in row:
            s = bisect_right(table[s], v)
            walk.append(s)
        states.append(walk)
    return np.array(states, dtype=np.intp).reshape(batch, n)


@pytest.mark.parametrize("states", [2, 5, 64])
@pytest.mark.parametrize("batch,n,seed", [(1, 24, 0), (4, 6, 1), (16, 300, 2), (3, 1, 3),
                                          (2, 0, 4)])
def test_markov_walk_equals_the_per_path_list_loop(states, batch, n, seed):
    law = MarkovLaw(transition=random_chain(states, states + 1), d_x=3)
    rng_ref, rng = np.random.default_rng(seed), np.random.default_rng(seed)
    assert np.array_equal(law._walk(batch, n, rng), markov_walk_reference(law, batch, n, rng_ref))
    assert rng.random() == rng_ref.random()  # same draws consumed


LDS_MATRICES = [
    np.array([[0.9]]),
    np.array([[0.6, 0.2], [0.0, 0.5]]),  # non-normal
    0.95 * np.linalg.qr(np.random.default_rng(8).standard_normal((8, 8)))[0],
    0.9 * np.linalg.qr(np.random.default_rng(20).standard_normal((20, 20)))[0],  # L = 1
]


@pytest.mark.parametrize("a", LDS_MATRICES, ids=lambda a: f"d{a.shape[0]}")
@pytest.mark.parametrize("batch,n,seed", [(1, 20_000, 0), (5, 133, 7), (3, 1, 0), (2, 0, 3)])
def test_lds_sample_paths_match_recursion_to_round_off(a, batch, n, seed):
    law = LdsLaw(a=a)
    scale = math.sqrt(float(np.diag(law.second_moment()).max()))
    rng_ref, rng = np.random.default_rng(seed), np.random.default_rng(seed)
    ref = np.stack([lds_path_reference(law, n, rng_ref) for _ in range(batch)])
    got = law.sample_paths(batch, n, rng)
    assert got.shape == ref.shape
    assert np.abs(got - ref).max(initial=0.0) <= LDS_TOLERANCE * scale
    assert rng.random() == rng_ref.random()


def test_iid_sample_paths_are_the_reshaped_marginal():
    law = GaussianLaw(sigma_x=np.array([[2.0, 0.3], [0.3, 1.0]]))
    got = law.sample_paths(6, 11, np.random.default_rng(3))
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

def snm_config(delta, n=5):
    return BoundConfig(dims=Dims(d_x=3, d_y=1, r=1), t_tasks=5, n=n, n_prime=1,
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


def test_snm_raw_rows_below_d_equal_per_replicate_reference():
    # N = 2 < d = 3: the tasks keep their raw rows
    reg = 100.0 * np.eye(3)
    counts = []
    for seed in range(10):
        res = snm_bound_check(snm_config(1.0, n=2), replicates=60, seed=seed, reg=reg)
        counts.append(snm_violations_reference(snm_config(1.0, n=2), 60, seed, reg))
        assert round(res.violation_rate * 60) == counts[-1]
    assert sum(counts) > 0


def test_snm_chunks_keep_the_replicate_stream(monkeypatch):
    reg = 100.0 * np.eye(3)
    whole = snm_bound_check(snm_config(1.0), replicates=50, seed=4, reg=reg)
    # per replicate, 5 tasks of 6 factor values (3 chi-squares, 3 normals)
    # and 9 noise values, 75 in all: chunks of 7 replicates, the last one short
    monkeypatch.setattr(core, "MC_DRAW_BUDGET", 7 * 75)
    chunked = snm_bound_check(snm_config(1.0), replicates=50, seed=4, reg=reg)
    assert chunked.violation_rate == whole.violation_rate
    assert round(whole.violation_rate * 50) == snm_violations_reference(
        snm_config(1.0), 50, 4, reg)


@pytest.mark.parametrize("n", [2, 3, 50])
def test_snm_factor_terms_equal_raw_row_terms(n):
    # R and Xi = Q_1^T W from the reduced QR of raw rows X (k = min(N, d))
    rng = np.random.default_rng(n)
    reg = 100.0 * np.eye(3)
    x, w = rng.standard_normal((2, n, 3))
    q1, r = np.linalg.qr(x)
    lhs, logdet = bounds._snm_terms(r, q1.T @ w, reg)
    gram = reg + x.T @ x
    vals, vecs = np.linalg.eigh(gram)
    s_mat = w.T @ x @ ((vecs / np.sqrt(vals)) @ vecs.T)
    assert lhs == pytest.approx(np.sum(s_mat * s_mat), rel=1e-12)
    assert logdet == pytest.approx(logdet_psd(gram), rel=1e-12)


def test_snm_factor_draw_keeps_the_raw_row_violation_law():
    # S = 100 I and delta = 1 put the violation rate near 0.15
    cfg = BoundConfig(dims=Dims(d_x=3, d_y=1, r=1), t_tasks=5, n=50, n_prime=1,
                      sigma_w=1.0, b_f=1.0, b_g=1.0,
                      class_complexity=FiniteClass(log_card=1.0), delta=1.0)
    reg, reps = 100.0 * np.eye(3), 4000
    factor = snm_bound_check(cfg, replicates=reps, seed=11, reg=reg).violation_rate
    raw = snm_raw_rows_violations(cfg, reps, 11, reg) / reps
    se = math.sqrt((factor * (1 - factor) + raw * (1 - raw)) / reps)
    assert 0.1 < raw < 0.2
    assert abs(factor - raw) <= 4.0 * se


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


def test_tail_chunks_are_whole_replicates_above_the_budget(monkeypatch):
    # a budget of 7 replicates of m = 16 one-column rows: the 1000 calibration
    # rows come as eight calls of 112 rows and one of 104, then 50 replicates
    # as seven calls of 7 replicates and one of 1
    sizes = []

    def counting(n, rng):
        sizes.append(n)
        return rng.standard_normal((n, 1))

    monkeypatch.setattr(core, "MC_DRAW_BUDGET", 7 * 16)
    res = lower_isometry_tail_check(counting, square, c=3.5, m=16, replicates=50,
                                    seed=14, calibration_samples=1000)
    assert sizes == [112] * 8 + [104] + [7 * 16] * 7 + [16]
    assert res.empirical_freq == tail_frequency_reference(counting, square, 16, 50, 14,
                                                          1000, False)


@pytest.mark.parametrize("name", sorted(TAIL_SOURCES))
def test_tail_frequency_does_not_depend_on_the_budget(name, monkeypatch):
    # one replicate per chunk against the default budget's single chunk
    source, blocked = TAIL_SOURCES[name]
    mode = None
    if blocked:
        mode = BlockedMode(profile=geometric_profile_from_lds(source.a, mc_samples=5000,
                                                              seed=0), k=4)
    whole = lower_isometry_tail_check(source, square, c=3.5, m=8, replicates=400, seed=5,
                                      blocked=mode, calibration_samples=20_000)
    monkeypatch.setattr(core, "MC_DRAW_BUDGET", 1)
    chunked = lower_isometry_tail_check(source, square, c=3.5, m=8, replicates=400, seed=5,
                                        blocked=mode, calibration_samples=20_000)
    assert chunked.empirical_freq == whole.empirical_freq > 0.05


def calibration_reference(law, psi, n, seed):
    """(E psi, E[psi^2] / (E psi)^2, three standard errors of the ratio over 20
    ``np.array_split`` batches) on one whole iid draw of n calibration rows."""
    vals = psi(law.sample_marginal(n, np.random.default_rng(seed)))
    ratios = [np.mean(b ** 2) / np.mean(b) ** 2 for b in np.array_split(vals, 20)]
    mean_psi = float(np.mean(vals))
    return (mean_psi, float(np.mean(vals ** 2)) / mean_psi ** 2,
            3.0 * float(np.std(ratios, ddof=1)) / math.sqrt(20))


def sq_norm(x):
    return (x * x).sum(axis=1)


CALIBRATION_LAWS = {
    "gaussian": (GaussianLaw(sigma_x=np.diag(np.linspace(0.5, 2.0, 16))), square),
    "lds": (LdsLaw(a=0.5 * np.eye(4)), sq_norm),
    "markov": (MarkovLaw(transition=np.array([[0.8, 0.2, 0.0], [0.1, 0.8, 0.1],
                                              [0.0, 0.3, 0.7]]), d_x=3), sq_norm),
}


@pytest.mark.parametrize("name", sorted(CALIBRATION_LAWS))
def test_chunked_calibration_keeps_the_whole_sample_moments(name, monkeypatch):
    # 100 003 rows: several chunks at the default budget, and batches of two sizes
    law, psi = CALIBRATION_LAWS[name]
    n, seed = 100_003, 3
    mean_psi, ratio, slack = calibration_reference(law, psi, n, seed)
    # the precondition holds from C = ratio - slack on; 1e-9 is far above round-off
    threshold = ratio - slack
    args = {"m": 16, "replicates": 300, "seed": seed, "calibration_samples": n}
    chunked = lower_isometry_tail_check(law, psi, c=threshold * (1 + 1e-9), **args)
    with pytest.raises(PreconditionViolated):
        lower_isometry_tail_check(law, psi, c=threshold * (1 - 1e-9), **args)
    monkeypatch.setattr(core, "MC_DRAW_BUDGET", n * law.d_x)
    whole = lower_isometry_tail_check(law, psi, c=threshold * (1 + 1e-9), **args)
    for res in (chunked, whole):
        assert res.mean_psi == pytest.approx(mean_psi, rel=1e-12, abs=0.0)
    assert (chunked.empirical_freq, chunked.passed) == (whole.empirical_freq, whole.passed)


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
