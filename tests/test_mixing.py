import numpy as np
import pytest
import scipy.integrate
from scipy.special import ndtr

from transferlab.bounds import BoundConfig, FiniteClass, transfer_risk_bound
from transferlab.core import Dims, GaussianLaw, LdsLaw, MarkovLaw
from transferlab.errors import BadPartition, NotErgodic, SampleTooShort
from transferlab.mixing import (
    BlockedMode,
    BlockPartition,
    ExactProfile,
    GeometricProfile,
    decouple_trajectory,
    dependency_matrix_bound,
    geometric_profile_from_lds,
    make_blocks,
    phi_capital,
    phi_markov,
    profile_to_json,
    select_block_length,
)

GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0


# ---------------------------------------------------------------------------
# phi coefficients
# ---------------------------------------------------------------------------

def test_phi_markov_iid_chain_is_zero():
    p = np.tile([[0.3, 0.5, 0.2]], (3, 1))
    profile = phi_markov(p, max_lag=6)
    assert np.allclose(profile.phi, 0.0, atol=1e-14)


def test_phi_markov_two_cycle_is_half():
    p = np.array([[0.0, 1.0], [1.0, 0.0]])
    profile = phi_markov(p, max_lag=10)
    assert np.allclose(profile.phi, 0.5, atol=1e-15)


def test_phi_markov_lazy_chain_spectral_oracle():
    eps = 0.4
    p = (1 - eps) * np.eye(2) + eps * np.full((2, 2), 0.5)
    lam2 = abs(np.sort(np.linalg.eigvals(p).real)[0])
    profile = phi_markov(p, max_lag=12)
    expected = 0.5 * lam2 ** np.arange(1, 13)
    assert np.allclose(profile.phi, expected, atol=1e-10)


def test_phi_markov_not_ergodic():
    with pytest.raises(NotErgodic):
        phi_markov(np.eye(3), max_lag=4)


def test_phi_monotone_nonincreasing():
    rng = np.random.default_rng(0)
    for _ in range(10):
        p = rng.dirichlet(np.ones(4), size=4)
        profile = phi_markov(p, max_lag=20)
        assert np.all(np.diff(profile.phi) <= 1e-15)


# ---------------------------------------------------------------------------
# geometric LDS surrogate
# ---------------------------------------------------------------------------

def test_geometric_from_zero_matrix():
    profile = geometric_profile_from_lds(np.zeros((2, 2)))
    assert profile.gamma == 0.0 and profile.rho == 0.0
    assert profile.beta_surrogate
    assert phi_capital(profile) == 0.0


@pytest.mark.parametrize("a", [np.zeros((2, 2)), 0.5 * np.eye(2)])
def test_geometric_rejects_empty_sample_before_any_draw(a, monkeypatch):
    draws = []
    monkeypatch.setattr(LdsLaw, "sample_marginal", lambda self, n, rng: draws.append(n))
    with pytest.raises(ValueError, match="mc_samples"):
        geometric_profile_from_lds(a, mc_samples=0)
    assert draws == []


def test_geometric_rho_is_radius_squared():
    rng = np.random.default_rng(1)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    profile = geometric_profile_from_lds(0.7 * q, mc_samples=2_000, seed=2)
    assert profile.rho == pytest.approx(0.49, rel=1e-10)


def test_geometric_scalar_closed_form_kl_oracle():
    a = np.array([[0.5]])
    mc, seed = 100_000, 3
    profile = geometric_profile_from_lds(a, mc_samples=mc, seed=seed)
    # reconstruct the same stationary draws and average the closed-form scalar
    # Pinsker bound independently
    var = 1.0 / (1.0 - 0.25)
    rng = np.random.default_rng(seed)
    x = (rng.standard_normal((mc, 1)) * np.sqrt(var)).ravel()
    kl = 0.5 * ((1.0 / var) - 1.0 + (0.25 * x ** 2) / var + np.log(var))
    tv1 = np.mean(np.minimum(1.0, np.sqrt(kl / 2.0)))
    # the draws cross the 65 536-row chunk boundary, which changes only the
    # order of the sum
    assert profile.gamma == pytest.approx(tv1, rel=1e-12)
    assert profile.phi_at(1) == profile.gamma


def test_geometric_non_normal_matches_one_draw():
    # 70 001 two-dim states cross two 32 768-row chunk boundaries; the oracle
    # draws them at once and averages the Pinsker bound over the whole sample
    a = np.array([[0.6, 0.3], [0.0, 0.5]])
    mc, seed = 70_001, 1
    profile = geometric_profile_from_lds(a, mc_samples=mc, seed=seed)
    law = LdsLaw(a=a)
    sigma = law.second_moment()
    sigma_inv = np.linalg.inv(sigma)
    _, logdet = np.linalg.slogdet(sigma)
    mean = law.sample_marginal(mc, np.random.default_rng(seed)) @ a.T
    kl = 0.5 * (np.trace(sigma_inv) - 2 + np.einsum("ij,jk,ik->i", mean, sigma_inv, mean)
                + logdet)
    tv1 = np.mean(np.minimum(1.0, np.sqrt(np.maximum(kl, 0.0) / 2.0)))
    assert profile.gamma == pytest.approx(tv1, rel=1e-12)
    assert profile.rho == 0.6 ** 2


def tv_narrow_wide(m1, s1, m2, s2):
    """TV between N(m1, s1^2) and N(m2, s2^2) for s1 < s2: the first density is
    the larger exactly between the two roots lo < hi of the log density ratio,
    a concave quadratic, so TV = P1(lo, hi) - P2(lo, hi)."""
    a = 0.5 / s2 ** 2 - 0.5 / s1 ** 2
    b = m1 / s1 ** 2 - m2 / s2 ** 2
    c = 0.5 * m2 ** 2 / s2 ** 2 - 0.5 * m1 ** 2 / s1 ** 2 + np.log(s2 / s1)
    q = -0.5 * (b + np.copysign(np.sqrt(b * b - 4.0 * a * c), b))
    lo, hi = sorted([q / a, c / q])
    return (ndtr((hi - m1) / s1) - ndtr((lo - m1) / s1)
            - ndtr((hi - m2) / s2) + ndtr((lo - m2) / s2))


def expected_tv_scalar_lds(a, lag):
    """E_x TV(N(a^lag x, (1 - a^(2 lag)) / (1 - a^2)), N(0, 1 / (1 - a^2))), x
    stationary: the expected TV between x_lag given x_0 = x and the stationary
    law of x' = a x + w, w ~ N(0, 1), by quadrature over x."""
    sd = np.sqrt(1.0 / (1.0 - a * a))
    sd_lag = np.sqrt((1.0 - a ** (2 * lag)) / (1.0 - a * a))

    def integrand(x):
        density = np.exp(-0.5 * (x / sd) ** 2) / (sd * np.sqrt(2.0 * np.pi))
        return tv_narrow_wide(a ** lag * x, sd_lag, 0.0, sd) * density

    return scipy.integrate.quad(integrand, -np.inf, np.inf, epsabs=1e-13, limit=200)[0]


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: the surrogate decays like rho(A)^2 "
                                       "per lag, the expected TV like rho(A)")
def test_geometric_envelope_covers_the_scalar_lds_expected_tv():
    lags = np.arange(1, 61)
    tv = np.array([expected_tv_scalar_lds(0.9, int(lag)) for lag in lags])
    profile = geometric_profile_from_lds(0.9 * np.eye(1))
    envelope = profile.phi_at(lags)
    below = lags[envelope < tv]
    assert below.size == 0, f"phi(k) is below the expected TV from lag {below[0]}"


# ---------------------------------------------------------------------------
# capital Phi
# ---------------------------------------------------------------------------

def test_phi_capital_zero_profile():
    assert phi_capital(ExactProfile(phi=np.zeros(5))) == 0.0


def test_phi_capital_geometric_closed_form():
    assert phi_capital(GeometricProfile(gamma=1.0, rho=0.25)) == pytest.approx(4.0)


# gamma above 1 clips phi: (2, 0.5) gives Phi = 19.485, not the unclipped 23.314, and
# (37, 0.9) 2889.5, not 14 050; gamma = 2^(K-1) with rho = 1/2 has gamma rho^(K-1) = 1
# exactly, so phi(1..K) = 1.
PHI_CAPITAL_CASES = ([(0.8, 0.6)] + [(g, r) for g in (0.3, 1.0, 2.0, 37.0)
                                     for r in (0.0, 0.25, 0.5, 0.9)]
                     + [(2.0 ** (k - 1), 0.5) for k in (3, 7)])


def test_phi_capital_series_matches_closed_form():
    for gamma, rho in PHI_CAPITAL_CASES:
        geo = GeometricProfile(gamma=gamma, rho=rho)
        series = np.sqrt(geo.phi_at(np.arange(1, 10_001))).sum() ** 2
        assert series == pytest.approx(phi_capital(geo), rel=1e-8)


def test_phi_capital_exact_with_tail():
    for gamma, rho in [(0.5, 0.4)] + PHI_CAPITAL_CASES:
        geo = GeometricProfile(gamma=gamma, rho=rho)
        for max_lag in (1, 3, 40):
            with_tail = ExactProfile(phi=geo.phi_at(np.arange(1, max_lag + 1)), tail=geo)
            assert phi_capital(with_tail) == pytest.approx(phi_capital(geo), rel=1e-12)


# ---------------------------------------------------------------------------
# dependency matrix
# ---------------------------------------------------------------------------

def test_dependency_matrix_independent_process():
    out = dependency_matrix_bound(ExactProfile(phi=np.zeros(4)), n=5)
    assert np.allclose(out.matrix, np.eye(5))
    assert out.spectral_norm == pytest.approx(1.0)


def test_dependency_matrix_two_by_two_golden_ratio():
    out = dependency_matrix_bound(ExactProfile(phi=np.array([0.5])), n=2)
    assert np.allclose(out.matrix, np.array([[1.0, 1.0], [0.0, 1.0]]))
    assert out.spectral_norm == pytest.approx(GOLDEN, rel=1e-12)


@pytest.mark.parametrize("profile", [
    GeometricProfile(gamma=0.6, rho=0.81),
    phi_markov(np.array([[0.97, 0.03], [0.03, 0.97]]), max_lag=32),
], ids=["geometric", "markov"])
@pytest.mark.parametrize("n", [1, 2, 64, 240, 256])
def test_dependency_matrix_matches_the_index_construction(profile, n):
    # oracle: the identity with sqrt(2 phi(j - i)) gathered into each (i, j), j > i
    rows, cols = np.triu_indices(n, 1)
    oracle = np.eye(n)
    oracle[rows, cols] = np.sqrt(2.0 * profile.phi_at(np.arange(1, n)))[cols - rows - 1]
    out = dependency_matrix_bound(profile, n)
    assert np.array_equal(out.matrix, oracle)
    # the norm is sqrt(lambda_max(m^T m)), not an SVD: equal up to round-off
    assert out.spectral_norm == pytest.approx(np.linalg.norm(oracle, 2), rel=1e-12)


def test_dependency_matrix_norm_bound_random_profiles():
    rng = np.random.default_rng(4)
    for _ in range(50):
        lags = int(rng.integers(1, 12))
        phi = np.sort(rng.uniform(0.0, 1.0, size=lags))[::-1]
        profile = ExactProfile(phi=phi)
        n = int(rng.integers(2, 30))
        out = dependency_matrix_bound(profile, n=n)
        cap = 1.0 + np.sqrt(2.0) * sum(np.sqrt(profile.phi_at(l)) for l in range(1, n))
        assert out.spectral_norm <= cap + 1e-9


# ---------------------------------------------------------------------------
# blocks
# ---------------------------------------------------------------------------

def test_make_blocks_small():
    part = make_blocks(8, 2)
    assert part.blocks == ((0, 2), (2, 4), (4, 6), (6, 8))
    assert part.odd_blocks == ((0, 2), (4, 6))


def test_make_blocks_odd_count_rejected():
    with pytest.raises(BadPartition):
        make_blocks(4, 4)
    with pytest.raises(BadPartition):
        make_blocks(10, 3)


def test_make_blocks_coverage():
    part = make_blocks(1000, 10)
    assert part.num_blocks == 100
    seen = np.zeros(1000, dtype=int)
    for start, stop in part.blocks:
        seen[start:stop] += 1
    assert np.all(seen == 1)


# ---------------------------------------------------------------------------
# decoupling
# ---------------------------------------------------------------------------

def test_decoupled_halves_uncorrelated():
    law = LdsLaw(a=0.8 * np.eye(1))
    part = make_blocks(16, 8)
    reps = 2000
    prods = np.empty(reps)
    for i in range(reps):
        x = decouple_trajectory(law, part, seed=i).ravel()
        prods[i] = x[:8].mean() * x[8:].mean()
    stderr = prods.std(ddof=1) / np.sqrt(reps)
    assert abs(prods.mean()) <= 3 * stderr


def _energy_statistic(a, b):
    def mean_dist(u, v):
        d = np.linalg.norm(u[:, None, :] - v[None, :, :], axis=2)
        return d.mean()
    return 2 * mean_dist(a, b) - mean_dist(a, a) - mean_dist(b, b)


def test_decoupling_noop_for_iid_law():
    law = GaussianLaw(np.eye(2))
    part = make_blocks(200, 10)
    rng = np.random.default_rng(5)
    direct = law.sample_marginal(200, rng)
    decoupled = decouple_trajectory(law, part, seed=6)
    observed = _energy_statistic(direct, decoupled)
    pooled = np.vstack([direct, decoupled])
    perm_rng = np.random.default_rng(7)
    stats = []
    for _ in range(200):
        idx = perm_rng.permutation(400)
        stats.append(_energy_statistic(pooled[idx[:200]], pooled[idx[200:]]))
    assert observed < np.quantile(stats, 0.99)


def test_decoupling_expectation_inequality():
    # |E f(odd blocks of Z) - E f(odd blocks of Z~)| <= sum of interior even
    # phi(k) plus Monte Carlo slack, for f a clipped block average in [0, 1]
    p = np.array([[0.9, 0.1], [0.1, 0.9]])
    law = MarkovLaw(transition=p, d_x=1)
    k, n = 6, 24
    part = make_blocks(n, k)
    phi = phi_markov(p, max_lag=k)
    bound = (part.num_blocks // 2 - 1) * phi.phi_at(k)

    def f(x):
        odd = np.concatenate([x[s:e] for s, e in part.odd_blocks])
        return float(np.clip(np.mean(odd[:, 0] + 0.5), 0.0, 1.0))

    reps = 4000
    rng = np.random.default_rng(8)
    coupled = np.array([f(law.sample_path(n, rng)) for _ in range(reps)])
    decoupled = np.array([f(decouple_trajectory(law, part, seed=10_000 + i))
                          for i in range(reps)])
    diff = abs(coupled.mean() - decoupled.mean())
    stderr = np.sqrt(coupled.var(ddof=1) / reps + decoupled.var(ddof=1) / reps)
    assert diff <= bound + 3 * stderr


def test_decoupled_block_marginals_match():
    law = LdsLaw(a=np.array([[0.6, 0.2], [0.0, 0.5]]))
    part = make_blocks(12, 6)
    reps = 3000
    rng = np.random.default_rng(9)
    direct = np.stack([law.sample_path(12, rng) for _ in range(reps)])
    dec = np.stack([decouple_trajectory(law, part, seed=20_000 + i)
                    for i in range(reps)])
    # per-position mean and second moment agree within 3 standard errors
    for block in part.blocks:
        for pos in range(*block):
            for dim in range(2):
                a = direct[:, pos, dim]
                b = dec[:, pos, dim]
                se = np.sqrt(a.var(ddof=1) / reps + b.var(ddof=1) / reps)
                assert abs(a.mean() - b.mean()) <= 4 * se + 1e-12
                a2, b2 = a ** 2, b ** 2
                se2 = np.sqrt(a2.var(ddof=1) / reps + b2.var(ddof=1) / reps)
                assert abs(a2.mean() - b2.mean()) <= 4 * se2 + 1e-12


# ---------------------------------------------------------------------------
# block-length selection
# ---------------------------------------------------------------------------

def test_select_block_length_worked_example():
    # m phi(k) = 272 e^-(k-1) <= 0.1 needs k - 1 >= log(2720) ~ 7.91, so k >= 9;
    # the divisors of 272 = 16 * 17 from 9 on are 16 (quotient 17, odd) and 17
    k = select_block_length(GeometricProfile(gamma=1.0, rho=np.exp(-1.0)), 272, 0.1)
    assert k == 17


def test_select_block_length_divisor_adjustment():
    # m phi(k) = 80 * 0.05^(k-1) <= 0.25 first holds at k = 3 (0.2), but 80/3 is
    # not integral -> next divisor 4 (quotient 20)
    profile = GeometricProfile(gamma=1.0, rho=0.05)
    assert select_block_length(profile, 80, 0.25) == 4


def test_select_block_length_instant_mixing():
    # phi(1) = gamma = 0.5 rules out k = 1 (10 * 0.5 > 0.1); k = 2 meets the tail
    # rule but leaves 5 blocks, an odd count, so the next divisor is 5
    assert select_block_length(GeometricProfile(gamma=0.5, rho=1e-12), 10, 0.1) == 5


def test_select_block_length_sample_too_short():
    with pytest.raises(SampleTooShort):
        select_block_length(GeometricProfile(gamma=5.0, rho=0.999), 16, 0.01)


def test_select_block_length_postcondition_random():
    rng = np.random.default_rng(10)
    base = np.array([240, 480, 960, 2520])
    checked = 0
    while checked < 100:
        gamma = float(rng.uniform(0.2, 5.0))
        rho = float(rng.uniform(0.05, 0.9))
        m = int(rng.choice(base) * rng.integers(1, 4))
        delta = float(rng.uniform(0.01, 0.2))
        profile = GeometricProfile(gamma=gamma, rho=rho)
        try:
            k = select_block_length(profile, m, delta)
        except SampleTooShort:
            continue
        assert m * profile.phi_at(k) <= delta
        assert m % k == 0 and (m // k) % 2 == 0
        checked += 1


def test_profile_json_roundtrip_fields():
    geo = geometric_profile_from_lds(0.5 * np.eye(2), mc_samples=2_000, seed=11)
    j = profile_to_json(geo)
    assert j["kind"] == "geometric" and j["beta_surrogate"]
    exact = phi_markov(np.array([[0.0, 1.0], [1.0, 0.0]]), max_lag=4)
    j2 = profile_to_json(exact)
    assert j2["kind"] == "exact" and j2["phi"] == [0.5] * 4
    assert j2["phi_capital"] == pytest.approx((4 * np.sqrt(0.5)) ** 2)


# ---------------------------------------------------------------------------
# one convention across consumers
# ---------------------------------------------------------------------------

def test_every_consumer_reads_phi_at():
    """Dependency matrix, block tail, block length and Phi all read phi(l) as
    ``phi_at(l)``, for a geometric profile and for stored lags with a geometric tail."""
    geo = GeometricProfile(gamma=0.6, rho=0.5)
    exact = ExactProfile(phi=[0.9, 0.5, 0.3], tail=GeometricProfile(gamma=0.4, rho=0.7))
    n, n_prime, k = 40, 96, 3
    for profile in (geo, exact):
        lags = np.arange(1, n)
        assert type(profile.phi_at(1)) is float
        phi = np.array([profile.phi_at(int(lag)) for lag in lags])
        assert np.array_equal(profile.phi_at(lags), phi)
        dep = dependency_matrix_bound(profile, n).matrix
        for lag in lags:
            assert np.array_equal(np.diagonal(dep, lag),
                                  np.full(n - lag, np.sqrt(2 * phi[lag - 1])))
        cfg = BoundConfig(dims=Dims(d_x=4, d_y=1, r=2), t_tasks=3, n=200, n_prime=n_prime,
                          sigma_w=0.5, b_f=1.0, b_g=1.0, class_complexity=FiniteClass(1.0),
                          mixing=BlockedMode(profile=profile, k=k))
        burn_ins = {b.name: b for b in transfer_risk_bound(cfg, 1.0, 1.0, 1.0).burn_ins}
        assert burn_ins["target_block_tail"].actual == pytest.approx(
            (n_prime / k) * phi[k - 1], rel=1e-15)
        series = np.sqrt(profile.phi_at(np.arange(1, 20_000))).sum() ** 2
        assert phi_capital(profile) == pytest.approx(series, rel=1e-8)

    m, delta = 240, 0.05
    admissible = [j for j in range(1, m // 2 + 1)
                  if m % j == 0 and (m // j) % 2 == 0 and m * geo.phi_at(j) <= delta]
    assert select_block_length(geo, m, delta) == admissible[0]
    with pytest.raises(TypeError):
        select_block_length(exact, m, delta)

    expanded = ExactProfile(phi=geo.phi_at(np.arange(1, 6)), tail=geo)
    assert dependency_matrix_bound(expanded, n).spectral_norm == pytest.approx(
        dependency_matrix_bound(geo, n).spectral_norm, rel=1e-12)
    assert phi_capital(expanded) == pytest.approx(phi_capital(geo), rel=1e-12)


def test_phi_at_rejects_lags_below_one():
    for profile in (GeometricProfile(gamma=0.6, rho=0.5), ExactProfile(phi=[0.5])):
        with pytest.raises(ValueError, match="lag"):
            profile.phi_at(np.array([1, 0]))
