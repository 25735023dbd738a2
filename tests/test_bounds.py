import math

import numpy as np
import pytest

from transferlab.bounds import (
    BoundConfig,
    FiniteClass,
    MixingSetup,
    ParametricClass,
    SnmCheckResult,
    burn_ins_to_csv,
    covering_parametric,
    covering_star_hull,
    log_integral_bound,
    martingale_complexity_bound,
    martingale_complexity_terms,
    snm_bound_check,
    transfer_risk_bound,
)
from transferlab.core import Dims
from transferlab.mixing import GeometricProfile


def make_config(**overrides):
    base = dict(
        dims=Dims(d_x=8, d_y=2, r=3),
        t_tasks=4,
        n=256,
        n_prime=128,
        sigma_w=0.5,
        b_f=2.0,
        b_g=1.5,
        class_complexity=FiniteClass(log_card=10.0),
        delta=0.05,
    )
    base.update(overrides)
    return BoundConfig(**base)


# ---------------------------------------------------------------------------
# covering numbers
# ---------------------------------------------------------------------------

def test_covering_parametric_spot_value():
    assert covering_parametric(2, 1.0, 1.0, 2.0) == pytest.approx(2.0 * math.log(2.0))


def test_covering_parametric_vanishes_at_large_gamma():
    assert covering_parametric(3, 1.0, 1.0, 1e12) == pytest.approx(0.0, abs=1e-11)


def test_covering_parametric_monotone_in_gamma():
    vals = [covering_parametric(4, 2.0, 3.0, g) for g in np.linspace(0.01, 10.0, 50)]
    assert all(b <= a for a, b in zip(vals, vals[1:]))


def test_covering_star_hull_spot_value():
    config = make_config(dims=Dims(d_x=2, d_y=1, r=1), t_tasks=1, b_f=1.0, b_g=1.0,
                         class_complexity=FiniteClass(log_card=0.0))
    val = covering_star_hull(config, gamma=4.0)
    assert val == pytest.approx(math.log(2.0) + math.log(1.5), rel=1e-12)


def test_covering_star_hull_finite_term_constant_in_gamma():
    c1 = make_config(class_complexity=FiniteClass(log_card=7.0))
    c0 = make_config(class_complexity=FiniteClass(log_card=0.0))
    for gamma in (0.1, 1.0, 10.0):
        assert covering_star_hull(c1, gamma) - covering_star_hull(c0, gamma) \
            == pytest.approx(7.0, rel=1e-12)


def test_covering_star_hull_heads_term_linear_in_t():
    c1 = make_config(t_tasks=3)
    c2 = make_config(t_tasks=6)
    gamma = 0.7
    base = covering_star_hull(make_config(t_tasks=3, dims=Dims(8, 2, 3)), gamma)
    hull_and_rep = math.log1p(2.0 * 2.0 * 1.5 / gamma) + 10.0
    heads1 = covering_star_hull(c1, gamma) - hull_and_rep
    heads2 = covering_star_hull(c2, gamma) - hull_and_rep
    assert heads2 == pytest.approx(2.0 * heads1, rel=1e-12)
    assert base == pytest.approx(covering_star_hull(c1, gamma))


# ---------------------------------------------------------------------------
# log-integral lemma
# ---------------------------------------------------------------------------

def test_log_integral_at_zero():
    res = log_integral_bound(0.0)
    assert res.bound == pytest.approx(1.0)
    assert res.quadrature == 0.0


def test_log_integral_spot_value():
    assert log_integral_bound(math.e - 1.0).bound == pytest.approx(math.sqrt(2.0))


def test_log_integral_quadrature_never_exceeds_bound():
    for c in np.geomspace(1e-3, 1e6, 50):
        res = log_integral_bound(float(c))
        assert res.quadrature <= res.bound + 1e-9


# ---------------------------------------------------------------------------
# martingale complexity bound
# ---------------------------------------------------------------------------

def test_martingale_no_deviation_at_delta_one():
    full = make_config(delta=1.0)
    head, cls, dev = martingale_complexity_terms(full)
    assert dev == 0.0
    assert martingale_complexity_bound(full) == pytest.approx(head + cls)


def test_martingale_doubling_t_halves_class_and_deviation():
    # b_f = 0 pins every log factor to log(e) = 1, isolating the structure
    c1 = make_config(b_f=0.0, t_tasks=4)
    c2 = make_config(b_f=0.0, t_tasks=8)
    h1, cls1, dev1 = martingale_complexity_terms(c1)
    h2, cls2, dev2 = martingale_complexity_terms(c2)
    assert cls2 == pytest.approx(cls1 / 2.0, rel=1e-12)
    assert dev2 == pytest.approx(dev1 / 2.0, rel=1e-12)
    assert h2 == pytest.approx(h1, rel=1e-12)


def test_martingale_parametric_class_term():
    cfg = make_config(class_complexity=ParametricClass(d_theta=6, b_theta=2.0,
                                                       l_theta=3.0))
    _, cls, _ = martingale_complexity_terms(cfg)
    expected = cfg.c_universal * cfg.sigma_w ** 2 * 6 * math.log(
        math.e + 2.0 * 2.0 * 3.0 * 256 * 4 / 0.5) / (256 * 4)
    assert cls == pytest.approx(expected, rel=1e-12)


def test_martingale_slope_in_n_is_minus_one_when_head_dominates():
    cfgs = [make_config(b_f=0.0, n=n, class_complexity=FiniteClass(log_card=0.0),
                        delta=1.0) for n in (100, 200, 400, 800)]
    vals = [martingale_complexity_bound(c) for c in cfgs]
    slopes = np.diff(np.log(vals)) / np.diff(np.log([100, 200, 400, 800]))
    assert np.all((slopes >= -1.05) & (slopes <= -0.95))


# ---------------------------------------------------------------------------
# transfer risk bound
# ---------------------------------------------------------------------------

def test_transfer_bound_iid_formula():
    cfg = make_config()
    rep = transfer_risk_bound(cfg, mu_x=1.5, mu_f=2.0, c_z=math.sqrt(3.0))
    d = cfg.dims
    expected_nrls = cfg.sigma_w ** 2 * math.sqrt(3.0) * d.d_y * d.r \
        * math.log(1 / cfg.delta) / cfg.n_prime
    assert rep.nrls_bound == pytest.approx(expected_nrls, rel=1e-12)
    assert rep.transfer_bound == pytest.approx(
        rep.nrls_bound + 1.5 * 2.0 * rep.martingale_bound, rel=1e-12)
    assert rep.mode == "iid"
    assert {b.name for b in rep.burn_ins} == {"target_nrls_samples",
                                              "target_psi1_moment", "source_samples"}


def test_transfer_bound_halves_first_term_with_n_prime():
    r1 = transfer_risk_bound(make_config(n_prime=100), 1.0, 1.0, 1.0)
    r2 = transfer_risk_bound(make_config(n_prime=200), 1.0, 1.0, 1.0)
    assert r2.nrls_bound == pytest.approx(r1.nrls_bound / 2.0, rel=1e-12)
    assert r2.martingale_bound == pytest.approx(r1.martingale_bound, rel=1e-12)


def test_transfer_bound_mixing_only_changes_burn_ins():
    cfg_iid = make_config()
    mix = MixingSetup(profile=GeometricProfile(gamma=1.0, rho=0.25), k=4)
    cfg_mix = make_config(mixing=mix)
    r_iid = transfer_risk_bound(cfg_iid, 1.2, 1.1, 1.0)
    r_mix = transfer_risk_bound(cfg_mix, 1.2, 1.1, 1.0)
    assert r_mix.transfer_bound == pytest.approx(r_iid.transfer_bound, rel=1e-12)
    assert r_mix.nrls_bound == pytest.approx(r_iid.nrls_bound, rel=1e-12)
    assert r_mix.martingale_bound == pytest.approx(r_iid.martingale_bound, rel=1e-12)
    assert r_mix.mode == "mixing"
    by_name_iid = {b.name: b for b in r_iid.burn_ins}
    by_name_mix = {b.name: b for b in r_mix.burn_ins}
    assert "target_block_tail" in by_name_mix and "target_block_tail" not in by_name_iid
    # target sample counts divided by k
    assert by_name_mix["target_nrls_samples"].actual == pytest.approx(
        by_name_iid["target_nrls_samples"].actual / 4.0)
    # source requirement inflated by capital Phi = 1/(1-1/2)^2 = 4
    assert by_name_mix["source_samples"].required == pytest.approx(
        4.0 * by_name_iid["source_samples"].required, rel=1e-12)
    tail = by_name_mix["target_block_tail"]
    assert tail.direction == "at_most"
    assert tail.actual == pytest.approx((cfg_mix.n_prime / 4) * 1.0 * 0.25 ** 4)


def test_transfer_bound_additive_decomposition_exact():
    rng = np.random.default_rng(0)
    for _ in range(20):
        cfg = make_config(n=int(rng.integers(10, 5000)),
                          n_prime=int(rng.integers(10, 5000)),
                          t_tasks=int(rng.integers(1, 40)))
        mu_x = float(rng.uniform(0.5, 4.0))
        mu_f = float(rng.uniform(0.5, 4.0))
        rep = transfer_risk_bound(cfg, mu_x, mu_f, 1.3)
        assert abs(rep.transfer_bound
                   - (rep.nrls_bound + mu_x * mu_f * rep.martingale_bound)) <= 1e-12


def test_transfer_bound_requires_small_delta():
    with pytest.raises(ValueError):
        transfer_risk_bound(make_config(delta=0.5), 1.0, 1.0, 1.0)


def test_bounds_monotone_in_sample_sizes_and_tasks():
    # large finite class keeps the T-direction monotone despite the log(NT)
    # factor in the head term
    def value(n=256, n_prime=128, t=4):
        cfg = make_config(n=n, n_prime=n_prime, t_tasks=t,
                          class_complexity=FiniteClass(log_card=500.0))
        return transfer_risk_bound(cfg, 1.0, 1.0, 1.0).transfer_bound

    for grid, kw in (((64, 128, 256, 512, 1024), "n"),
                     ((64, 128, 256, 512, 1024), "n_prime"),
                     ((2, 4, 8, 16), "t")):
        vals = [value(**{kw: v}) for v in grid]
        assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:])), (kw, vals)


def test_burn_in_csv_rendering():
    rep = transfer_risk_bound(make_config(), 1.0, 1.0, 1.0)
    text = burn_ins_to_csv(rep)
    lines = text.strip().splitlines()
    assert lines[0] == "name,required,actual,satisfied,direction"
    assert len(lines) == 1 + len(rep.burn_ins)


# ---------------------------------------------------------------------------
# self-normalized martingale coverage
# ---------------------------------------------------------------------------

def test_snm_zero_noise_never_violates():
    # with W = 0 the left side vanishes and the inequality is 0 <= RHS
    rng = np.random.default_rng(1)
    x = rng.standard_normal((50, 3))
    gram = np.eye(3) + x.T @ x
    vals, vecs = np.linalg.eigh(gram)
    lhs = np.zeros((3, 50)) @ x @ ((vecs / np.sqrt(vals)) @ vecs.T)
    assert np.sum(lhs * lhs) == 0.0


def test_snm_empty_data_reduces_to_deviation_term():
    cfg = make_config(dims=Dims(3, 1, 1), n=0, t_tasks=5, sigma_w=1.0, delta=0.05)
    res = snm_bound_check(cfg, replicates=50, seed=2)
    assert res.violation_rate == 0.0


def test_snm_rejects_zero_replicates():
    cfg = make_config(dims=Dims(3, 1, 1), n=50, t_tasks=5, sigma_w=1.0, delta=0.05)
    with pytest.raises(ValueError, match="replicates"):
        snm_bound_check(cfg, replicates=0, seed=2)


def test_snm_coverage_default_configuration():
    cfg = make_config(dims=Dims(3, 1, 1), n=50, t_tasks=5, sigma_w=1.0, delta=0.05)
    res = snm_bound_check(cfg, replicates=2000, seed=3)
    assert res.passed


@pytest.mark.parametrize("seed", range(3))
def test_snm_coverage_with_violations(seed):
    # S = 100 I puts the violation rate near delta (about 0.01-0.02 at
    # delta = 0.1), so a bound twice too loose would fail the rate floor
    cfg = make_config(dims=Dims(3, 1, 1), n=50, t_tasks=5, sigma_w=1.0, delta=0.1)
    res = snm_bound_check(cfg, replicates=2000, seed=seed, reg=100.0 * np.eye(3))
    assert res.passed
    assert res.violation_rate >= cfg.delta / 20


def test_snm_result_stderr():
    res = SnmCheckResult(violation_rate=0.01, delta=0.05, replicates=2000)
    assert res.stderr == pytest.approx(math.sqrt(0.05 * 0.95 / 2000))
    assert res.passed
    edge = 0.05 + 3.0 * res.stderr
    assert SnmCheckResult(violation_rate=edge, delta=0.05, replicates=2000).passed
    assert not SnmCheckResult(violation_rate=edge + 1e-9, delta=0.05,
                              replicates=2000).passed
