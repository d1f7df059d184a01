import numpy as np
import pytest

from gsir.rates import fit_loglog_slope, optimal_rate_theory, rate_bound_terms

EXACT = 1e-15


def test_smooth_branch_example():
    th = optimal_rate_theory(3.0, 1.0)
    assert th.branch == "smooth"
    assert abs(th.delta_opt - 0.3) < EXACT
    assert abs(th.exponent_opt - 0.3) < EXACT


def test_rough_branch_example():
    th = optimal_rate_theory(2.0, 0.2)
    assert th.branch == "rough"
    assert th.delta_opt == 0.5
    assert abs(th.exponent_opt - 0.1) < EXACT


def test_near_third_example():
    th = optimal_rate_theory(50.0, 1.0)
    assert abs(th.exponent_opt - 50.0 / 151.0) < EXACT


def test_beta_capped_at_one():
    a = optimal_rate_theory(2.0, 1.0)
    b = optimal_rate_theory(2.0, 7.5)
    assert a.delta_opt == b.delta_opt
    assert a.exponent_opt == b.exponent_opt


@pytest.mark.parametrize("alpha", [1.5, 2.0, 5.0, 10.0])
def test_branch_continuity_at_threshold(alpha):
    beta = (alpha - 1.0) / (2.0 * alpha)
    just_above = optimal_rate_theory(alpha, beta * (1.0 + 1e-12))
    at = optimal_rate_theory(alpha, beta)
    assert at.branch == "rough"
    assert abs(just_above.delta_opt - at.delta_opt) < 1e-10
    assert abs(just_above.exponent_opt - at.exponent_opt) < 1e-10


@pytest.mark.parametrize("alpha,beta", [(0.9, 1.0), (1.0, 1.0), (2.0, 0.0),
                                        (2.0, -0.3)])
def test_theory_rejects_bad_exponents(alpha, beta):
    with pytest.raises(ValueError):
        optimal_rate_theory(alpha, beta)


def test_exponent_bounds_and_monotonicity():
    alphas = [1.1, 1.5, 2.0, 3.0, 10.0, 100.0]
    betas = [0.05, 0.3, 0.7, 1.0, 2.0]
    prev_by_beta = {}
    for alpha in alphas:
        exps = []
        for beta in betas:
            th = optimal_rate_theory(alpha, beta)
            assert 0.0 < th.exponent_opt < 0.5
            exps.append(th.exponent_opt)
        # nondecreasing in beta
        assert all(b >= a - EXACT for a, b in zip(exps, exps[1:]))
        for beta, e in zip(betas, exps):
            if beta in prev_by_beta:
                assert e >= prev_by_beta[beta] - EXACT
            prev_by_beta[beta] = e


def test_exponent_approaches_one_third():
    th = optimal_rate_theory(1e6, 1.0)
    assert abs(th.exponent_opt - 1.0 / 3.0) < 1e-5
    assert th.exponent_opt < 1.0 / 3.0


@pytest.mark.parametrize("alpha", [1.01, 1.5, 2.0, 10.0, 1000.0])
def test_exponent_beats_quarter_for_smooth_beta(alpha):
    assert optimal_rate_theory(alpha, 1.0).exponent_opt > 0.25


def test_rate_bound_terms_worked_example():
    terms, total = rate_bound_terms(10 ** 4, 0.01, 2.0, 1.0, "gsir1")
    expect = np.array([0.01, 0.01, 0.01 ** -1.75 / 1e4, 0.01 ** -0.75 / 1e2])
    assert np.allclose(terms, expect, rtol=1e-12)
    assert np.allclose(terms[2:], [0.31622776601683794] * 2, rtol=1e-12)
    assert abs(total - terms.sum()) < EXACT
    assert abs(total - 0.65245553203367585) < 1e-12


def test_gsir2_first_terms_match_gsir1_when_beta_large():
    t1, _ = rate_bound_terms(500, 0.05, 2.0, 1.3, "gsir1")
    t2, _ = rate_bound_terms(500, 0.05, 2.0, 1.3, "gsir2")
    assert t1[0] == t2[0]
    assert t1[1] == t2[1]


def test_terms_monotone_in_n():
    a, _ = rate_bound_terms(1000, 0.05, 2.0, 1.0)
    b, _ = rate_bound_terms(2000, 0.05, 2.0, 1.0)
    assert b[0] < a[0]
    assert b[1] == a[1]
    assert b[2] < a[2]
    assert b[3] < a[3]


@pytest.mark.parametrize("eps", [1.0, 1.5, 0.0, -0.1])
def test_rate_bound_rejects_epsilon_outside_unit(eps):
    with pytest.raises(ValueError, match="epsilon"):
        rate_bound_terms(100, eps, 2.0, 1.0)


@pytest.mark.parametrize("variant", ["gsir1", "gsir2"])
def test_rate_bound_term_overflow_is_a_value_error(variant):
    # the third term, n^-1 eps^-1.75 (gsir1) or eps^-1.25 (gsir2), overflows
    with pytest.raises(ValueError, match="overflows at epsilon=1e-300"):
        rate_bound_terms(10 ** 4, 1e-300, 2.0, 1.0, variant)


def test_rate_bound_rejects_unknown_variant():
    with pytest.raises(ValueError, match="variant"):
        rate_bound_terms(100, 0.1, 2.0, 1.0, "gsir3")


@pytest.mark.parametrize("alpha,beta", [(2.0, 1.0), (1.5, 1.0), (1.5, 0.1)])
def test_bound_sum_tracks_optimal_exponent(alpha, beta):
    # cases where the subdominant bound terms decay clearly faster, so the
    # finite-window slope is close to the asymptotic exponent
    th = optimal_rate_theory(alpha, beta)
    ns = np.logspace(3, 7, 9)
    sums = [rate_bound_terms(n, float(n) ** -th.delta_opt, alpha, beta)[1]
            for n in ns]
    fitline = fit_loglog_slope(ns, sums)
    assert abs(fitline.slope + th.exponent_opt) <= 0.02


def test_fit_loglog_slope_exact_power_law():
    ns = np.array([100.0, 1000.0, 10000.0])
    out = fit_loglog_slope(ns, ns ** -0.5)
    assert abs(out.slope + 0.5) < 1e-12
    assert abs(out.r_squared - 1.0) < 1e-12


def test_fit_loglog_slope_constant():
    out = fit_loglog_slope([10.0, 100.0, 1000.0], [2.0, 2.0, 2.0])
    assert abs(out.slope) < 1e-12
    assert out.r_squared == 1.0


def test_fit_loglog_slope_perturbed_power_law():
    ns = np.array([1e2, 1e3, 1e4, 1e5, 1e6])
    wiggle = 1.0 + 0.01 * np.array([1, -1, 1, -1, 1])
    out = fit_loglog_slope(ns, 3.0 * ns ** -0.3 * wiggle)
    assert abs(out.slope + 0.3) < 0.01


def test_fit_loglog_slope_input_checks():
    with pytest.raises(ValueError, match="3 points"):
        fit_loglog_slope([10.0, 20.0], [1.0, 2.0])
    with pytest.raises(ValueError, match="positive"):
        fit_loglog_slope([10.0, 20.0, 30.0], [1.0, 0.0, 2.0])
