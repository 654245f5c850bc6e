"""Degeneracy, gradient weight, moving domain and control windows."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degcontrol.geometry import (
    ControlGeometry,
    DegeneracySpec,
    GradientWeightSpec,
    MovingDomainSpec,
    beta_condition_report,
)
from degcontrol.harness import default_config, validate_config

# the config's default windows
WINDOWS = {k: tuple(v) for k, v in default_config()["game"]["windows"].items()}


def _observability_issues(windows: dict) -> list:
    """The validation issues of an observability run, which reads every
    window, with `windows` set."""
    return validate_config({"grid": {"N": 16, "M": 16},
                            "game": {"windows": windows},
                            "experiment": {"kind": "observability"}})


class TestDegeneracy:
    def test_alpha_range(self):
        with pytest.raises(ValueError):
            DegeneracySpec(alpha=0.0)
        with pytest.raises(ValueError):
            DegeneracySpec(alpha=1.0)

    def test_a_values(self):
        deg = DegeneracySpec(alpha=0.5)
        assert deg.a(0.0) == 0.0
        assert deg.a(0.25) == pytest.approx(0.5)
        assert deg.a(1.0) == 1.0

    def test_a_prime_fd(self):
        deg = DegeneracySpec(alpha=0.5)
        x = np.linspace(0.1, 1.0, 7)
        eps = 1e-6
        fd = (deg.a(x + eps) - deg.a(x - eps)) / (2 * eps)
        assert np.allclose(deg.a_prime(x), fd, rtol=1e-8)

    def test_weak_degeneracy_constant(self):
        # x a'(x) = alpha a(x), so K = alpha < 1
        deg = DegeneracySpec(alpha=0.7)
        x = np.linspace(0.05, 1.0, 11)
        assert np.allclose(x * deg.a_prime(x), deg.K * deg.a(x))
        assert deg.K < 1.0

    def test_negative_x_rejected(self):
        with pytest.raises(ValueError):
            DegeneracySpec(alpha=0.5).a(-0.1)

    @given(st.floats(0.05, 0.95), st.floats(0.01, 1.0), st.floats(0.01, 1.0))
    @settings(max_examples=30, deadline=None)
    def test_a_multiplicative(self, alpha, x1, x2):
        deg = DegeneracySpec(alpha=alpha)
        assert deg.a(x1 * x2) == pytest.approx(deg.a(x1) * deg.a(x2),
                                               rel=1e-12)


class TestGradientWeight:
    def test_b_exp_validated(self):
        with pytest.raises(ValueError):
            GradientWeightSpec(b_exp=1.0)

    def test_clip_factor_default(self):
        deg = DegeneracySpec(alpha=0.5)
        assert GradientWeightSpec(b_exp=2.0).clip_factor(deg) == \
            pytest.approx(0.5)

    @pytest.mark.parametrize("alpha", [0.2, 0.5, 0.9])
    @pytest.mark.parametrize("b_exp", [1.5, 2.0, 3.0])
    def test_weight_matches_its_closed_form(self, alpha, b_exp):
        # beta, the clip factor and M, bit for bit, as the clip factor
        # c = min(1, sqrt(alpha/b)) scales beta = c x^b and bounds beta'
        # by its largest nodal value
        deg = DegeneracySpec(alpha=alpha)
        gw = GradientWeightSpec(b_exp=b_exp)
        c = min(1.0, np.sqrt(alpha / b_exp))
        x = np.linspace(0.0, 1.0, 512)[1:]
        rep = beta_condition_report(gw, deg)
        assert gw.clip_factor(deg) == c and rep["clip_factor"] == c
        assert rep["M"] == float(np.max(b_exp * c * x ** (b_exp - 1.0)))
        assert np.array_equal(gw.beta(x, deg), c * x**b_exp)

    def test_beta_conditions_hold(self):
        deg = DegeneracySpec(alpha=0.5)
        rep = beta_condition_report(GradientWeightSpec(b_exp=2.0), deg)
        assert rep["all_ok"]
        assert rep["beta_sq_le_a"]
        assert rep["beta_sq_prime_le_2a_prime"]
        assert rep["beta_prime_bounded"]
        assert np.isfinite(rep["M"])

    def test_closed_form_clip_meets_the_conditions(self):
        # the closed form c = min(1, sqrt(alpha/b)) holds both conditions
        # at the nodes of the check as it is, with no shrinking
        for alpha in np.linspace(0.01, 0.99, 25):
            deg = DegeneracySpec(alpha=alpha)
            for b_exp in 1.0 + np.geomspace(1e-4, 19.0, 25):
                gw = GradientWeightSpec(b_exp=b_exp)
                assert gw.clip_factor(deg) == min(1.0, np.sqrt(alpha / b_exp))
                assert beta_condition_report(gw, deg)["all_ok"], (alpha,
                                                                  b_exp)

    def test_unclipped_weight_violates(self):
        # the raw x^b weight, before the clip, fails (beta^2)' <= 2a'
        deg = DegeneracySpec(alpha=0.5)
        rep = beta_condition_report(GradientWeightSpec(b_exp=2.0), deg)
        assert rep["raw_violation_margin"] > 0


def _sampled_ell_positive(family, T, l0, k, w, n=257):
    """l(t) > 0 on n evenly spaced points of [0,T], the family's formula
    evaluated without a spec."""
    t = np.linspace(0.0, T, n)
    ell = {"constant": lambda: l0 * np.ones_like(t),
           "affine": lambda: l0 * (1.0 + k * t),
           "exponential": lambda: l0 * np.exp(k * t),
           "sinusoidal": lambda: l0 * (1.0 + k * np.sin(w * t))}[family]()
    return bool(np.all(ell > 0))


def _builds(**fields):
    try:
        MovingDomainSpec(**fields)
    except ValueError as exc:
        assert str(exc) == "l(t) must stay positive on [0,T]"
        return False
    return True


class TestMovingDomain:
    def test_affine_values(self):
        dom = MovingDomainSpec(T=1.0, family="affine", l0=1.0, k=0.25, w=np.pi)
        assert dom.ell(0.0) == 1.0
        assert dom.ell(1.0) == 1.25
        assert dom.ell_prime(0.5) == pytest.approx(0.25)

    @pytest.mark.parametrize("family,k",
                             [("constant", 0.0), ("affine", 0.25),
                              ("exponential", 0.2), ("sinusoidal", 0.3)])
    def test_ell_prime_consistent(self, family, k):
        dom = MovingDomainSpec(T=1.0, family=family, l0=1.0, k=k, w=np.pi)
        t = np.linspace(0.05, 0.95, 9)
        eps = 1e-6
        fd = (dom.ell(t + eps) - dom.ell(t - eps)) / (2 * eps)
        assert np.allclose(dom.ell_prime(t), fd, rtol=1e-7, atol=1e-9)

    def test_sinusoidal_amplitude_limit(self):
        with pytest.raises(ValueError):
            MovingDomainSpec(T=1.0, family="sinusoidal", l0=1.0, k=1.0,
                             w=np.pi)

    @pytest.mark.parametrize("family, T, ks", [
        # through 1 + kT = 0, at its float neighbours too
        ("affine", 1.0, [-1.1, np.nextafter(-1.0, -2.0), -1.0,
                         np.nextafter(-1.0, 0.0), -0.9]),
        ("affine", 2.0, list(np.linspace(-0.6, -0.4, 41))),
        ("affine", 3.0, [-1.0 / 3.0, np.nextafter(-1.0 / 3.0, 0.0)]),
        # exp(kT) underflows to 0 below kT = -745
        ("exponential", 1.0, [-744.0, -745.0, -745.2, -746.0, -800.0]),
        ("exponential", 10.0, [-74.5, -74.6, -80.0]),
    ])
    def test_refuses_where_sampling_refuses(self, family, T, ks):
        # checking l at t = 0 and t = T gives the verdict of l > 0 on 257
        # points of [0,T], on both sides of where l(T) reaches 0
        verdicts = [_builds(T=T, family=family, l0=1.0, k=k, w=np.pi)
                    for k in ks]
        assert verdicts == [_sampled_ell_positive(family, T, 1.0, k, np.pi)
                            for k in ks]
        assert True in verdicts and False in verdicts

    def test_random_domains_refused_where_sampling_refuses(self):
        rng = np.random.default_rng(0)
        refused = 0
        for _ in range(400):
            fields = dict(T=float(rng.uniform(0.1, 5.0)),
                          family=str(rng.choice(["constant", "affine",
                                                 "exponential", "sinusoidal"])),
                          l0=float(rng.uniform(0.1, 3.0)),
                          k=float(rng.uniform(-0.99, 0.99)),
                          w=float(rng.uniform(0.0, 20.0)))
            if fields["family"] == "affine":
                fields["k"] = float(rng.uniform(-2.0, 1.0))
            if fields["family"] == "exponential":
                fields["k"] = float(rng.uniform(-400.0, 1.0))
            builds = _builds(**fields)
            assert builds == _sampled_ell_positive(**fields), fields
            refused += not builds
        assert refused > 0

    def test_coefficients_formulas(self):
        deg = DegeneracySpec(alpha=0.5)
        gw = GradientWeightSpec(b_exp=2.0)
        dom = MovingDomainSpec(T=1.0, family="affine", l0=1.0, k=0.25, w=np.pi)
        t = 0.5
        b, B, C = dom.coefficients(deg, gw, t)
        ell = dom.ell(t)
        assert b == pytest.approx(deg.a(ell) / ell**2)
        assert B == pytest.approx(dom.ell_prime(t) / ell)
        assert C == pytest.approx(gw.beta(ell, deg) / ell)

    def test_time_outside_horizon_rejected(self):
        deg = DegeneracySpec(alpha=0.5)
        gw = GradientWeightSpec(b_exp=2.0)
        dom = MovingDomainSpec(T=1.0, family="affine", l0=1.0, k=0.25, w=np.pi)
        with pytest.raises(ValueError):
            dom.coefficients(deg, gw, 1.5)


class TestControlGeometry:
    def test_defaults_valid(self):
        ControlGeometry(**WINDOWS)

    def test_every_window_outside_the_unit_interval_refused(self):
        # in one error
        with pytest.raises(ValueError) as err:
            ControlGeometry(**{**WINDOWS, "O": (0.0, 0.5), "Od": (0.6, 0.4)})
        assert str(err.value) == (
            "window O=(0.0, 0.5) must satisfy 0 < a < b < 1; "
            "window Od=(0.6, 0.4) must satisfy 0 < a < b < 1")

    def test_follower_window_must_avoid_o(self):
        # a tie that binds the runs reading O and O1, such as an
        # observability run; the spec takes the windows apart from them
        ControlGeometry(**{**WINDOWS, "O1": (0.4, 0.6)})
        assert ("game.windows: follower window O1 must be disjoint from O"
                in _observability_issues({"O1": [0.4, 0.6]}))

    def test_od_must_meet_o(self):
        ControlGeometry(**{**WINDOWS, "Od": (0.05, 0.1)})
        assert ("game.windows: observation window Od must intersect O"
                in _observability_issues({"Od": [0.05, 0.1]}))

    def test_indicator_open_interval(self):
        geo = ControlGeometry(**WINDOWS)
        x = np.array([0.3, 0.4, 0.5])
        ind = geo.indicator("O", x)
        assert list(ind) == [0.0, 1.0, 0.0]
