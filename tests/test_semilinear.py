"""Nonlinearity catalogue and derivative consistency."""

import numpy as np
import pytest

from degcontrol.semilinear import SemilinearF, fd_consistency_report


class TestCatalogue:
    def test_zero_is_zero(self):
        # F = 0 is the sinusoidal term at kappa1 = kappa2 = 0
        f = SemilinearF.sinusoidal(0.0, 0.0)
        u = np.linspace(-1, 1, 5)
        for name in ("F", "D1", "D2", "D11", "D12", "D21", "D22"):
            assert np.all(getattr(f, name)(u, u[::-1]) == 0.0), name

    def test_sinusoidal_values(self):
        f = SemilinearF.sinusoidal(kappa1=2.0, kappa2=0.5)
        u, w = np.array([0.3]), np.array([-0.2])
        assert f.F(u, w)[0] == pytest.approx(2.0 * np.sin(0.3)
                                             + 0.5 * np.sin(-0.2))
        assert f.D1(u, w)[0] == pytest.approx(2.0 * np.cos(0.3))
        assert f.D2(u, w)[0] == pytest.approx(0.5 * np.cos(-0.2))

    def test_globally_lipschitz_bound(self):
        rep = SemilinearF.sinusoidal(2.0, 2.0).derivative_bound_report(box=4.0)
        assert all(np.isfinite(v) for v in rep.values())


class TestDerivativeConsistency:
    @pytest.mark.parametrize("f", [SemilinearF.sinusoidal(2.0, 2.0),
                                   SemilinearF.sinusoidal(0.0, 0.0)],
                             ids=["sinusoidal", "zero"])
    def test_fd_consistency(self, f, rng):
        rep = fd_consistency_report(f, rng)
        assert rep["max"] <= 1e-6

    def test_second_derivatives(self, rng):
        f = SemilinearF.sinusoidal(2.0, 2.0)
        u = rng.standard_normal(16)
        w = rng.standard_normal(16)
        eps = 1e-6
        fd = (f.D1(u + eps, w) - f.D1(u - eps, w)) / (2 * eps)
        assert np.max(np.abs(fd - f.D11(u, w))) <= 1e-6
        fd = (f.D2(u, w + eps) - f.D2(u, w - eps)) / (2 * eps)
        assert np.max(np.abs(fd - f.D22(u, w))) <= 1e-6
