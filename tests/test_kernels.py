import numpy as np
import pytest
from scipy.integrate import quad

from grid_helpers import kernel_moment, support_radius
from mollikit.kernels import make_kernel, profile_value, unit_ball_volume

# Richardson-extrapolated midpoint oracle for the 1D bump mass,
# frozen from int_{-1}^{1} exp(-1/(1-x^2)) dx (agrees with adaptive
# quadrature to 3e-10).
BUMP_MASS_1D = 0.4439938161680794


def test_bump_m_rho_matches_quadrature_oracle():
    k = make_kernel("bump", 1, 200)
    assert k.m_rho == pytest.approx(1.0 / BUMP_MASS_1D, rel=1e-9)
    assert k.m_rho == pytest.approx(2.2523, abs=5e-4)


@pytest.mark.parametrize("order", [16, 17, 64])
def test_box_m_rho_is_half(order):
    k = make_kernel("box", 1, order)
    assert k.m_rho == pytest.approx(0.5, abs=1e-12)


def test_plateau_is_one_inside_its_flat_radius():
    for n in (2, 5, 16):
        r = 1.0 - 1.0 / n - 1e-9
        assert profile_value("plateau", np.array([r * r]), n)[0] == 1.0
        assert profile_value("plateau", np.array([1.0]), n)[0] == 0.0
        assert profile_value("plateau", np.array([1.21]), n)[0] == 0.0


def test_profile_ranges_and_radial_monotonicity():
    r = np.linspace(0.0, 1.2, 400)
    for profile, n in (("bump", None), ("plateau", 4)):
        vals = profile_value(profile, r * r, n)
        assert (vals >= 0.0).all() and (vals <= 1.0).all()
        assert (np.diff(vals) <= 1e-15).all()  # nonincreasing in radius
        # rho(x) >= rho(1/2) inside the half ball
        half = profile_value(profile, np.array([0.25]), n)[0]
        assert (vals[r < 0.5] >= half).all()
        assert profile_value(profile, np.array([1.0]), n)[0] == 0.0


@pytest.mark.parametrize("profile,dim,order,n", [
    ("bump", 1, 64, None),
    ("bump", 1, 33, None),
    ("bump", 2, 16, None),
    ("bump", 3, 8, None),
    ("box", 1, 20, None),
    ("plateau", 2, 12, 4),
])
def test_odd_moments_vanish_exactly(profile, dim, order, n):
    k = make_kernel(profile, dim, order, n)
    for axis in range(dim):
        mi = [0] * dim
        mi[axis] = 1
        assert kernel_moment(k, mi) == 0.0
        mi[axis] = 3
        assert kernel_moment(k, mi) == 0.0


def test_even_moments():
    k = make_kernel("box", 1, 64)
    assert kernel_moment(k, [0]) == pytest.approx(2.0, abs=1e-12)
    k2 = make_kernel("bump", 2, 20)
    assert kernel_moment(k2, [0, 0]) == pytest.approx(
        2 * np.pi * quad(lambda r: np.exp(-1 / (1 - r * r)) * r, 0, 1)[0], rel=1e-3)
    with pytest.raises(ValueError, match="degree"):
        kernel_moment(k, [5])


def test_nodes_come_in_exact_negation_pairs():
    for profile, dim, order, n in (("bump", 2, 17, None), ("plateau", 1, 16, 8)):
        k = make_kernel(profile, dim, order, n)
        pc = k.paired_count
        assert np.array_equal(k.nodes[0:pc:2], -k.nodes[1:pc:2])
        tail = k.nodes[pc:]
        assert len(tail) <= 1
        if len(tail):
            assert (tail == 0.0).all()
        assert (k.weights > 0).all()
        assert k.coeffs.sum() == pytest.approx(1.0, abs=1e-12)
        assert support_radius(k) < 1.0


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("n", [2, 4, 8, 16])
def test_plateau_normalization_bound(dim, n):
    # discrete M_rho_n <= 1 / (omega_N (1 - 1/n)^N), 1% quadrature slack
    k = make_kernel("plateau", dim, 48, n)
    bound = 1.0 / (unit_ball_volume(dim) * (1.0 - 1.0 / n) ** dim)
    assert k.m_rho <= bound * 1.01


def test_bump_m_rho_refinement_rate():
    # midpoint rule on the smooth bump: refining q -> 2q moves m_rho < C/q^2
    for q in (8, 16, 32):
        a = make_kernel("bump", 1, q).m_rho
        b = make_kernel("bump", 1, 2 * q).m_rho
        assert abs(a - b) <= 1.0 / q ** 2


def test_make_kernel_validation():
    with pytest.raises(ValueError, match="order"):
        make_kernel("bump", 1, 1)
    with pytest.raises(ValueError, match="dim"):
        make_kernel("bump", 4, 8)
    with pytest.raises(ValueError, match="plateau"):
        make_kernel("plateau", 1, 8)
    with pytest.raises(ValueError, match="profile"):
        make_kernel("gauss", 1, 8)
