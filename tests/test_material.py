import math

import numpy as np
import pytest

from dotesd.material import (
    GAAS,
    DotGeometry,
    IsotopeSpec,
    MaterialSpec,
    electron_larmor_uev,
    generate_couplings,
    uniform_couplings,
)


def zeeman_splitting(b_field_t):
    """Electron Zeeman splitting |g| mu_B B in ueV."""
    return abs(electron_larmor_uev(b_field_t))


class TestZeemanSplitting:
    def test_one_tesla(self):
        # |g| mu_B = 0.44 * 57.8838180, the 25.5 ueV/T splitting
        assert zeeman_splitting(1.0) == pytest.approx(25.468880, abs=1e-5)
        assert round(zeeman_splitting(1.0), 1) == 25.5

    def test_zero_field(self):
        assert zeeman_splitting(0.0) == 0.0

    def test_linear(self):
        assert zeeman_splitting(2.0) == pytest.approx(2.0 * zeeman_splitting(1.0), rel=1e-15)
        assert zeeman_splitting(2.0) == pytest.approx(50.94, abs=0.005)


class TestUniformCouplings:
    def test_box_defaults(self):
        cs = uniform_couplings(83.0, 50)
        assert len(cs.a_k) == 50
        np.testing.assert_allclose(cs.a_k, 1.66, rtol=1e-15)

    def test_single_nucleus(self):
        cs = uniform_couplings(83.0, 1)
        assert cs.a_k.tolist() == [83.0]

    def test_sum_is_total(self):
        cs = uniform_couplings(83.0, 50)
        assert cs.a_total == 83.0
        assert math.fsum(cs.a_k) == pytest.approx(83.0, rel=1e-14)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            uniform_couplings(83.0, 0)
        with pytest.raises(ValueError):
            uniform_couplings(-1.0, 5)


class TestMaterialSpec:
    def test_gaas_cell_average(self):
        # 0.604*36 + 0.396*46 + 43 ueV per cell, within 0.1 ueV of A = 83
        assert GAAS.mean_a0_per_cell() == pytest.approx(82.96, abs=1e-10)
        assert abs(GAAS.mean_a0_per_cell() - 83.0) < 0.1

    def test_abundances_must_close(self):
        with pytest.raises(ValueError):
            MaterialSpec(
                isotopes=(IsotopeSpec("Ga69", 36.0, 0.7, "Ga"),),
                cell_volume_nm3=0.0451,
                g_factor=-0.44,
            )


class TestGenerateCouplings:
    def test_default_dot_total(self):
        geom = DotGeometry(l_perp_nm=20.0, l_z_nm=2.0, n_cells=1_500_000, rng_seed=7)
        cs = generate_couplings(GAAS, geom)
        assert len(cs.a_k) == 2 * geom.n_cells
        assert cs.a_total == pytest.approx(82.96, abs=0.1)
        assert np.all(cs.a_k > 0)

    def test_single_cell(self):
        # one cell forces unit weight: A_Ga + A_As is 36+43 or 46+43
        totals = set()
        for seed in range(8):
            geom = DotGeometry(l_perp_nm=20.0, l_z_nm=2.0, n_cells=1, rng_seed=seed)
            cs = generate_couplings(GAAS, geom)
            totals.add(round(float(cs.a_k.sum()), 9))
        assert totals <= {79.0, 89.0}

    def test_seed_changes_isotopes_not_positions(self):
        geom_a = DotGeometry(20.0, 2.0, 10_000, rng_seed=1)
        geom_b = DotGeometry(20.0, 2.0, 10_000, rng_seed=2)
        cs_a = generate_couplings(GAAS, geom_a)
        cs_b = generate_couplings(GAAS, geom_b)
        # As couplings depend only on geometry; Ga isotope draws differ.
        # GaAs lists the Ga sublattice first, so As is the second block.
        as_a = cs_a.a_k[geom_a.n_cells :]
        as_b = cs_b.a_k[geom_b.n_cells :]
        np.testing.assert_array_equal(as_a, as_b)
        assert abs(cs_a.a_total - cs_b.a_total) < 0.5

    def test_deterministic(self):
        geom = DotGeometry(20.0, 2.0, 5_000, rng_seed=3)
        cs_a = generate_couplings(GAAS, geom)
        cs_b = generate_couplings(GAAS, geom)
        np.testing.assert_array_equal(cs_a.a_k, cs_b.a_k)
        assert cs_a.a_total == cs_b.a_total

    def test_discrete_normalization(self):
        geom = DotGeometry(20.0, 2.0, 20_000, rng_seed=0)
        cs = generate_couplings(GAAS, geom)
        # sum over one sublattice of v0 |Psi|^2 = sum(A_k / A0_k) = 1
        weights = cs.a_k[geom.n_cells :] / 43.0  # the As75 block
        assert math.fsum(weights) == pytest.approx(1.0, abs=1e-12)

    def test_monotone_decay_with_distance(self):
        # output is ordered by envelope weight, so per-sublattice couplings
        # decay monotonically
        geom = DotGeometry(20.0, 2.0, 3_000, rng_seed=0)
        cs = generate_couplings(GAAS, geom)
        as_k = cs.a_k[geom.n_cells :]
        assert np.all(np.diff(as_k) <= 1e-18)

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            DotGeometry(l_perp_nm=-1.0, l_z_nm=2.0, n_cells=10)
        with pytest.raises(ValueError):
            DotGeometry(l_perp_nm=20.0, l_z_nm=2.0, n_cells=0)
