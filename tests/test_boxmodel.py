import math
import time

import numpy as np
import pytest

from helpers import dense_channel, multiplicity_by_diagonalization
from oracles import (
    BlockParams,
    ChannelSnapshot,
    apply_snapshot,
    block_amplitudes,
    block_params,
    t2star_uniform,
)

from dotesd import boxmodel
from dotesd.boxmodel import BoxChannel, compute_channel, sector_weights
from dotesd.dephasing import dephasing_factor
from dotesd.experiments import box_equivalent_coupling
from dotesd.material import HBAR_UEV_NS, uniform_couplings

# box bath matched to the default physical dot (A = 83 ueV over 1.5e6 cells)
A_BOX_50 = 83.0 * math.sqrt(50 / 1.5e6)


class TestSectorWeights:
    def test_single_spin(self):
        table = sector_weights(1)
        assert table.two_j.tolist() == [3]
        assert table.weights.tolist() == [0.25]
        assert table.normalization() == pytest.approx(1.0, abs=1e-15)

    def test_two_spins(self):
        # 3/2 x 3/2 = 0 + 1 + 2 + 3, multiplicity one each
        table = sector_weights(2)
        assert table.two_j.tolist() == [0, 2, 4, 6]
        np.testing.assert_allclose(table.weights, 1.0 / 16.0, rtol=0)

    def test_three_spins_against_dense_j_squared(self):
        table = sector_weights(3)
        expected = multiplicity_by_diagonalization(3)
        got = {int(tj): w * 4**3 for tj, w in zip(table.two_j, table.weights)}
        assert set(got) == set(expected)
        for tj, mult in expected.items():
            assert got[tj] == pytest.approx(mult, rel=1e-13)

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 50, 100, 731, 4096])
    def test_normalization_small(self, n):
        assert abs(sector_weights(n).normalization() - 1.0) < 1e-12

    def test_all_weights_nonnegative(self):
        for n in (5, 40, 4096):
            assert np.all(sector_weights(n).weights >= 0)

    def test_parity_and_range(self):
        for n in (4, 5, 60):
            table = sector_weights(n)
            assert np.all((table.two_j - 3 * n) % 2 == 0)
            assert table.two_j.max() == 3 * n

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            sector_weights(0)
        with pytest.raises(ValueError):
            sector_weights(4097)


class TestBlockParams:
    def test_top_state_is_one_dimensional(self):
        p = block_params(6, 6, 0.0, 1.0)
        assert p.is_one_dimensional
        assert p.v is None

    def test_clebsch_factor(self):
        # J=3/2, m=-3/2, alpha=1: V = (1/2) sqrt(15/4 - 3/4) = sqrt(3)/2
        p = block_params(3, -3, 0.0, 1.0)
        assert p.v == pytest.approx(math.sqrt(3.0) / 2.0, rel=1e-15)

    def test_matches_dense_two_level_gap(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            two_j = int(rng.integers(1, 40))
            two_m = int(rng.integers(-two_j, two_j))
            two_m -= (two_m - two_j) % 2
            alpha = float(rng.uniform(0.01, 5.0))
            b = float(rng.uniform(0.0, 0.5))
            p = block_params(two_j, two_m, b, alpha)
            if p.is_one_dimensional:
                continue
            h = np.array([[p.e_up, p.v], [p.v, p.e_down]])
            gap = np.diff(np.linalg.eigvalsh(h))[0]
            assert p.v**2 + (p.e_up - p.e_down) ** 2 / 4 == pytest.approx(
                gap**2 / 4.0, rel=1e-12
            )

    def test_rejects_out_of_range_m(self):
        with pytest.raises(ValueError):
            block_params(4, 6, 0.0, 1.0)
        with pytest.raises(ValueError):
            block_params(4, 3, 0.0, 1.0)  # parity mismatch


class TestBlockAmplitudes:
    def test_identity_at_zero(self):
        p = block_params(5, -3, 0.02, 0.7)
        a, b = block_amplitudes(p, 0.0)
        assert a == 1.0 and b == 0.0

    def test_decoupled_block(self):
        p = BlockParams(e_up=1.3, e_down=-0.4, v=0.0)
        for t in (0.5, 3.0, 17.0):
            a, b = block_amplitudes(p, t)
            assert abs(a) == pytest.approx(1.0, rel=1e-14)
            assert b == 0.0

    def test_unitary(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            two_j = int(rng.integers(1, 20)) * 2 + 1
            two_m = -two_j + 2 * int(rng.integers(0, two_j))
            p = block_params(
                two_j,
                two_m,
                float(rng.uniform(0, 1)),
                float(rng.uniform(0.01, 3)),
            )
            a, b = block_amplitudes(p, float(rng.uniform(0, 50)))
            assert abs(a) ** 2 + abs(b) ** 2 == pytest.approx(1.0, rel=1e-13)


class TestComputeChannel:
    def test_initial_snapshot(self):
        trace = compute_channel(50, A_BOX_50, 0.02, np.linspace(0, 10, 20))
        assert trace.q[0] == 0.0
        assert trace.phi[0] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("b", [0.0, 0.02, 1.0])
    def test_matches_dense_oracle(self, n, b):
        times = np.linspace(0.0, 50.0, 40)
        alpha = 0.25
        trace = compute_channel(n, alpha * n, b, times)
        q_ref, phi_ref = dense_channel([alpha] * n, b, times)
        np.testing.assert_allclose(trace.q, q_ref, atol=1e-10)
        np.testing.assert_allclose(trace.phi, phi_ref, atol=1e-10)

    def test_occupations_frozen_at_high_field(self):
        # composed default dot simulated with 50 spins: leakage < 1e-3 at 1 T
        times = np.linspace(0.0, 100.0, 2000)
        trace = compute_channel(50, A_BOX_50, 1.0, times)
        assert trace.q.max() < 1e-3

    def test_complete_positivity(self):
        for n, b in ((3, 0.0), (7, 0.005), (50, 0.02), (50, 1.0)):
            trace = compute_channel(n, A_BOX_50 if n == 50 else 0.5 * n, b, np.linspace(0, 80, 500))
            assert np.all(np.abs(trace.phi) <= 1.0 - trace.q + 1e-10)

    def test_field_sign_symmetry(self):
        times = np.linspace(0.0, 60.0, 300)
        up = compute_channel(30, 1.0, 0.015, times)
        down = compute_channel(30, 1.0, -0.015, times)
        np.testing.assert_allclose(up.q, down.q, atol=1e-12)
        np.testing.assert_allclose(np.abs(up.phi), np.abs(down.phi), atol=1e-12)

    def test_agrees_with_pure_dephasing_at_high_field(self):
        # above ~3.25 T the flip-flop term is frozen out
        t2 = t2star_uniform(50, A_BOX_50)
        times = np.linspace(0.0, 3.0 * t2, 400)
        deph = dephasing_factor(uniform_couplings(A_BOX_50, 50), times)
        for b in (3.25, 5.0):
            box = compute_channel(50, A_BOX_50, b, times)
            assert np.abs(np.abs(box.phi) - np.abs(deph.phi)).max() < 1e-3

    def test_freeze_out_monotonic_and_quadratic(self):
        times = np.linspace(0.0, 20.0, 8001)
        peaks = []
        for b in (0.1, 0.2, 0.5, 1.0, 2.0):
            peaks.append(compute_channel(50, A_BOX_50, b, times).q.max())
        assert np.all(np.diff(peaks) < 0)
        assert peaks[-1] / peaks[-2] == pytest.approx(0.25, rel=0.10)

    def test_convergence_in_bath_size(self):
        # same physical dot simulated with 50 and 100 spins
        times = np.linspace(0.0, 60.0, 600)
        a100 = 83.0 * math.sqrt(100 / 1.5e6)
        for b in (0.0, 0.02):
            t50 = compute_channel(50, A_BOX_50, b, times)
            t100 = compute_channel(100, a100, b, times)
            assert np.abs(t50.q - t100.q).max() < 0.01
            assert np.abs(np.abs(t50.phi) - np.abs(t100.phi)).max() < 0.01

    def test_rejects_bad_time_grid(self):
        with pytest.raises(ValueError):
            compute_channel(5, 1.0, 0.0, [1.0, 2.0])
        with pytest.raises(ValueError):
            compute_channel(5, 1.0, 0.0, [0.0, 2.0, 2.0])

    def test_matches_scalar_block_assembly(self):
        # vectorized channel vs direct per-block assembly from block_params /
        # block_amplitudes, fully independent code path
        n, a_total, b = 3, 1.2, 0.008
        alpha = a_total / n
        times = np.array([0.7, 5.3, 21.0])
        table = sector_weights(n)
        hbar = HBAR_UEV_NS
        q_ref = np.zeros(len(times))
        phi_ref = np.zeros(len(times), dtype=complex)
        for tj, w in zip(table.two_j, table.weights):
            for i, t in enumerate(times):
                for two_m in range(-tj, tj + 1, 2):
                    a, _ = block_amplitudes(block_params(tj, two_m, b, alpha), t)
                    if two_m < tj:
                        _, bb = block_amplitudes(block_params(tj, two_m, b, alpha), t)
                        q_ref[i] += w * abs(bb) ** 2
                    # stay-down amplitude of |down, J, m> from block (m-2)/2
                    if two_m > -tj:
                        p = block_params(tj, two_m - 2, b, alpha)
                        au, _ = block_amplitudes(p, t)
                        d = np.exp(-1j * (p.e_up + p.e_down) * t / hbar) * np.conj(au)
                    else:
                        e_down_bottom = (
                            0.5 * 0.44 * 57.8838180 * b * (-1.0) + alpha * (tj / 2.0) / 2.0
                        )
                        d = np.exp(-1j * e_down_bottom * t / hbar)
                    phi_ref[i] += w * a * np.conj(d)
        trace = compute_channel(n, a_total, b, times=np.concatenate(([0.0], times)))
        np.testing.assert_allclose(trace.q[1:], q_ref, atol=1e-13)
        np.testing.assert_allclose(trace.phi[1:], phi_ref, atol=1e-13)


class TestLineSpectrum:
    @pytest.mark.parametrize("b", [0.0, 0.02, 1.0])
    def test_grid_path_matches_point_path(self, b):
        channel = BoxChannel(50, A_BOX_50, b)
        times = np.linspace(0.0, 100.0, 2000)
        q, phi = channel.evaluate(times)
        picks = np.array([1, 3, 160, 401, 777, 1024, 1500, 1998, 1999])
        for i in picks:
            q_i, phi_i = channel.evaluate([times[i]])
            assert abs(q_i[0] - q[i]) <= 1e-13
            assert abs(phi_i[0] - phi[i]) <= 1e-13
        q_sub, phi_sub = channel.evaluate(times[picks])
        assert np.abs(q_sub - q[picks]).max() <= 1e-13
        assert np.abs(phi_sub - phi[picks]).max() <= 1e-13

    def test_linspace_grid_takes_factored_path(self, monkeypatch):
        # np.linspace pins its last point to stop, an ulp off t_0 + i dt.
        times = np.linspace(0.0, 100.0, 1200)
        assert not np.array_equal(times, np.arange(1200) * (times[-1] / 1199))
        trig_sums = boxmodel._trig_sums
        rows = []

        def spy(nu, cos_coef, sin_coef, x, y):
            rows.append(len(x))
            return trig_sums(nu, cos_coef, sin_coef, x, y)

        monkeypatch.setattr(boxmodel, "_trig_sums", spy)
        channel = BoxChannel(50, A_BOX_50, 0.02)
        q, phi = channel.evaluate(times)
        picks = np.unique(np.r_[np.random.default_rng(3).choice(1199, 80, replace=False), 1199])
        q_pt, phi_pt = channel.evaluate(times[picks])
        assert rows == [35, 35, len(picks), len(picks)]
        assert np.abs(q_pt - q[picks]).max() <= 1e-13
        assert np.abs(phi_pt - phi[picks]).max() <= 1e-13

    def test_exact_values_at_zero(self):
        channel = BoxChannel(50, A_BOX_50, 0.02)
        for times in ([0.0], np.linspace(0.0, 100.0, 2000)):
            q, phi = channel.evaluate(times)
            assert q[0] == 0.0
            assert phi[0].imag == 0.0
            assert phi[0].real == pytest.approx(1.0, abs=1e-12)


class TestTailCut:
    @pytest.mark.parametrize("n", [50, 200])
    def test_within_bound_of_full_table(self, n, monkeypatch):
        a_box = box_equivalent_coupling(83.0, n, 1_500_000)
        times = np.linspace(0.0, 60.0, 256)
        for b in (0.0, 0.02, 1.0):
            cut = BoxChannel(n, a_box, b)
            with monkeypatch.context() as patch:
                patch.setattr(boxmodel, "_TAIL_BUDGET", 0.0)
                full = BoxChannel(n, a_box, b)
            assert full.truncation_bound == 0.0
            assert 0.0 < cut.truncation_bound <= boxmodel._TAIL_BUDGET
            q_cut, phi_cut = cut.evaluate(times)
            q_full, phi_full = full.evaluate(times)
            bound = 2.0 * cut.truncation_bound + 4e-14
            assert np.abs(q_cut - q_full).max() <= bound
            assert np.abs(phi_cut - phi_full).max() <= bound

    def test_exact_values_at_zero_for_every_size(self):
        for n in range(1, 301):
            a_box = box_equivalent_coupling(83.0, n, 1_500_000)
            q, phi = BoxChannel(n, a_box, 0.02).evaluate([0.0])
            assert q[0] == 0.0, n
            assert phi[0] == 1.0, n

    def test_largest_bath_is_fast_and_completely_positive(self):
        start = time.perf_counter()
        n = boxmodel.MAX_SPINS
        channel = BoxChannel(n, box_equivalent_coupling(83.0, n, 1_500_000), 0.02)
        q, phi = channel.evaluate(np.linspace(0.0, 100.0, 50))
        elapsed = time.perf_counter() - start
        assert np.all(np.isfinite(q)) and np.all(np.isfinite(phi))
        assert np.all(q >= 0.0) and np.all(np.abs(phi) <= 1.0 - q + 1e-10)
        assert elapsed < 5.0


class TestApplySnapshot:
    def test_identity_map(self):
        rho = np.array([[0.7, 0.1 + 0.2j], [0.1 - 0.2j, 0.3]])
        out = apply_snapshot(ChannelSnapshot(0.0, 1.0 + 0.0j), rho)
        np.testing.assert_array_equal(out, rho)

    def test_maximally_mixed_fixed_exactly(self):
        mixed = np.eye(2) / 2.0
        for q, phi in ((0.3, 0.5 + 0.1j), (0.77, 0.0j), (0.011, 0.9j * 0.9)):
            out = apply_snapshot(ChannelSnapshot(q, phi), mixed)
            assert np.array_equal(out, mixed.astype(complex))

    def test_population_transfer(self):
        rho = np.diag([1.0, 0.0]).astype(complex)
        out = apply_snapshot(ChannelSnapshot(0.3, 0.5 + 0.0j), rho)
        np.testing.assert_allclose(np.diag(out).real, [0.7, 0.3], rtol=1e-15)

    def test_rejects_invalid_state(self):
        with pytest.raises(ValueError):
            apply_snapshot(ChannelSnapshot(0.0, 1.0), np.array([[1.0, 0.5], [0.1, 0.0]]))
        with pytest.raises(ValueError):
            apply_snapshot(ChannelSnapshot(0.0, 1.0), np.eye(2))

    def test_snapshot_validation(self):
        with pytest.raises(ValueError):
            ChannelSnapshot(q=0.4, phi=0.8 + 0.0j).validate()
        with pytest.raises(ValueError):
            ChannelSnapshot(q=-0.1, phi=0.0j).validate()
        ChannelSnapshot(q=0.4, phi=0.55j).validate()
