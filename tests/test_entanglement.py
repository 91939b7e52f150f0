import numpy as np
import pytest

from oracles import (
    ChannelSnapshot,
    apply_product_channel,
    bell_state,
    concurrence_wootters,
    concurrence_x,
    witness_w,
)

from dotesd.entanglement import BellLabel, concurrence_closed_form

ALL_LABELS = list(BellLabel)


def random_cp_snapshot(rng) -> ChannelSnapshot:
    q = float(rng.uniform(0.0, 0.6))
    mag = float(rng.uniform(0.0, 1.0 - q))
    phase = float(rng.uniform(0, 2 * np.pi))
    return ChannelSnapshot(q=q, phi=mag * np.exp(1j * phase))


class TestBellStates:
    def test_psi_plus_elements(self):
        rho = bell_state(BellLabel.PSI_PLUS)
        expected = np.zeros((4, 4), dtype=complex)
        expected[1, 1] = expected[2, 2] = expected[1, 2] = expected[2, 1] = 0.5
        np.testing.assert_array_equal(rho, expected)

    def test_phi_minus_elements(self):
        rho = bell_state(BellLabel.PHI_MINUS)
        assert rho[0, 0] == rho[3, 3] == 0.5
        assert rho[0, 3] == rho[3, 0] == -0.5

    @pytest.mark.parametrize("label", ALL_LABELS)
    def test_unit_trace_and_purity(self, label):
        rho = bell_state(label)
        assert np.trace(rho) == pytest.approx(1.0)
        assert np.trace(rho @ rho).real == pytest.approx(1.0)


class TestApplyProductChannel:
    def test_identity_snapshots(self):
        rho = bell_state(BellLabel.PSI_MINUS)
        out = apply_product_channel(rho, ChannelSnapshot(0.0, 1.0 + 0j), ChannelSnapshot(0.0, 1.0 + 0j))
        np.testing.assert_array_equal(out, rho)

    def test_psi_plus_identical_dots_algebra(self):
        q, phi = 0.2, 0.6 * np.exp(0.7j)
        snap = ChannelSnapshot(q, phi)
        out = apply_product_channel(bell_state(BellLabel.PSI_PLUS), snap, snap)
        assert out[0, 0] == pytest.approx(q * (1 - q), rel=1e-14)
        assert out[3, 3] == pytest.approx(q * (1 - q), rel=1e-14)
        assert out[1, 1] == pytest.approx((1 - 2 * q * (1 - q)) / 2, rel=1e-14)
        assert out[1, 2] == pytest.approx(abs(phi) ** 2 / 2, rel=1e-14)

    def test_maximally_mixed_is_fixed(self):
        rng = np.random.default_rng(3)
        mixed = np.eye(4, dtype=complex) / 4.0
        for _ in range(20):
            out = apply_product_channel(mixed, random_cp_snapshot(rng), random_cp_snapshot(rng))
            assert np.array_equal(out, mixed)

    def test_marginals_stay_maximally_mixed(self):
        rng = np.random.default_rng(4)
        for label in ALL_LABELS:
            out = apply_product_channel(
                bell_state(label), random_cp_snapshot(rng), random_cp_snapshot(rng)
            )
            r = out.reshape(2, 2, 2, 2)
            marginal_1 = np.einsum("ikjk->ij", r)
            marginal_2 = np.einsum("kikj->ij", r)
            np.testing.assert_allclose(marginal_1, np.eye(2) / 2, atol=1e-12)
            np.testing.assert_allclose(marginal_2, np.eye(2) / 2, atol=1e-12)

    def test_rejects_cp_violation(self):
        with pytest.raises(ValueError):
            apply_product_channel(
                bell_state(BellLabel.PSI_PLUS),
                ChannelSnapshot(0.5, 0.9 + 0j),
                ChannelSnapshot(0.0, 1.0 + 0j),
            )

    def test_bell_diagonality_psi_inputs(self):
        # identical dots keep evolved Psi states exactly Bell diagonal
        rng = np.random.default_rng(9)
        vecs = {
            BellLabel.PSI_PLUS: np.array([0, 1, 1, 0]) / np.sqrt(2),
            BellLabel.PSI_MINUS: np.array([0, 1, -1, 0]) / np.sqrt(2),
            BellLabel.PHI_PLUS: np.array([1, 0, 0, 1]) / np.sqrt(2),
            BellLabel.PHI_MINUS: np.array([1, 0, 0, -1]) / np.sqrt(2),
        }
        basis = np.column_stack([vecs[l] for l in ALL_LABELS])
        for _ in range(10):
            snap = random_cp_snapshot(rng)
            for label in (BellLabel.PSI_PLUS, BellLabel.PSI_MINUS):
                out = apply_product_channel(bell_state(label), snap, snap)
                in_bell = basis.conj().T @ out @ basis
                off = in_bell - np.diag(np.diag(in_bell))
                assert np.abs(off).max() < 1e-10

    def test_bell_diagonality_phi_inputs_up_to_z_rotation(self):
        # evolved Phi coherence rotates at the total Zeeman frequency; it is
        # Bell diagonal after removing that local rotation
        rng = np.random.default_rng(10)
        vecs = {
            BellLabel.PHI_PLUS: np.array([1, 0, 0, 1]) / np.sqrt(2),
            BellLabel.PHI_MINUS: np.array([1, 0, 0, -1]) / np.sqrt(2),
            BellLabel.PSI_PLUS: np.array([0, 1, 1, 0]) / np.sqrt(2),
            BellLabel.PSI_MINUS: np.array([0, 1, -1, 0]) / np.sqrt(2),
        }
        basis = np.column_stack([vecs[l] for l in vecs])
        for _ in range(10):
            snap = random_cp_snapshot(rng)
            out = apply_product_channel(bell_state(BellLabel.PHI_PLUS), snap, snap)
            theta = np.angle(snap.phi)
            rot = np.diag(np.exp(-1j * theta * np.array([0.5, -0.5])))
            r2 = np.kron(rot, rot)
            rotated = r2 @ out @ r2.conj().T
            in_bell = basis.conj().T @ rotated @ basis
            off = in_bell - np.diag(np.diag(in_bell))
            assert np.abs(off).max() < 1e-10


class TestConcurrence:
    @pytest.mark.parametrize("label", ALL_LABELS)
    def test_bell_states_maximally_entangled(self, label):
        assert concurrence_wootters(bell_state(label)) == pytest.approx(1.0, abs=1e-10)
        assert concurrence_x(bell_state(label), label) == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed_separable(self):
        assert concurrence_wootters(np.eye(4) / 4.0) == 0.0

    def test_werner_state(self):
        # p |Psi-><Psi-| + (1-p) I/4 has C = max(0, (3p-1)/2)
        p = 0.5
        rho = p * bell_state(BellLabel.PSI_MINUS) + (1 - p) * np.eye(4) / 4.0
        assert concurrence_wootters(rho) == pytest.approx(0.25, abs=1e-12)
        rho = 0.2 * bell_state(BellLabel.PSI_MINUS) + 0.8 * np.eye(4) / 4.0
        assert concurrence_wootters(rho) == 0.0

    def test_x_formula_boundary(self):
        rho = np.zeros((4, 4), dtype=complex)
        rho[1, 1] = rho[2, 2] = 0.3
        rho[0, 0] = rho[3, 3] = 0.2
        rho[1, 2] = rho[2, 1] = 0.2  # |rho_12| = sqrt(rho_00 rho_33)
        assert concurrence_x(rho, BellLabel.PSI_PLUS) == 0.0

    def test_x_formula_matches_wootters_on_evolved_states(self):
        rng = np.random.default_rng(21)
        for _ in range(300):
            label = ALL_LABELS[int(rng.integers(4))]
            out = apply_product_channel(
                bell_state(label), random_cp_snapshot(rng), random_cp_snapshot(rng)
            )
            assert concurrence_x(out, label) == pytest.approx(
                concurrence_wootters(out), abs=1e-10
            )

    def test_x_formula_refuses_wrong_sparsity(self):
        rho = np.eye(4, dtype=complex) / 4.0
        rho[0, 1] = rho[1, 0] = 0.05
        with pytest.raises(ValueError):
            concurrence_x(rho, BellLabel.PSI_PLUS)

    def test_closed_form_trivial_points(self):
        assert concurrence_closed_form(0.0, 1.0 + 0j, 0.0, 1.0 + 0j) == 1.0
        assert concurrence_closed_form(0.5, 0.0j, 0.5, 0.0j) == 0.0

    def test_closed_form_identical_dots(self):
        q, phi = 0.1, 0.8 * np.exp(0.3j)
        expected = max(0.0, abs(phi) ** 2 - 2 * q * (1 - q))
        assert concurrence_closed_form(q, phi, q, phi) == pytest.approx(expected, rel=1e-14)

    def test_closed_form_matches_full_pipeline(self):
        rng = np.random.default_rng(33)
        for _ in range(300):
            s1, s2 = random_cp_snapshot(rng), random_cp_snapshot(rng)
            label = ALL_LABELS[int(rng.integers(4))]
            out = apply_product_channel(bell_state(label), s1, s2)
            assert concurrence_closed_form(s1.q, s1.phi, s2.q, s2.phi) == pytest.approx(
                concurrence_wootters(out), abs=1e-10
            )

    def test_closed_form_label_independent_via_pipeline(self):
        rng = np.random.default_rng(44)
        for _ in range(20):
            s1, s2 = random_cp_snapshot(rng), random_cp_snapshot(rng)
            values = [
                concurrence_wootters(apply_product_channel(bell_state(l), s1, s2))
                for l in ALL_LABELS
            ]
            assert max(values) - min(values) < 1e-12


class TestWitness:
    @pytest.mark.parametrize("label", ALL_LABELS)
    def test_reference_state(self, label):
        assert witness_w(bell_state(label), label) == pytest.approx(-0.5, abs=1e-14)

    def test_maximally_mixed(self):
        assert witness_w(np.eye(4) / 4.0, BellLabel.PSI_PLUS) == pytest.approx(0.25, abs=1e-14)

    def test_negative_witness_implies_entanglement(self):
        rng = np.random.default_rng(55)
        for _ in range(100):
            s1, s2 = random_cp_snapshot(rng), random_cp_snapshot(rng)
            label = BellLabel.PSI_MINUS
            out = apply_product_channel(bell_state(label), s1, s2)
            if witness_w(out, label) < -1e-12:
                assert concurrence_wootters(out) > 0.0
