"""Second implementations that only tests use, as oracles for dotesd.

The density-matrix pipeline (Bell states, the product channel on a 4x4
state, the Wootters concurrence of PRL 80, 2245 (1998), the X-state shortcut
and the Bell-fidelity witness), the scalar per-block path of the box
Hamiltonian, single-qubit channel snapshots, the closed forms for T2*, the
Overhauser spread and the high-field t_SD, the pure-dephasing product summed
term by term, and the oscillation metrics of a concurrence trace. Two-qubit
basis ordering: |0> = up,up; |1> = up,down; |2> = down,up; |3> = down,down.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from dotesd.entanglement import BellLabel
from dotesd.material import GAAS, HBAR_UEV_NS, MaterialSpec, electron_larmor_uev


@dataclass(frozen=True)
class ChannelSnapshot:
    """Channel parameters at one time: flip probability and coherence factor."""

    q: float
    phi: complex

    def validate(self, tol: float = 1e-10) -> None:
        if not 0.0 <= self.q <= 1.0:
            raise ValueError(f"flip probability {self.q} outside [0, 1]")
        if abs(self.phi) > 1.0 - self.q + tol:
            raise ValueError(
                f"complete positivity violated: |phi|={abs(self.phi)} > 1-q={1 - self.q}"
            )


def snapshot(trace, i: int) -> ChannelSnapshot:
    """Snapshot of a ChannelTrace at time index i."""
    return ChannelSnapshot(q=float(trace.q[i]), phi=complex(trace.phi[i]))


def apply_snapshot(snapshot: ChannelSnapshot, rho: np.ndarray) -> np.ndarray:
    """Apply the phase-covariant unital channel to a single-qubit state.

    Populations mix with weight q, coherences pick up phi. Written in the
    difference form rho00 + q (rho11 - rho00) so the maximally mixed state is
    a fixed point exactly, not just to rounding.
    """
    rho = np.asarray(rho, dtype=np.complex128)
    if rho.shape != (2, 2):
        raise ValueError("expected a 2x2 density matrix")
    if abs(rho[0, 1] - np.conj(rho[1, 0])) > 1e-10 or abs(rho.trace() - 1.0) > 1e-10:
        raise ValueError("input is not a unit-trace Hermitian matrix")
    q, phi = snapshot.q, snapshot.phi
    out = np.empty((2, 2), dtype=np.complex128)
    out[0, 0] = rho[0, 0] + q * (rho[1, 1] - rho[0, 0])
    out[1, 1] = rho[1, 1] + q * (rho[0, 0] - rho[1, 1])
    out[0, 1] = phi * rho[0, 1]
    out[1, 0] = np.conj(phi) * rho[1, 0]
    return out


_BELL_VECTORS = {
    BellLabel.PSI_PLUS: np.array([0, 1, 1, 0]) / np.sqrt(2),
    BellLabel.PSI_MINUS: np.array([0, 1, -1, 0]) / np.sqrt(2),
    BellLabel.PHI_PLUS: np.array([1, 0, 0, 1]) / np.sqrt(2),
    BellLabel.PHI_MINUS: np.array([1, 0, 0, -1]) / np.sqrt(2),
}

_SIGMA_YY = np.diag([-1.0, 1.0, 1.0, -1.0])[::-1].copy()  # sigma_y (x) sigma_y


def validate_state(rho: np.ndarray, tol: float = 1e-12) -> None:
    rho = np.asarray(rho)
    if rho.shape != (4, 4):
        raise ValueError("expected a 4x4 density matrix")
    if np.abs(rho - rho.conj().T).max() > tol:
        raise ValueError("state is not Hermitian")
    if abs(rho.trace() - 1.0) > tol:
        raise ValueError("state does not have unit trace")
    if np.linalg.eigvalsh(rho).min() < -1e-10:
        raise ValueError("state has a negative eigenvalue")


def bell_state(label: BellLabel) -> np.ndarray:
    """Density matrix of the chosen maximally entangled Bell state."""
    i, j = (1, 2) if label.is_psi else (0, 3)
    sign = 1.0 if label in (BellLabel.PSI_PLUS, BellLabel.PHI_PLUS) else -1.0
    rho = np.zeros((4, 4), dtype=np.complex128)
    rho[i, i] = rho[j, j] = 0.5
    rho[i, j] = rho[j, i] = sign * 0.5
    return rho


def _apply_factor(rho: np.ndarray, snap: ChannelSnapshot, qubit: int) -> np.ndarray:
    """Channel action on one tensor factor of a two-qubit state.

    Population mixing is written in difference form so equal populations are
    fixed exactly; coherence blocks are scaled by phi / conj(phi).
    """
    r = rho.reshape(2, 2, 2, 2)  # indices (i1, i2, j1, j2)
    # bring the acting qubit's bra/ket indices to the front
    r = r.transpose(0, 2, 1, 3) if qubit == 0 else r.transpose(1, 3, 0, 2)
    q, phi = snap.q, snap.phi
    out = np.empty_like(r)
    out[0, 0] = r[0, 0] + q * (r[1, 1] - r[0, 0])
    out[1, 1] = r[1, 1] + q * (r[0, 0] - r[1, 1])
    out[0, 1] = phi * r[0, 1]
    out[1, 0] = np.conj(phi) * r[1, 0]
    out = out.transpose(0, 2, 1, 3) if qubit == 0 else out.transpose(2, 0, 3, 1)
    return out.reshape(4, 4)


def apply_product_channel(
    rho: np.ndarray, snap1: ChannelSnapshot, snap2: ChannelSnapshot
) -> np.ndarray:
    """Evolve a two-qubit state under the tensor product of local channels."""
    rho = np.asarray(rho, dtype=np.complex128)
    validate_state(rho)
    snap1.validate()
    snap2.validate()
    return _apply_factor(_apply_factor(rho, snap1, 0), snap2, 1)


def concurrence_wootters(rho: np.ndarray) -> float:
    """Wootters concurrence max{0, l1 - l2 - l3 - l4} for any two-qubit state.

    The l_i are the decreasing square roots of the eigenvalues of
    rho (sy x sy) rho* (sy x sy).
    """
    rho = np.asarray(rho, dtype=np.complex128)
    spun = _SIGMA_YY @ rho.conj() @ _SIGMA_YY
    eigs = np.linalg.eigvals(rho @ spun).real
    lam = np.sqrt(np.maximum(eigs, 0.0))
    lam[::-1].sort()
    return max(0.0, lam[0] - lam[1] - lam[2] - lam[3])


def concurrence_x(rho: np.ndarray, label: BellLabel, tol: float = 1e-10) -> float:
    """X-state shortcut C = 2 max{0, |rho_ij| - sqrt(rho_kk rho_ll)} for evolved
    Bell states, with (i, j) = (1, 2) for Psi labels and (0, 3) for Phi labels.

    Refuses states whose off-diagonal support extends beyond the single
    coherence pair of the given label.
    """
    rho = np.asarray(rho, dtype=np.complex128)
    i, j = (1, 2) if label.is_psi else (0, 3)
    k, l = (0, 3) if label.is_psi else (1, 2)
    off = rho - np.diag(np.diag(rho))
    off[i, j] = off[j, i] = 0.0
    if np.abs(off).max() > tol:
        raise ValueError("state does not have the evolved-Bell sparsity pattern")
    return 2.0 * max(0.0, abs(rho[i, j]) - np.sqrt(abs(rho[k, k] * rho[l, l])))


def witness_w(rho: np.ndarray, label: BellLabel) -> float:
    """Entanglement witness W = 1/2 - <Bell|rho|Bell>.

    Nonnegative W certifies separability for Bell-diagonal states, so its
    zero crossing marks the sudden death of entanglement.
    """
    vec = _BELL_VECTORS[label]
    fidelity = np.real(vec.conj() @ np.asarray(rho) @ vec)
    return 0.5 - float(fidelity)


@dataclass(frozen=True)
class BlockParams:
    """One conserved block of the box Hamiltonian.

    Basis {|up, J, m>, |down, J, m+1>}; e_down and v are None for the
    one-dimensional block at m = J.
    """

    e_up: float
    e_down: float | None = None
    v: float | None = None

    @property
    def is_one_dimensional(self) -> bool:
        return self.e_down is None


def block_params(
    two_j: int,
    two_m: int,
    b_field_t: float,
    alpha_uev: float,
    material: MaterialSpec = GAAS,
) -> BlockParams:
    """Block energies and flip-flop element for sector (J, m)."""
    if abs(two_m) > two_j:
        raise ValueError(f"twoM={two_m} outside [-{two_j}, {two_j}]")
    if (two_j - two_m) % 2 != 0:
        raise ValueError("twoM must have the parity of twoJ")
    omega_e = electron_larmor_uev(b_field_t, material)
    j = two_j / 2.0
    m = two_m / 2.0
    e_up = omega_e / 2.0 + alpha_uev * m / 2.0
    if two_m == two_j:
        return BlockParams(e_up=e_up)
    e_down = -omega_e / 2.0 - alpha_uev * (m + 1.0) / 2.0
    v = (alpha_uev / 2.0) * math.sqrt(j * (j + 1.0) - m * (m + 1.0))
    return BlockParams(e_up=e_up, e_down=e_down, v=v)


def block_amplitudes(params: BlockParams, t_ns: float) -> tuple[complex, complex]:
    """Stay-up and transfer amplitudes (a, b) of a block at time t.

    Closed Rabi form: with Ebar = (E_up + E_down)/2, Delta = (E_up - E_down)/2
    and Omega = sqrt(Delta^2 + V^2)/hbar,

        a = exp(-i Ebar t/hbar) (cos Omega t - i Delta/sqrt(...) sin Omega t)
        b = -i V/sqrt(...) exp(-i Ebar t/hbar) sin Omega t
    """
    hbar = HBAR_UEV_NS
    if params.is_one_dimensional:
        return complex(np.exp(-1j * params.e_up * t_ns / hbar)), 0.0 + 0.0j
    ebar = 0.5 * (params.e_up + params.e_down)
    delta = 0.5 * (params.e_up - params.e_down)
    s = math.hypot(delta, params.v)
    phase = np.exp(-1j * ebar * t_ns / hbar)
    if s == 0.0:
        return complex(phase), 0.0 + 0.0j
    omega_t = s * t_ns / hbar
    a = phase * (math.cos(omega_t) - 1j * (delta / s) * math.sin(omega_t))
    b = -1j * (params.v / s) * phase * math.sin(omega_t)
    return complex(a), complex(b)


def t2star_uniform(n_nuclei: float, a_total_uev: float) -> float:
    """Closed form sqrt(8/5) sqrt(N) hbar / A for uniform spin-3/2 couplings."""
    return math.sqrt(8.0 / 5.0) * math.sqrt(n_nuclei) * HBAR_UEV_NS / a_total_uev


def dephasing_fsum(a_k, times) -> np.ndarray:
    """prod_k cos(x_k) cos(x_k/2), x_k = A_k t/hbar, by a correctly rounded log-sum.

    Each factor's log is log1p(-2 sin^2(x/2)) + log1p(-2 sin^2(x/4)) for
    |x| < 1, which keeps the digits that 1 - f loses, and
    log|cos x| + log|cos(x/2)| elsewhere. math.fsum adds the logs of each
    time, so the only rounding left is per factor. Odd multiplicities of
    negative factors set the sign.
    """
    values, counts = np.unique(np.asarray(a_k, dtype=np.float64), return_counts=True)
    odd = counts % 2 == 1
    phi = np.empty(len(times))
    for i, t in enumerate(np.asarray(times, dtype=np.float64)):
        x = t * values / HBAR_UEV_NS
        small = np.abs(x) < 1.0
        logs = np.empty(len(x))
        xs, xl = x[small], x[~small]
        logs[small] = np.log1p(-2.0 * np.sin(0.5 * xs) ** 2) + np.log1p(
            -2.0 * np.sin(0.25 * xs) ** 2
        )
        with np.errstate(divide="ignore"):
            logs[~small] = np.log(np.abs(np.cos(xl))) + np.log(np.abs(np.cos(0.5 * xl)))
        negative = np.count_nonzero((np.cos(x) * np.cos(0.5 * x) < 0) & odd) % 2 == 1
        phi[i] = (-1.0 if negative else 1.0) * math.exp(math.fsum((counts * logs).tolist()))
    return phi


def sigma_from(n_nuclei: float, a_total_uev: float) -> float:
    """Overhauser-field spread sigma (1/ns): sigma^2 = I(I+1)/3 A^2/(N hbar^2).

    For spin 3/2 this is 5/4 A^2/(N hbar^2), i.e. sigma = sqrt(2)/T2*.
    """
    if n_nuclei < 1:
        raise ValueError("n_nuclei must be at least 1")
    return math.sqrt(1.25 * a_total_uev**2 / n_nuclei) / HBAR_UEV_NS


def tsd_estimate_high_field(
    b_field_t: float, sigma_per_ns: float, material: MaterialSpec = GAAS
) -> float:
    """High-field estimate t_SD ~ sqrt(2 ln(omega/sigma))/sigma.

    omega is the electron Zeeman angular frequency |g| mu_B B / hbar; the
    estimate balances the Gaussian coherence decay against occupation
    oscillations of relative size (sigma/omega)^2.
    """
    omega = abs(electron_larmor_uev(b_field_t, material)) / HBAR_UEV_NS
    if omega <= sigma_per_ns:
        raise ValueError("estimate undefined: Zeeman frequency must exceed sigma")
    return math.sqrt(2.0 * math.log(omega / sigma_per_ns)) / sigma_per_ns


@dataclass(frozen=True)
class OscillationMetrics:
    n_maxima: int
    amplitude: float


def oscillation_metrics(concurrence) -> OscillationMetrics:
    """Count strict interior local maxima and measure the superimposed
    oscillation amplitude against the running-maximum-from-the-right envelope."""
    c = np.asarray(concurrence, dtype=np.float64)
    if len(c) < 3:
        return OscillationMetrics(0, 0.0)
    interior = (c[1:-1] > c[:-2]) & (c[1:-1] > c[2:])
    envelope = np.maximum.accumulate(c[::-1])[::-1]
    return OscillationMetrics(
        n_maxima=int(np.count_nonzero(interior)),
        amplitude=float(np.max(envelope - c)),
    )
