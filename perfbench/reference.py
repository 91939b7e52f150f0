"""Reference computations for the benchmark checks, independent of dotesd.

Nothing here imports the package under test. The box channel is rebuilt from
exact integer irrep multiplicities and a numerical 2x2 eigendecomposition of
every block; the pure-dephasing factor is a direct product over couplings
whose log-magnitudes are summed exactly with math.fsum. Both are meant for a
handful of sample times and run only in the checks, never while timing.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

HBAR_UEV_NS = 0.6582119569
BOHR_MAGNETON_UEV_PER_T = 57.8838180
G_FACTOR = -0.44
# GaAs isotope table (A0 in ueV, abundance): Ga69, Ga71 on one sublattice,
# As75 on the other.
GAAS_ISOTOPES = ((36.0, 0.604), (46.0, 0.396), (43.0, 1.0))


def gaas_a_total_uev() -> float:
    """Abundance-weighted hyperfine constant of one GaAs unit cell."""
    return math.fsum(a0 * p for a0, p in GAAS_ISOTOPES)


@lru_cache(maxsize=None)
def multiplicities(n_spins: int) -> dict[int, int]:
    """Exact n(N, J) keyed by 2J, from the total-projection state count.

    The number of product states with total projection M is the coefficient
    of (1 + x + x^2 + x^3)^N; each irrep J contributes one state to every
    M <= J, so n(N, J) = c(M = J) - c(M = J + 1).
    """
    coeff = [1]
    for _ in range(n_spins):
        nxt = [0] * (len(coeff) + 3)
        for k, c in enumerate(coeff):
            nxt[k] += c
            nxt[k + 1] += c
            nxt[k + 2] += c
            nxt[k + 3] += c
        coeff = nxt
    coeff.append(0)
    out = {}
    for two_j in range(3 * n_spins % 2, 3 * n_spins + 1, 2):
        k = (two_j + 3 * n_spins) // 2
        n = coeff[k] - coeff[k + 1]
        if n:
            out[two_j] = n
    return out


def block_count(n_spins: int) -> int:
    """Number of two-level blocks: 2J per populated sector."""
    return sum(multiplicities(n_spins))


def box_coupling_uev(a_total_uev: float, n_spins: int, n_cells: int) -> float:
    """Box-bath total coupling with the physical dot's Overhauser spread."""
    return a_total_uev * math.sqrt(n_spins / n_cells)


class ReferenceChannel:
    """Exact (q, phi) of one box-bath dot at one field, from block eigenvectors."""

    def __init__(self, n_spins: int, a_box_uev: float, b_field_t: float):
        alpha = a_box_uev / n_spins
        omega_e = -G_FACTOR * BOHR_MAGNETON_UEV_PER_T * b_field_t
        sectors = sorted(multiplicities(n_spins).items())
        self.blocks = blocks = sum(two_j for two_j, _ in sectors)
        four_n = 4**n_spins
        two_j_b, two_m_b, w_b = [], [], []
        up_index, down_index, w_state = [], [], []
        offset = 0
        # Amplitude pools hold the block amplitudes first, then one lone
        # amplitude per sector. Up state m sits in block m (m < J) or is the
        # lone |up, J, J>; down state m sits in block m - 1 (m > -J) or is the
        # lone |down, J, -J>.
        for sector, (two_j, n) in enumerate(sectors):
            w = n / four_n  # correctly rounded quotient of exact integers
            for i in range(two_j + 1):
                up_index.append(offset + i if i < two_j else blocks + sector)
                down_index.append(offset + i - 1 if i > 0 else blocks + sector)
                w_state.append(w)
            for i in range(two_j):
                two_j_b.append(two_j)
                two_m_b.append(-two_j + 2 * i)
                w_b.append(w)
            offset += two_j
        self._up = np.array(up_index, dtype=np.intp)
        self._down = np.array(down_index, dtype=np.intp)
        self._w_state = np.array(w_state)
        self._w_block = np.array(w_b)
        two_j_s = np.array([two_j for two_j, _ in sectors], dtype=np.float64)
        self._top = omega_e / 2.0 + alpha * two_j_s / 4.0
        self._bottom = -omega_e / 2.0 + alpha * two_j_s / 4.0

        j = np.array(two_j_b) / 2.0
        m = np.array(two_m_b) / 2.0
        ham = np.empty((blocks, 2, 2))
        ham[:, 0, 0] = omega_e / 2.0 + alpha * m / 2.0
        ham[:, 1, 1] = -omega_e / 2.0 - alpha * (m + 1.0) / 2.0
        ham[:, 0, 1] = ham[:, 1, 0] = (alpha / 2.0) * np.sqrt(j * (j + 1.0) - m * (m + 1.0))
        self._lam, self._vec = np.linalg.eigh(ham)

    def at(self, t_ns: float) -> tuple[float, complex]:
        """(q, phi) at one time."""
        phase = np.exp(-1j * self._lam * (t_ns / HBAR_UEV_NS))
        u = np.einsum("bik,bk,bjk->bij", self._vec, phase, self._vec)
        q = math.fsum((self._w_block * np.abs(u[:, 1, 0]) ** 2).tolist())
        up = np.concatenate((u[:, 0, 0], np.exp(-1j * self._top * (t_ns / HBAR_UEV_NS))))
        down = np.concatenate((u[:, 1, 1], np.exp(-1j * self._bottom * (t_ns / HBAR_UEV_NS))))
        terms = self._w_state * up[self._up] * np.conj(down[self._down])
        phi = complex(math.fsum(terms.real.tolist()), math.fsum(terms.imag.tolist()))
        return q, phi


def concurrence(q1: float, phi1: complex, q2: float, phi2: complex) -> float:
    """Wootters concurrence of an evolved Bell state under local channels."""
    return max(0.0, abs(phi1) * abs(phi2) - (q1 * (1.0 - q2) + q2 * (1.0 - q1)))


def witness(q1: float, phi1: complex, q2: float, phi2: complex, psi: bool) -> float:
    """W = 1/2 - Bell fidelity; Psi labels see phi1 conj(phi2), Phi labels phi1 phi2."""
    coh = (phi1 * phi2.conjugate()).real if psi else (phi1 * phi2).real
    return 0.5 * (q1 * (1.0 - q2) + q2 * (1.0 - q1) - coh)


def dephasing_abs(a_k: np.ndarray, t_ns: float) -> float:
    """|phi(t)| = prod_k |(cos(A_k t / 2 hbar) + cos(3 A_k t / 2 hbar)) / 2|."""
    x = np.asarray(a_k, dtype=np.float64) * t_ns / HBAR_UEV_NS
    f = 0.5 * (np.cos(0.5 * x) + np.cos(1.5 * x))
    return math.exp(math.fsum(np.log(np.abs(f)).tolist()))


def t2star_gaussian(a_k: np.ndarray) -> float:
    """Frozen-Overhauser T2* = sqrt(8/5) hbar / sqrt(sum A_k^2) for spin 3/2."""
    a = np.asarray(a_k, dtype=np.float64)
    return math.sqrt(8.0 / 5.0) * HBAR_UEV_NS / math.sqrt(math.fsum((a * a).tolist()))
