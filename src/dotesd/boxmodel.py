"""Exact single-qubit decoherence channel for the uniform-coupling bath.

An electron spin coupled uniformly (A_k = alpha = A/N) to N spin-3/2 nuclei
in the fully mixed state conserves the total nuclear spin J, so the dynamics
splits into two-level blocks {|up, J, m>, |down, J, m+1>}. The channel is
phase covariant and unital; it is fully described by a flip probability q(t)
and a complex coherence factor phi(t):

    q(t)   = sum_J w(J) sum_{m=-J}^{J-1} |b_Jm(t)|^2
    phi(t) = sum_J w(J) sum_{m=-J}^{J}   a_Jm(t) conj(d_Jm(t))

where a, b are the stay-up and transfer amplitudes of the block containing
|up, J, m> and d is the stay-down amplitude of |down, J, m>. Weights
w(J) = n(N, J)/4^N count irrep multiplicities per (J, m) basis state.

Every block oscillates at a single Rabi frequency, so q and phi are sums of
cosines and sines over a fixed table of lines (BoxChannel). On a uniform
time grid the exponentials factor over a sqrt(M) x sqrt(M) split of the
grid, and the sum over lines is a fixed-order contraction that never goes
through BLAS: results are bitwise independent of BLAS threads and workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .material import GAAS, HBAR_UEV_NS, MaterialSpec, electron_larmor_uev

# Largest box bath. The full line table has O(N^2) lines, but the tail cut
# keeps about 100 N of them (about 4e5 at N = 4,096).
MAX_SPINS = 4096

# Total sector mass sum w(J)(2J+1) of the top-J sectors that BoxChannel
# leaves out of its line table; q and phi then move by at most twice the
# mass actually dropped (BoxChannel.truncation_bound).
_TAIL_BUDGET = 1e-16

# (x rows + y rows) x lines per contraction step of _trig_sums; keeps its
# temporaries to tens of MB for any bath size and any number of times.
_CHUNK_ELEMENTS = 1 << 18

# Times within this many ulps of t_0 + i dt count as a uniform grid.
_GRID_ULPS = 4


@dataclass
class SectorTable:
    """Total-spin sectors of N spin-3/2 nuclei.

    weights[i] is the probability n(N, J)/4^N carried by each (J, m) basis
    state of the sector two_j[i]; sum over sectors of weight*(2J+1) is 1.
    """

    n_spins: int
    two_j: np.ndarray
    weights: np.ndarray

    def normalization(self) -> float:
        return float(math.fsum(self.weights * (self.two_j + 1)))


def _weights_recursion(n_spins: int) -> np.ndarray:
    """Normalized multiplicities w(J) = n(N, J)/4^N indexed by twoJ.

    Standard angular-momentum addition: n(N, J) = sum over the J' with
    J in J' x 3/2, carried directly on w = n/4^N (one division by 4 per
    added spin) so no overflow occurs.
    """
    w = np.zeros(4)
    w[3] = 0.25
    for n in range(2, n_spins + 1):
        size = 3 * n + 1
        pad = np.zeros(size + 6)
        pad[3 : 3 + len(w)] = w
        nxt = (pad[0:size] + pad[2 : size + 2] + pad[4 : size + 4] + pad[6 : size + 6]) / 4.0
        # Triangle rule J >= |J' - 3/2| forbids two of the shifted gathers:
        # twoJ=0 from twoJ'=1 and twoJ=1 from twoJ'=0.
        if n % 2 == 0:
            nxt[0] -= pad[4] / 4.0
        else:
            nxt[1] -= pad[3] / 4.0
        w = nxt
    return w


def sector_weights(n_spins: int) -> SectorTable:
    """Sector decomposition of N spin-3/2 nuclei, zero-weight sectors dropped."""
    if not 1 <= n_spins <= MAX_SPINS:
        raise ValueError(f"n_spins must be in [1, {MAX_SPINS}]")
    w = _weights_recursion(n_spins)
    two_j = np.arange(3 * n_spins % 2, 3 * n_spins + 1, 2)
    keep = w[two_j] > 0.0
    return SectorTable(n_spins=n_spins, two_j=two_j[keep], weights=w[two_j][keep])


@dataclass
class ChannelTrace:
    times: np.ndarray
    q: np.ndarray
    phi: np.ndarray

    def __post_init__(self):
        if self.times[0] != 0.0 or np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing from t=0")


def _expm1i(theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of exp(i theta) - 1, both exactly 0 at theta = 0.

    The real part is written as -2 sin^2(theta/2) so it keeps full relative
    precision for small theta instead of cancelling in cos(theta) - 1.
    """
    half = np.sin(0.5 * theta)
    return -2.0 * half * half, np.sin(theta)


def _trig_sums(nu, cos_coef, sin_coef, x, y) -> tuple[np.ndarray, np.ndarray | None]:
    """Cosine and sine series over the lines nu_k on the times x_i + y_j.

    Returns C[i, j] = sum_k cos_coef_k (cos(nu_k t) - 1) and, unless
    sin_coef is None, S[i, j] = sum_k sin_coef_k sin(nu_k t).

    With E = exp(i nu x) - 1 and F = exp(i nu y) - 1, exp(i nu t) - 1 is
    E F + E + F, so

        cos(nu t) - 1 = (Re E Re F - Im E Im F) + Re E + Re F
        sin(nu t)     = (Re E Im F + Im E Re F) + Im E + Im F.

    Over the columns [k | k'] (each line twice) that is one contraction of
    the rows [a Re E | -a Im E], [a | 0], [b Im E | b Re E], [0 | b] with the
    rows [Re F | Im F], [1 | 0], so the exponentials are needed on x and on
    y only, not on every x_i + y_j. C and S are exactly 0 where x_i = y_j = 0.

    The contraction is einsum without path optimization: numpy's own loops,
    never BLAS, so the summation order and every bit of the result are
    independent of the BLAS thread count. Lines are taken in chunks whose
    size depends only on len(x) + len(y), which bounds the temporaries.
    """
    nx, ny = len(x), len(y)
    rows = nx + 1 if sin_coef is None else 2 * (nx + 1)
    acc = np.zeros((rows, ny + 1))
    chunk = max(1, _CHUNK_ELEMENTS // (nx + ny))
    for lo in range(0, len(nu), chunk):
        part = slice(lo, lo + chunk)
        a = cos_coef[part]
        k = len(a)
        e_re, e_im = _expm1i(np.outer(x, nu[part]))
        f_re, f_im = _expm1i(np.outer(y, nu[part]))
        lhs = np.zeros((rows, 2 * k))
        np.multiply(a, e_re, out=lhs[:nx, :k])
        np.multiply(-a, e_im, out=lhs[:nx, k:])
        lhs[nx, :k] = a
        if sin_coef is not None:
            b = sin_coef[part]
            np.multiply(b, e_im, out=lhs[nx + 1 : -1, :k])
            np.multiply(b, e_re, out=lhs[nx + 1 : -1, k:])
            lhs[-1, k:] = b
        rhs = np.zeros((ny + 1, 2 * k))
        rhs[:ny, :k] = f_re
        rhs[:ny, k:] = f_im
        rhs[ny, :k] = 1.0
        acc += np.einsum("ik,jk->ij", lhs, rhs)

    def fold(block):
        return block[:-1, :-1] + block[:-1, -1:] + block[-1:, :-1]

    return fold(acc[: nx + 1]), None if sin_coef is None else fold(acc[nx + 1 :])


class BoxChannel:
    """Line spectrum of one dot's channel; evaluates (q, phi) on any times.

    Each two-level block evolves with one Rabi frequency Omega: its amplitude
    u = cos(Omega t) - i d sin(Omega t), d = Delta/sqrt(Delta^2 + V^2), is
    ((1 - d)/2) e^{i Omega t} + ((1 + d)/2) e^{-i Omega t}. Both channel
    parameters are therefore sums over lines nu_k with real amplitudes:

        q(t)   = sum_k g_k (cos(nu_k t) - 1),   nu = 2 Omega, g = -w (V/s)^2/2
        phi(t) = sum_k a_k cos(nu_k t) + i sum_k b_k sin(nu_k t)

    The phi lines are the interior products u_m u_{m-1} (the block center
    energy is -alpha/4 for every two-dimensional block, so only the lines
    +-(Omega_m + Omega_{m-1}) and +-(Omega_m - Omega_{m-1}) remain, each
    +- pair merged into one cosine and one sine amplitude), the two lines of
    each sector edge (a block amplitude times the phase of the
    one-dimensional state at m = +-J) and the J = 0 line. The table is built
    once, in a fixed order, at construction.

    The sector masses w(J)(2J+1) fall off like a Gaussian in J, so the table
    leaves out the top-J sectors whose masses sum to at most _TAIL_BUDGET;
    truncation_bound is the mass actually dropped. Every block amplitude has
    modulus at most 1, so a dropped sector moves q and phi by at most twice
    its mass: both stay within 2 truncation_bound of the full table. The
    kept lines grow about linearly in N, the full table as N^2.

    The lines' cos amplitudes sum to the kept mass, 1 - truncation_bound up
    to rounding, and phi is evaluated as 1 + sum_k a_k (cos(nu_k t) - 1) +
    i sum_k b_k sin(nu_k t), so phi(0) = 1 and q(0) = 0 exactly for any N.

    A uniform grid t_i = t_0 + i dt (to within a few ulps, which admits
    np.linspace and its exact endpoint) is evaluated as t = x_a + y_b with
    x_a = t_0 + a L dt, y_b = b dt and L = ceil(sqrt(M)), so each line needs
    about 2 sqrt(M) exponentials instead of M; any other times use
    x = times, y = 0. _trig_sums does the fixed-order contraction.
    """

    def __init__(
        self, n_spins: int, a_total_uev: float, b_field_t: float, material: MaterialSpec = GAAS
    ):
        self.n_spins = n_spins
        self.a_total_uev = a_total_uev
        self.b_field_t = b_field_t
        alpha = a_total_uev / n_spins
        omega_e = electron_larmor_uev(b_field_t, material)
        full = sector_weights(n_spins)
        # tail[i]: mass of sector i and of every sector above it (0 past the
        # top), summed from the top, smallest terms first. The sectors whose
        # tail is within the budget are dropped before any per-block array
        # exists.
        tail = np.append(np.cumsum((full.weights * (full.two_j + 1))[::-1])[::-1], 0.0)
        kept = int(np.count_nonzero(tail > _TAIL_BUDGET))
        self.truncation_bound = float(tail[kept])
        table = SectorTable(n_spins, full.two_j[:kept], full.weights[:kept])

        # Flattened 2-dim blocks, ascending (J, block m = -J .. J-1).
        two_j = np.repeat(table.two_j, table.two_j)
        w = np.repeat(table.weights, table.two_j)
        offs = np.arange(len(two_j)) - np.repeat(np.cumsum(table.two_j) - table.two_j, table.two_j)
        j = two_j / 2.0
        mb = offs - j
        delta = omega_e / 2.0 + alpha * (2.0 * mb + 1.0) / 4.0
        v = (alpha / 2.0) * np.sqrt(j * (j + 1.0) - mb * (mb + 1.0))
        s = np.hypot(delta, v)
        omega = s / HBAR_UEV_NS
        d = delta / s

        self._q_nu = 2.0 * omega
        self._q_cos = -0.5 * w * (v / s) ** 2

        # Interior products: block hi (m) and its predecessor lo (m - 1).
        hi = np.flatnonzero(offs > 0)
        lo = hi - 1
        w_in, d_hi, d_lo = w[hi], d[hi], d[lo]
        # Edges: the bottom block times e^{+i beta t}, the top block times
        # e^{-i tau t}; each of their lines has equal cos and sin amplitudes.
        bottom = offs == 0
        top = offs == two_j - 1
        edge = alpha * j / 2.0 + alpha / 4.0
        beta = (-omega_e / 2.0 + edge[bottom]) / HBAR_UEV_NS
        tau = (omega_e / 2.0 + edge[top]) / HBAR_UEV_NS
        zero = table.two_j == 0
        edge_amp = np.concatenate(
            (
                w[bottom] * (1.0 - d[bottom]) / 2.0,
                w[bottom] * (1.0 + d[bottom]) / 2.0,
                w[top] * (1.0 - d[top]) / 2.0,
                w[top] * (1.0 + d[top]) / 2.0,
                table.weights[zero],
            )
        )
        self._phi_nu = np.concatenate(
            (
                omega[hi] + omega[lo],
                omega[hi] - omega[lo],
                beta + omega[bottom],
                beta - omega[bottom],
                omega[top] - tau,
                -omega[top] - tau,
                np.full(int(zero.sum()), -omega_e / HBAR_UEV_NS),
            )
        )
        self._phi_cos = np.concatenate(
            (w_in * (1.0 + d_hi * d_lo) / 2.0, w_in * (1.0 - d_hi * d_lo) / 2.0, edge_amp)
        )
        self._phi_sin = np.concatenate(
            (-w_in * (d_hi + d_lo) / 2.0, w_in * (d_lo - d_hi) / 2.0, edge_amp)
        )

    def evaluate(self, times) -> tuple[np.ndarray, np.ndarray]:
        """(q, phi) arrays on the given times (ns)."""
        times = np.atleast_1d(np.asarray(times, dtype=np.float64))
        size = len(times)
        x, y = times, np.zeros(1)
        if size > 2:
            step = (times[-1] - times[0]) / (size - 1)
            ulps = _GRID_ULPS * np.spacing(np.max(np.abs(times)))
            if np.all(np.abs(times - (times[0] + np.arange(size) * step)) <= ulps):
                cols = math.isqrt(size - 1) + 1
                x = times[0] + np.arange(0, size, cols) * step
                y = np.arange(cols) * step
        q, _ = _trig_sums(self._q_nu, self._q_cos, None, x, y)
        phi_cos, phi_sin = _trig_sums(self._phi_nu, self._phi_cos, self._phi_sin, x, y)
        phi = (1.0 + phi_cos) + 1j * phi_sin
        return q.ravel()[:size], phi.ravel()[:size]


def compute_channel(
    n_spins: int,
    a_total_uev: float,
    b_field_t: float,
    times,
    material: MaterialSpec = GAAS,
) -> ChannelTrace:
    """Exact box-model channel trace on a time grid starting at t=0."""
    times = np.asarray(times, dtype=np.float64)
    channel = BoxChannel(n_spins, a_total_uev, b_field_t, material)
    q, phi = channel.evaluate(times)
    return ChannelTrace(times=times, q=q, phi=phi)

