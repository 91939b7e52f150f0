"""Physical constants, GaAs material data, and hyperfine coupling generation.

Couplings follow A_k = A0_k * v0 |Psi(r_k)|^2 with an anisotropic Gaussian
envelope for the electron wave function. All energies are in ueV, lengths in
nm, times in ns, magnetic fields in Tesla.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

HBAR_UEV_NS = 0.6582119569  # ueV * ns
BOHR_MAGNETON_UEV_PER_T = 57.8838180  # ueV / T


@dataclass(frozen=True)
class IsotopeSpec:
    """One spin-3/2 nuclear species: total hyperfine constant, abundance, sublattice."""

    name: str
    a0_uev: float
    abundance: float
    sublattice: str

    def __post_init__(self):
        if self.a0_uev <= 0:
            raise ValueError(f"isotope {self.name}: a0 must be positive")
        if not 0.0 <= self.abundance <= 1.0:
            raise ValueError(f"isotope {self.name}: abundance outside [0, 1]")


@dataclass(frozen=True)
class MaterialSpec:
    isotopes: tuple[IsotopeSpec, ...]
    cell_volume_nm3: float
    g_factor: float

    def __post_init__(self):
        if self.cell_volume_nm3 <= 0:
            raise ValueError("cell volume must be positive")
        for name in self.sublattices():
            total = sum(i.abundance for i in self.isotopes if i.sublattice == name)
            if abs(total - 1.0) > 1e-9:
                raise ValueError(
                    f"abundances on sublattice {name} sum to {total}, expected 1"
                )

    def sublattices(self) -> tuple[str, ...]:
        seen: list[str] = []
        for iso in self.isotopes:
            if iso.sublattice not in seen:
                seen.append(iso.sublattice)
        return tuple(seen)

    def mean_a0_per_cell(self) -> float:
        """Abundance-weighted sum of A0 over one unit cell (all sublattices)."""
        return sum(i.abundance * i.a0_uev for i in self.isotopes)


# GaAs: one Ga and one As nucleus per two-atom cell, v0 from the conventional
# cube a = 0.565 nm holding four such cells.
GAAS = MaterialSpec(
    isotopes=(
        IsotopeSpec("Ga69", 36.0, 0.604, "Ga"),
        IsotopeSpec("Ga71", 46.0, 0.396, "Ga"),
        IsotopeSpec("As75", 43.0, 1.0, "As"),
    ),
    cell_volume_nm3=0.0451,
    g_factor=-0.44,
)


@dataclass(frozen=True)
class DotGeometry:
    """Gaussian envelope extensions, number of unit cells, isotope draw seed."""

    l_perp_nm: float
    l_z_nm: float
    n_cells: int
    rng_seed: int = 0

    def __post_init__(self):
        if self.l_perp_nm <= 0 or self.l_z_nm <= 0:
            raise ValueError("envelope extensions must be positive")
        if self.n_cells < 1:
            raise ValueError("n_cells must be at least 1")


@dataclass
class CouplingSet:
    """Per-nucleus hyperfine constants and their sum."""

    a_k: np.ndarray
    a_total: float


def electron_larmor_uev(b_field_t: float, material: MaterialSpec = GAAS) -> float:
    """Signed electron Zeeman energy -g mu_B B (positive for g < 0, B > 0)."""
    return -material.g_factor * BOHR_MAGNETON_UEV_PER_T * b_field_t


def uniform_couplings(a_total_uev: float, n_nuclei: int) -> CouplingSet:
    """Box-model couplings A_k = A/N for every nucleus."""
    if n_nuclei < 1:
        raise ValueError("n_nuclei must be at least 1")
    if a_total_uev <= 0:
        raise ValueError("a_total must be positive")
    return CouplingSet(a_k=np.full(n_nuclei, a_total_uev / n_nuclei), a_total=a_total_uev)


def _envelope_exponent(geometry: DotGeometry, x, y, z):
    """(x^2+y^2)/l_perp^2 + z^2/l_z^2; smaller means larger envelope weight."""
    return (x * x + y * y) / geometry.l_perp_nm**2 + (z * z) / geometry.l_z_nm**2


def _site_grid(material: MaterialSpec, geometry: DotGeometry):
    """Cubic-grid envelope exponents, ordered by weight (descending), covering
    at least n_cells sites with the largest envelope weight."""
    a = material.cell_volume_nm3 ** (1.0 / 3.0)
    # Threshold s such that the ellipsoid u <= s holds n_cells sites, from the
    # continuum volume (4 pi / 3) l_perp^2 l_z s^(3/2) = n_cells v0.
    s_est = (
        3.0 * geometry.n_cells * material.cell_volume_nm3
        / (4.0 * math.pi * geometry.l_perp_nm**2 * geometry.l_z_nm)
    ) ** (2.0 / 3.0)
    margin = 1.35
    for _ in range(4):
        s = max(s_est, 1e-12) * margin
        nx = max(3, int(math.ceil(geometry.l_perp_nm * math.sqrt(s) / a)))
        nz = max(3, int(math.ceil(geometry.l_z_nm * math.sqrt(s) / a)))
        if (2 * nx + 1) ** 2 * (2 * nz + 1) > 2e8:
            raise ValueError("n_cells exceeds the representable site grid")
        coords = np.arange(-nx, nx + 1) * a
        coords_z = np.arange(-nz, nz + 1) * a
        u = (
            _envelope_exponent(geometry, coords[:, None], coords[None, :], 0.0)[
                :, :, None
            ]
            + (coords_z**2 / geometry.l_z_nm**2)[None, None, :]
        ).ravel()
        if len(u) >= geometry.n_cells:
            idx = np.argpartition(u, geometry.n_cells - 1)[: geometry.n_cells]
            # Stable order: by envelope weight, ties broken by grid index.
            idx = idx[np.lexsort((idx, u[idx]))]
            return u[idx]
        margin *= 1.7
    raise ValueError("n_cells exceeds the representable site grid")


def generate_couplings(material: MaterialSpec, geometry: DotGeometry) -> CouplingSet:
    """Hyperfine couplings for a realistic Gaussian-envelope dot.

    Picks the n_cells unit-cell sites of largest envelope weight on a simple
    cubic grid of spacing v0^(1/3) centered at the origin. Each cell holds one
    nucleus per sublattice; its isotope is drawn by abundance from the seeded
    generator. The discrete weights are renormalized over the selected sites,
    so sum_cells v0 |Psi|^2 = 1 per sublattice.
    """
    u = _site_grid(material, geometry)
    w = np.exp(-u)
    w /= w.sum()

    rng = np.random.default_rng(geometry.rng_seed)
    all_ak: list[np.ndarray] = []
    for name in material.sublattices():
        species = [i for i in material.isotopes if i.sublattice == name]
        a0 = np.array([i.a0_uev for i in species])
        if len(species) == 1:
            pick = np.zeros(geometry.n_cells, dtype=np.intp)
        else:
            cdf = np.cumsum([i.abundance for i in species])
            pick = np.searchsorted(cdf, rng.random(geometry.n_cells), side="right")
            pick = np.minimum(pick, len(species) - 1)
        all_ak.append(a0[pick] * w)

    a_k = np.concatenate(all_ak)
    return CouplingSet(a_k=a_k, a_total=float(math.fsum(a_k)))
