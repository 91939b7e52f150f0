"""Run configuration: material, two dot blocks, time grid, and mode flags.

Config files are flat YAML; every physical quantity carries a unit-suffixed
key (a_total_uev, t_max_ns, ...) to keep units explicit. An unknown key or
a block that is not a mapping is an error at every level. The built-in
defaults encode the identical-dot GaAs setup.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np
import yaml

from .boxmodel import MAX_SPINS
from .entanglement import BellLabel
from .material import GAAS, DotGeometry, IsotopeSpec, MaterialSpec


class ConfigError(Exception):
    """Invalid or malformed run configuration."""


@dataclass(frozen=True)
class DotConfig:
    """One quantum dot: physical bath plus box-simulation size.

    n_cells is the physical number of unit cells (sets the Overhauser spread
    and the dephasing bath); n_spins is the number of spins used in the exact
    box-model simulation of that bath.
    """

    n_spins: int = 50
    n_cells: int = 1_500_000
    a_total_uev: float = 83.0
    l_perp_nm: float = 20.0
    l_z_nm: float = 2.0
    seed: int = 0

    def geometry(self) -> DotGeometry:
        return DotGeometry(
            l_perp_nm=self.l_perp_nm,
            l_z_nm=self.l_z_nm,
            n_cells=self.n_cells,
            rng_seed=self.seed,
        )


@dataclass(frozen=True)
class GridConfig:
    t_max_ns: float = 100.0
    t_steps: int = 2000
    horizon_ns: float = 100.0


@dataclass(frozen=True)
class RunConfig:
    material: MaterialSpec = GAAS
    dots: tuple[DotConfig, DotConfig] = (DotConfig(seed=1), DotConfig(seed=2))
    grid: GridConfig = GridConfig()
    bell: str = "psi-plus"

    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.grid.t_max_ns, self.grid.t_steps)

    def validate(self) -> None:
        if len(self.dots) != 2:
            raise ConfigError("exactly two dot blocks are required")
        blocks = (self.grid, self.material, *self.material.isotopes, *self.dots)
        bad = [name for block in blocks for name in _non_finite(block)]
        if bad:
            raise ConfigError(f"values must be finite: {', '.join(bad)}")
        if self.grid.t_steps < 2 or self.grid.t_max_ns <= 0:
            raise ConfigError("grid needs t_max_ns > 0 and t_steps >= 2")
        if self.grid.horizon_ns > self.grid.t_max_ns:
            raise ConfigError("horizon_ns cannot exceed t_max_ns")
        if self.bell not in {label.value for label in BellLabel}:
            raise ConfigError(f"unknown Bell label {self.bell!r}")
        for i, dot in enumerate(self.dots):
            if not 1 <= dot.n_spins <= MAX_SPINS or dot.n_cells < 1:
                raise ConfigError(f"dot {i + 1}: need 1 <= n_spins <= {MAX_SPINS}, n_cells >= 1")
            if dot.a_total_uev <= 0:
                raise ConfigError(f"dot {i + 1}: a_total_uev must be positive")
            if dot.l_perp_nm <= 0 or dot.l_z_nm <= 0:
                raise ConfigError(f"dot {i + 1}: l_perp_nm and l_z_nm must be positive")
            if abs(self.material.mean_a0_per_cell() - dot.a_total_uev) > 0.1:
                raise ConfigError(
                    f"dot {i + 1}: a_total_uev inconsistent with the material "
                    f"isotope table ({self.material.mean_a0_per_cell():.2f} ueV/cell)"
                )


def _non_finite(block) -> list[str]:
    """Names of the float fields of a config dataclass that are nan or infinite."""
    return [
        f.name
        for f in fields(block)
        if isinstance(value := getattr(block, f.name), float) and not math.isfinite(value)
    ]


def default_config() -> RunConfig:
    return RunConfig()


def _mapping(node, where: str, known: set[str]) -> dict:
    """node itself, after checking that it is a mapping with only known keys."""
    if not isinstance(node, dict):
        raise ConfigError(f"{where} must be a mapping")
    unknown = set(node) - known
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    return node


def _build_isotope(node) -> IsotopeSpec:
    node = _mapping(node, "isotope", {"name", "a0_uev", "abundance", "sublattice"})
    return IsotopeSpec(
        name=str(node["name"]),
        a0_uev=float(node["a0_uev"]),
        abundance=float(node["abundance"]),
        sublattice=str(node["sublattice"]),
    )


def _build_material(node) -> MaterialSpec:
    node = _mapping(node, "material", {"isotopes", "cell_volume_nm3", "g_factor"})
    isotopes = node.get("isotopes")
    return MaterialSpec(
        isotopes=GAAS.isotopes if isotopes is None else tuple(_build_isotope(i) for i in isotopes),
        cell_volume_nm3=float(node.get("cell_volume_nm3", GAAS.cell_volume_nm3)),
        g_factor=float(node.get("g_factor", GAAS.g_factor)),
    )


def _integer(value, key: str) -> int:
    """value as an int; booleans and non-integral numbers are errors, not truncated."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ConfigError(f"{key} must be an integer, got {value!r}")


_DOT_KEYS = {"n_spins", "n_cells", "a_total_uev", "l_perp_nm", "l_z_nm", "seed"}


def _build_dot(node, index: int) -> DotConfig:
    node = _mapping(node, f"dot {index + 1}", _DOT_KEYS)
    base = DotConfig(seed=index + 1)
    ints = {k: _integer(node[k], k) for k in ("n_spins", "n_cells", "seed") if k in node}
    floats = {k: float(node[k]) for k in ("a_total_uev", "l_perp_nm", "l_z_nm") if k in node}
    return replace(base, **ints, **floats)


def _build_grid(node) -> GridConfig:
    node = _mapping(node, "grid", {"t_max_ns", "t_steps", "horizon_ns"})
    return GridConfig(
        t_max_ns=float(node.get("t_max_ns", 100.0)),
        t_steps=_integer(node.get("t_steps", 2000), "t_steps"),
        horizon_ns=float(node.get("horizon_ns", node.get("t_max_ns", 100.0))),
    )


def load_config(path: str) -> RunConfig:
    """Parse a YAML run configuration, filling omitted blocks with defaults."""
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"malformed YAML: {exc}") from exc
    if raw is None:
        return default_config()
    _mapping(raw, "top-level config", {"material", "dots", "grid", "bell"})
    try:
        material = _build_material(raw["material"]) if "material" in raw else GAAS
        if "dots" in raw:
            nodes = raw["dots"]
            if not isinstance(nodes, list) or len(nodes) != 2:
                raise ConfigError("dots must be a list of exactly two blocks")
            dots = (_build_dot(nodes[0], 0), _build_dot(nodes[1], 1))
        else:
            dots = (DotConfig(seed=1), DotConfig(seed=2))
        config = RunConfig(
            material=material,
            dots=dots,
            grid=_build_grid(raw.get("grid", {})),
            bell=str(raw.get("bell", "psi-plus")),
        )
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid config value: {exc}") from exc
    config.validate()
    return config
