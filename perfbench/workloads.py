"""Benchmark workloads: CLI inputs generated from a seed, and output checks.

A workload is a fixed list of `dotesd` commands (argv plus the YAML configs
they name) that together make one round. The seed sets the dots' isotope
draw seeds, the sub-spacing offset of the Fig. 2 field grid, the
bath-convergence field and the sampled check times; the program sees only
the argv and the YAML files.

Checks compare every output with the reference computations in
reference.py or with properties the method must have. An operation is one
field record of a sweep or one table of another command.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import reference as ref

N_CELLS = 1_500_000
A_TOTAL_UEV = 83.0
ZERO_TOL = 1e-9  # the configs leave zero_tol at this default

SWEEP_FIELDS = 13        # 2 mT apart: lobes near 11, 20 and 28 mT stay resolved
SWEEP_SPACING_MT = 2.0
BELL_FIELD_MT = 20.0     # fixed, so the known-fault operation is seed-independent
BELL_CHECK_ROWS = tuple(range(0, 1001, 100))
BATH_SIZES = (50, 100, 200)
BATH_T_MAX_NS, BATH_T_STEPS = 60.0, 1200
SAMPLES = 6


@dataclass
class Command:
    argv: list[str]
    rate: bool = True  # its rows count toward records_per_s


@dataclass
class Output:
    code: int
    out: str
    err: str


class Tally:
    """Operations attempted and failed in one round, and what went wrong.

    A known fault fails its operation but keeps the round correct; every
    other error makes the round incorrect.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def op(self, label: str, errors: list[str], known: list[str] = ()) -> None:
        self.attempted += 1
        if errors or known:
            self.failed += 1
        self.problems += [f"{label}: {e}" for e in errors]

    def require(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)


def _dot_yaml(n_spins: int, seed: int) -> str:
    return (
        f"  - {{n_spins: {n_spins}, n_cells: {N_CELLS}, a_total_uev: {A_TOTAL_UEV},"
        f" l_perp_nm: 20.0, l_z_nm: 2.0, seed: {seed}}}\n"
    )


def _config_yaml(seeds, n_spins=50, t_max_ns=100.0, t_steps=2000, bell=None) -> str:
    text = "dots:\n" + "".join(_dot_yaml(n_spins, s) for s in seeds)
    text += f"grid: {{t_max_ns: {t_max_ns}, t_steps: {t_steps}, horizon_ns: {t_max_ns}}}\n"
    if bell is not None:
        text += f"bell: {bell}\n"
    return text


def _table(text: str) -> tuple[list[str], np.ndarray]:
    lines = text.splitlines()
    if not lines:
        return [], np.empty((0, 0))
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    return lines[0].split(","), np.array(rows, dtype=np.float64).reshape(len(rows), -1)


def _summary(err: str) -> dict[str, float]:
    """key=value pairs the dephasing command prints on stderr."""
    pairs = (tok.split("=", 1) for tok in err.split() if "=" in tok)
    return {k: float(v) for k, v in pairs}


def _shape_errors(output: Output, header: list[str], rows: int) -> list[str]:
    if output.code != 0:
        return [f"exit code {output.code}: {output.err.strip()[:200]}"]
    got_header, data = _table(output.out)
    if got_header != header:
        return [f"header {got_header} != {header}"]
    if data.shape[0] != rows:
        return [f"{data.shape[0]} rows, expected {rows}"]
    return []


@dataclass
class Workload:
    name: str
    configs: dict[str, str]
    commands: list[Command]
    params: dict = field(default_factory=dict)
    _refs: dict = field(default_factory=dict)

    def write_configs(self, directory: Path) -> list[Path]:
        paths = []
        for file_name, text in self.configs.items():
            path = directory / file_name
            path.write_text(text)
            paths.append(path)
        return paths

    def check(self, outputs: list[Output]) -> Tally:
        tally = Tally()
        getattr(self, "_check_" + self.name.replace("-", "_"))(outputs, tally)
        return tally

    def _channel(self, n_spins: int, b_field_t: float) -> ref.ReferenceChannel:
        key = ("channel", n_spins, b_field_t)
        if key not in self._refs:
            a_box = ref.box_coupling_uev(A_TOTAL_UEV, n_spins, N_CELLS)
            self._refs[key] = ref.ReferenceChannel(n_spins, a_box, b_field_t)
        return self._refs[key]

    def _check_fig2_sweep(self, outputs: list[Output], tally: Tally) -> None:
        sweep, bell = outputs
        p = self.params
        header = ["b_t", "t_sd_ns", "witness_zero_ns", "revivals", "max_leak"]
        shape = _shape_errors(sweep, header, SWEEP_FIELDS)
        if shape:
            for i in range(SWEEP_FIELDS):
                tally.op(f"sweep field {i}", shape)
        else:
            data = _table(sweep.out)[1]
            grid = np.linspace(p["b_min_mt"] * 1e-3, p["b_max_mt"] * 1e-3, SWEEP_FIELDS)
            step = 100.0 / 1999  # spacing of the default 2,000-point grid
            for b_expected, (b_t, t_sd, w_zero, _, _) in zip(grid, data):
                errors = []
                if abs(b_t - b_expected) > 1e-15:
                    errors.append(f"field {b_t} != grid value {b_expected}")
                if not math.isfinite(t_sd):
                    errors.append("t_SD is not finite")
                else:
                    channel = self._channel(50, b_t)
                    c_before = ref.concurrence(*channel.at(t_sd - 1e-3) * 2)
                    c_after = ref.concurrence(*channel.at(t_sd + 1e-3) * 2)
                    if not c_before > ZERO_TOL:
                        errors.append(f"C(t_SD - 1e-3) = {c_before:.3e} <= zero_tol")
                    if not c_after <= ZERO_TOL:
                        errors.append(f"C(t_SD + 1e-3) = {c_after:.3e} > zero_tol")
                    if not abs(w_zero - t_sd) <= step:
                        errors.append(f"witness zero {w_zero} not within a grid step of {t_sd}")
                tally.op(f"sweep B={b_t * 1e3:.4f} mT", errors)
            t_sd = data[:, 1]
            maxima = int(np.count_nonzero((t_sd[1:-1] > t_sd[:-2]) & (t_sd[1:-1] > t_sd[2:])))
            tally.require(maxima >= 2, f"t_SD(B) has {maxima} interior maxima, expected >= 2")

        errors, known = _shape_errors(bell, ["t_ns", "concurrence", "witness"], 2000), []
        if not errors:
            data = _table(bell.out)[1]
            channel = self._channel(50, BELL_FIELD_MT * 1e-3)
            for row in BELL_CHECK_ROWS:
                t, conc, wit = data[row]
                qp = channel.at(t) * 2
                if abs(conc - ref.concurrence(*qp)) > 1e-10:
                    errors.append(f"concurrence at t={t} differs from the reference")
                w_ref = ref.witness(*qp, psi=False)
                if abs(wit - w_ref) <= 1e-10:
                    continue
                # The known fault (the CLI ignores `bell:`) gives the psi-plus
                # witness; any other mismatch is a new error.
                if abs(wit - ref.witness(*qp, psi=True)) <= 1e-10:
                    known.append(f"phi-plus witness at t={t}: {wit} != {w_ref}")
                else:
                    errors.append(f"witness at t={t} is {wit}, neither phi-plus {w_ref}"
                                  " nor the psi-plus value of the known fault")
        tally.op("concurrence bell: phi-plus", errors, known)

    def _check_bath_convergence(self, outputs: list[Output], tally: Tally) -> None:
        b_field_t = self.params["b_mt"] * 1e-3
        times = np.linspace(0.0, BATH_T_MAX_NS, BATH_T_STEPS)
        tables = {}
        for n_spins, output in zip(BATH_SIZES, outputs):
            errors = _shape_errors(output, ["t_ns", "q", "re_phi", "im_phi"], BATH_T_STEPS)
            if not errors:
                t, q, re, im = _table(output.out)[1].T
                phi = re + 1j * im
                tables[n_spins] = (q, phi)
                if np.abs(t - times).max() > 1e-12:
                    errors.append("time column differs from the configured grid")
                if q[0] != 0.0 or abs(phi[0] - 1.0) > 1e-12:
                    errors.append(f"q(0) = {q[0]}, phi(0) = {phi[0]}")
                if np.any(np.abs(phi) > 1.0 - q + 1e-10):
                    errors.append("complete positivity |phi| <= 1 - q violated")
                channel = self._channel(n_spins, b_field_t)
                for row in self.params["rows"]:
                    q_ref, phi_ref = channel.at(t[row])
                    if abs(q[row] - q_ref) > 1e-10 or abs(phi[row] - phi_ref) > 1e-10:
                        errors.append(f"row {row} differs from the reference channel")
            tally.op(f"channel N={n_spins}", errors)
        if len(tables) == len(BATH_SIZES):
            diffs = []
            for small, large in zip(BATH_SIZES, BATH_SIZES[1:]):
                (q1, p1), (q2, p2) = tables[small], tables[large]
                dq = np.abs(q1 - q2).max()
                dp = np.abs(np.abs(p1) - np.abs(p2)).max()
                tally.require(
                    dq < 1e-2 and dp < 1e-2,
                    f"N={small} vs {large}: max |dq| = {dq:.2e}, max |d|phi|| = {dp:.2e}",
                )
                diffs.append((dq, dp))
            tally.require(
                diffs[1][0] < diffs[0][0] and diffs[1][1] < diffs[0][1],
                f"bath-size differences do not shrink with N: {diffs}",
            )

    def _check_realistic_dephasing(self, outputs: list[Output], tally: Tally) -> None:
        from dotesd.material import GAAS, DotGeometry, generate_couplings

        realistic, uniform = outputs
        header = ["t_ns", "abs_phi", "phase_phi"]
        if "couplings" not in self._refs:
            geometry = DotGeometry(20.0, 2.0, N_CELLS, self.params["seed_dot1"])
            a_k = generate_couplings(GAAS, geometry).a_k
            self._refs["couplings"] = a_k
            self._refs["t2_ref"] = ref.t2star_gaussian(a_k)
            self._refs["a_total"] = math.fsum(a_k.tolist())
        uniform_a_k = np.full(N_CELLS, A_TOTAL_UEV / N_CELLS)
        cases = (
            (realistic, self._refs["couplings"], self._refs["t2_ref"], 0.01, "realistic"),
            (uniform, uniform_a_k, ref.t2star_gaussian(uniform_a_k), 0.02, "uniform"),
        )
        for output, a_k, t2_ref, t2_tol, label in cases:
            errors = _shape_errors(output, header, 2000)
            if not errors:
                t, abs_phi, _ = _table(output.out)[1].T
                summary = _summary(output.err)
                t2 = summary.get("t2_star_ns", math.nan)
                if not abs(t2 - t2_ref) <= t2_tol * t2_ref:
                    errors.append(f"T2* {t2} ns not within {t2_tol:.0%} of {t2_ref} ns")
                if summary.get("n_couplings") != len(a_k):
                    errors.append(f"n_couplings {summary.get('n_couplings')} != {len(a_k)}")
                last = int(np.searchsorted(t, 3.0 * t2_ref, side="right")) - 1
                for u in self.params["fractions"]:
                    row = 1 + int(u * last)
                    expect = ref.dephasing_abs(a_k, t[row])
                    if abs(abs_phi[row] - expect) > 1e-9 * expect:
                        errors.append(f"|phi| at t={t[row]} is {abs_phi[row]}, reference {expect}")
                a_total = summary.get("a_total_uev", math.nan)
                if label == "realistic":
                    if not abs(a_total - ref.gaas_a_total_uev()) <= 0.1:
                        errors.append(f"a_total_uev {a_total} far from the isotope table")
                    if not abs(a_total - self._refs["a_total"]) <= 1e-9:
                        errors.append(f"a_total_uev {a_total} != sum of couplings")
                elif a_total != A_TOTAL_UEV:
                    errors.append(f"uniform a_total_uev {a_total} != {A_TOTAL_UEV}")
            tally.op(f"dephasing {label}", errors)


def build(name: str, seed: int, config_dir: Path) -> Workload:
    """The workload's commands and configs for one seed."""
    rng = random.Random(seed)
    seeds = (rng.randrange(1, 2**31), rng.randrange(1, 2**31))

    def path(file_name):
        return str(config_dir / file_name)

    if name == "fig2-sweep":
        b_min = 5.0 + round(rng.random(), 3)
        b_max = b_min + SWEEP_SPACING_MT * (SWEEP_FIELDS - 1)
        configs = {
            "sweep.yaml": _config_yaml(seeds),
            "bell.yaml": _config_yaml((1, 2), bell="phi-plus"),
        }
        commands = [
            Command(["--config", path("sweep.yaml"), "sweep", "--b-min-mt", f"{b_min:.3f}",
                     "--b-max-mt", f"{b_max:.3f}", "--b-steps", str(SWEEP_FIELDS)]),
            Command(["--config", path("bell.yaml"), "concurrence", "--b-mt", str(BELL_FIELD_MT)],
                    rate=False),
        ]
        params = {"b_min_mt": b_min, "b_max_mt": b_max}
    elif name == "bath-convergence":
        b_mt = round(12.0 + 18.0 * rng.random(), 3)
        configs = {
            f"bath{n}.yaml": _config_yaml(seeds, n, BATH_T_MAX_NS, BATH_T_STEPS)
            for n in BATH_SIZES
        }
        commands = [
            Command(["--config", path(f"bath{n}.yaml"), "channel", "--b-mt", f"{b_mt:.3f}"])
            for n in BATH_SIZES
        ]
        params = {"b_mt": b_mt, "rows": sorted(rng.sample(range(1, BATH_T_STEPS), SAMPLES))}
    elif name == "realistic-dephasing":
        configs = {"dots.yaml": _config_yaml(seeds)}
        commands = [
            Command(["--config", path("dots.yaml"), "dephasing", "--mode", mode])
            for mode in ("realistic", "uniform")
        ]
        params = {"seed_dot1": seeds[0], "fractions": [rng.random() for _ in range(SAMPLES)]}
    else:
        raise KeyError(name)
    return Workload(name, configs, commands, params)


NAMES = ("fig2-sweep", "bath-convergence", "realistic-dephasing")
