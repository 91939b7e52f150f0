"""Figure-level computations: concurrence traces, sudden death, field sweeps.

A physical dot with n_cells nuclei is simulated by an n_spins box bath whose
total coupling is rescaled to preserve the Overhauser spread,
A_box = A sqrt(n_spins / n_cells), so sigma, T2* and the flip-flop amplitudes
match the real dot while the Hilbert space stays tractable. Fifty spins
already reproduce the large-bath evolution to better than 1e-2.

The high-field limiting trace (pure dephasing, q = 0) is computed from the
exact per-nucleus product; it never suffers sudden death and bounds every
finite-field concurrence trace from above.
"""

from __future__ import annotations

import functools
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .boxmodel import BoxChannel
from .config import RunConfig
from .dephasing import dephasing_factor
from .entanglement import BellLabel, concurrence_closed_form, witness_closed_form
from .material import uniform_couplings


# C(t) <= ZERO_TOL counts as disentangled.
ZERO_TOL = 1e-9


def box_equivalent_coupling(a_total_uev: float, n_spins: int, n_cells: int) -> float:
    """Box-bath total coupling that reproduces the physical dot's sigma."""
    return a_total_uev * math.sqrt(n_spins / n_cells)


@dataclass
class EntanglementTrace:
    """Concurrence and witness of an evolved Bell state on a time grid."""

    times: np.ndarray
    concurrence: np.ndarray
    witness: np.ndarray
    max_occupation_leak: float


@dataclass(frozen=True)
class SuddenDeathResult:
    """Terminal sudden-death time, witness zero, and revival bookkeeping.

    t_sd is the start of the final interval on which the concurrence stays at
    zero up to the horizon; None when entanglement survives the horizon.
    revival_count is the number of maximal C > 0 intervals after the first
    death.
    """

    t_sd: float | None
    witness_zero: float | None
    horizon: float
    revival_count: int


@dataclass(frozen=True)
class BFieldRecord:
    b_field_t: float
    death: SuddenDeathResult
    max_occupation_leak: float


@dataclass
class SweepResult:
    records: list[BFieldRecord]


class _TracePair:
    """Channels of both dots at one field; evaluates C and W at arbitrary t."""

    def __init__(self, config: RunConfig, b_field_t: float, bell: BellLabel):
        self.bell = bell
        params = [
            (dot.n_spins, box_equivalent_coupling(dot.a_total_uev, dot.n_spins, dot.n_cells))
            for dot in config.dots
        ]
        first = BoxChannel(params[0][0], params[0][1], b_field_t, config.material)
        second = (
            first
            if params[1] == params[0]
            else BoxChannel(params[1][0], params[1][1], b_field_t, config.material)
        )
        self.channels = (first, second)

    def evaluate(self, times):
        q1, phi1 = self.channels[0].evaluate(times)
        if self.channels[1] is self.channels[0]:
            q2, phi2 = q1, phi1
        else:
            q2, phi2 = self.channels[1].evaluate(times)
        conc = concurrence_closed_form(q1, phi1, q2, phi2)
        witness = witness_closed_form(self.bell, q1, phi1, q2, phi2)
        return conc, witness, max(q1.max(), q2.max())

    def at(self, t: float) -> tuple[float, float]:
        """(C, W) at one time."""
        conc, witness, _ = self.evaluate([t])
        return float(conc[0]), float(witness[0])


def concurrence_trace(
    config: RunConfig,
    b_field_t: float,
    times=None,
    bell: BellLabel = BellLabel.PSI_PLUS,
    high_field: bool = False,
) -> EntanglementTrace:
    """Concurrence and witness of an evolved Bell state versus time.

    With high_field=True the channel is the pure-dephasing limit (valid for
    fields well above 3.25 T and the upper envelope for every field); the
    magnetic field value is then irrelevant.
    """
    config.validate()
    times = config.times() if times is None else np.asarray(times, dtype=np.float64)
    if high_field:
        phis = [
            dephasing_factor(
                uniform_couplings(dot.a_total_uev, dot.n_cells), times
            ).phi
            for dot in config.dots
        ]
        conc = concurrence_closed_form(0.0, phis[0], 0.0, phis[1])
        witness = witness_closed_form(bell, np.zeros_like(times), phis[0], np.zeros_like(times), phis[1])
        return EntanglementTrace(times, conc, witness, 0.0)
    pair = _TracePair(config, b_field_t, bell)
    conc, witness, leak = pair.evaluate(times)
    return EntanglementTrace(times, conc, witness, leak)


def _terminal_crossing(t, f, threshold: float, refine=None) -> float | None:
    """Start of the last run of f <= threshold, when that run reaches the end.

    None when f ends above the threshold or never rises above it. The
    crossing is bracketed on the grid, then bisected to 1e-3 ns on refine(t)
    when given, else linearly interpolated between the bracketing samples.
    """
    above = f > threshold
    if above[-1] or not above.any():
        return None
    last = int(np.max(np.nonzero(above)))
    lo, hi = float(t[last]), float(t[last + 1])
    if refine is None:
        f_lo, f_hi = f[last], f[last + 1]
        return lo + (f_lo - threshold) / max(f_lo - f_hi, 1e-300) * (hi - lo)
    while hi - lo > 1e-3:
        mid = 0.5 * (lo + hi)
        if refine(mid) > threshold:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def find_sudden_death(
    times, concurrence, horizon: float, witness=None, refine=None
) -> SuddenDeathResult:
    """Locate the terminal zero of C(t) and of the witness on a uniform grid.

    The death time is grid-bracketed and then refined to 1e-3 ns by bisection
    on C from refine(t) -> (C, W) when provided (linear interpolation
    otherwise). Revivals are counted from the sign structure of C - ZERO_TOL.
    The witness zero is the same search on -W with the threshold ZERO_TOL/2,
    the exact image of the concurrence threshold for evolved Bell states.
    refine is memoised, so where both zeros share a grid bracket the witness
    bisection reuses every evaluation of the concurrence bisection.
    """
    times = np.asarray(times, dtype=np.float64)
    concurrence = np.asarray(concurrence, dtype=np.float64)
    in_horizon = times <= horizon * (1.0 + 1e-12)
    t = times[in_horizon]
    c = concurrence[in_horizon]
    if len(t) < 2:
        raise ValueError("trace does not cover [0, horizon]")

    alive = c > ZERO_TOL
    revivals = int(np.count_nonzero(np.diff(alive.astype(np.int8)) == 1))
    c_refine = w_refine = None
    if refine is not None:
        refine = functools.cache(refine)
        c_refine = lambda x: refine(x)[0]
        w_refine = lambda x: -refine(x)[1]
    t_sd = _terminal_crossing(t, c, ZERO_TOL, c_refine)
    witness_zero = None
    if witness is not None:
        w = np.asarray(witness, dtype=np.float64)[in_horizon]
        witness_zero = _terminal_crossing(t, -w, 0.5 * ZERO_TOL, w_refine)

    return SuddenDeathResult(
        t_sd=t_sd, witness_zero=witness_zero, horizon=float(horizon), revival_count=revivals
    )


def _sweep_record(args) -> BFieldRecord:
    config, b_field_t, bell_value = args
    pair = _TracePair(config, b_field_t, BellLabel(bell_value))
    times = config.times()
    conc, witness, leak = pair.evaluate(times)
    death = find_sudden_death(times, conc, config.grid.horizon_ns, witness=witness, refine=pair.at)
    return BFieldRecord(b_field_t=b_field_t, death=death, max_occupation_leak=float(leak))


def pool_size(workers: int | None, n_fields: int) -> int:
    """Worker processes a sweep starts: min(workers, n_fields, CPUs); 1 is serial."""
    if workers is None:
        return 1
    return max(1, min(workers, n_fields, os.cpu_count() or 1))


def sweep_b(
    config: RunConfig,
    b_grid,
    bell: BellLabel = BellLabel.PSI_PLUS,
    workers: int | None = None,
) -> SweepResult:
    """Sudden-death and witness-zero times over an ordered magnetic-field grid.

    Records are computed independently per field and merged in grid order, so
    the result is identical for any worker count. The pool never exceeds the
    number of fields or of CPUs (see pool_size).
    """
    config.validate()
    b_grid = np.asarray(b_grid, dtype=np.float64)
    if np.any(np.diff(b_grid) < 0):
        raise ValueError("b_grid must be ordered")
    jobs = [(config, float(b), bell.value) for b in b_grid]
    size = pool_size(workers, len(jobs))
    if size > 1:
        with ProcessPoolExecutor(max_workers=size) as pool:
            records = list(pool.map(_sweep_record, jobs, chunksize=4))
    else:
        records = [_sweep_record(job) for job in jobs]
    return SweepResult(records=records)
