"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines
and timings.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from helpers import dense_channel
from oracles import (
    ChannelSnapshot,
    apply_product_channel,
    apply_snapshot,
    bell_state,
    concurrence_wootters,
    concurrence_x,
    oscillation_metrics,
    snapshot,
    t2star_uniform,
)

from dotesd.boxmodel import compute_channel, sector_weights
from dotesd.config import RunConfig, default_config
from dotesd.dephasing import dephasing_factor, fit_t2star
from dotesd.entanglement import BellLabel, concurrence_closed_form
from dotesd.experiments import (
    box_equivalent_coupling,
    concurrence_trace,
    find_sudden_death,
    sweep_b,
)
from dotesd.material import uniform_couplings

A_BOX_50 = box_equivalent_coupling(83.0, 50, 1_500_000)
A_BOX_100 = box_equivalent_coupling(83.0, 100, 1_500_000)


@contextmanager
def criterion(number: int, description: str, budget_s: float):
    start = time.time()
    try:
        yield
    except Exception:
        print(f"\n[criterion {number}] FAIL: {description}")
        raise
    elapsed = time.time() - start
    print(f"\n[criterion {number}] PASS ({elapsed:.1f}s): {description}")
    assert elapsed < budget_s, f"criterion {number} exceeded its runtime budget"


@pytest.fixture(scope="module")
def fig2_sweep():
    """100-point sweep over [5, 30] mT on the default configuration."""
    start = time.time()
    result = sweep_b(default_config(), np.linspace(5e-3, 30e-3, 100))
    return result, time.time() - start


def test_criterion_1_oracle_equivalence():
    with criterion(1, "box channel matches dense brute force to 1e-8", 60.0):
        times = np.linspace(0.0, 50.0, 51)
        alpha = 0.25
        for n in (2, 3, 4, 5):
            for b in (0.0, 0.020, 1.0):
                trace = compute_channel(n, alpha * n, b, times)
                q_ref, phi_ref = dense_channel([alpha] * n, b, times)
                assert np.abs(trace.q - q_ref).max() < 1e-8
                assert np.abs(trace.phi - phi_ref).max() < 1e-8


def test_criterion_2_t2star_reproduction():
    with criterion(2, "uniform-bath T2* = 12.28 ns (2%), paper value 12.36 ns (10%)", 120.0):
        couplings = uniform_couplings(83.0, 1_500_000)
        fit = fit_t2star(dephasing_factor(couplings, np.linspace(0.0, 100.0, 2000)))
        analytic = t2star_uniform(1_500_000, 83.0)
        assert analytic == pytest.approx(12.28, abs=0.01)
        assert abs(fit.t2_star_ns - analytic) / analytic < 0.02
        assert abs(fit.t2_star_ns - 12.36) / 12.36 < 0.10


def test_criterion_3_high_field_concurrence_law():
    with criterion(3, "high-field law C = exp(-2 t^2/T2*^2), no sudden death", 60.0):
        config = default_config()
        t2 = t2star_uniform(1_500_000, 83.0)
        window = np.linspace(0.0, 2.0 * t2, 400)
        trace = concurrence_trace(config, 1.0, times=window, high_field=True)
        np.testing.assert_allclose(
            trace.concurrence, np.exp(-2.0 * window**2 / t2**2), rtol=0.02
        )
        # pure dephasing never drives the concurrence through zero, so the
        # high-field curve has no sudden death anywhere in the horizon
        horizon_trace = concurrence_trace(config, 1.0, high_field=True)
        assert np.all(horizon_trace.concurrence > 0.0)


def test_criterion_4_fig1_qualitative():
    with criterion(4, "Fig. 1 ordering and oscillation structure", 300.0):
        config = default_config()
        fields = (0.0, 0.011, 0.0165, 0.020, 1.0)
        traces = {b: concurrence_trace(config, b) for b in fields}
        # the exact channel overshoots the frozen-bath envelope by up to
        # ~3e-3 around 20 mT (oracle-confirmed), so the figure-level
        # ordering claims hold to a qualitative tolerance
        tol = 5e-3
        zero = traces[0.0].concurrence
        top = traces[1.0].concurrence
        for b in fields[1:]:
            assert np.all(zero <= traces[b].concurrence + 1e-9)
        for b in fields[:-1]:
            assert np.all(traces[b].concurrence <= top + tol)
        death0 = find_sudden_death(traces[0.0].times, zero, 100.0)
        assert death0.t_sd is not None and death0.t_sd < 100.0
        counts = [
            oscillation_metrics(traces[b].concurrence).n_maxima
            for b in (0.011, 0.0165, 0.020)
        ]
        assert counts == sorted(counts)


def test_criterion_5_fig2_oscillatory_tsd(fig2_sweep):
    sweep, sweep_seconds = fig2_sweep
    with criterion(5, "t_SD(B) non-monotonic with >= 2 local maxima on [5, 30] mT", 600.0):
        assert sweep_seconds < 590.0, "sweep exceeded its runtime budget"
        tsd = np.array([rec.death.t_sd for rec in sweep.records], dtype=float)
        assert np.all(np.isfinite(tsd))
        diffs = np.diff(tsd)
        assert np.any(diffs > 0) and np.any(diffs < 0)
        interior_maxima = np.count_nonzero(
            (tsd[1:-1] > tsd[:-2]) & (tsd[1:-1] > tsd[2:])
        )
        assert interior_maxima >= 2
        print(f"  sweep took {sweep_seconds:.0f}s; {interior_maxima} local maxima", end="")


def test_criterion_6_witness_equivalence(fig2_sweep):
    sweep, _ = fig2_sweep
    with criterion(6, "witness zero equals t_SD within one grid step at every B", 60.0):
        grid_step = 100.0 / 1999.0
        for rec in sweep.records:
            assert rec.death.t_sd is not None
            assert rec.death.witness_zero is not None
            assert abs(rec.death.witness_zero - rec.death.t_sd) <= grid_step


def test_criterion_7_invariant_suite():
    with criterion(7, "channel, sector and entanglement invariants", 300.0):
        rng = np.random.default_rng(2024)

        # complete positivity across regimes
        times = np.linspace(0.0, 100.0, 1500)
        for n, a, b in ((3, 1.5, 0.0), (50, A_BOX_50, 0.0165), (50, A_BOX_50, 1.0)):
            trace = compute_channel(n, a, b, times)
            assert np.all(np.abs(trace.phi) <= 1.0 - trace.q + 1e-10)

        # unitality is exact, not approximate
        mixed = np.eye(2, dtype=complex) / 2.0
        for _ in range(50):
            q = float(rng.uniform(0, 1))
            mag = float(rng.uniform(0, 1.0 - q))
            snap = ChannelSnapshot(q, mag * np.exp(1j * rng.uniform(0, 2 * np.pi)))
            assert np.array_equal(apply_snapshot(snap, mixed), mixed)

        # sector weights are normalized
        for n in (1, 2, 3, 5, 8, 50, 100, 333, 1000, 4096):
            assert abs(sector_weights(n).normalization() - 1.0) < 1e-12

        # Eq.-(3) shortcut equals Wootters on 1e3 random evolved states
        labels = list(BellLabel)
        for _ in range(1000):
            q1 = float(rng.uniform(0, 0.7))
            q2 = float(rng.uniform(0, 0.7))
            s1 = ChannelSnapshot(q1, rng.uniform(0, 1 - q1) * np.exp(1j * rng.uniform(0, 2 * np.pi)))
            s2 = ChannelSnapshot(q2, rng.uniform(0, 1 - q2) * np.exp(1j * rng.uniform(0, 2 * np.pi)))
            label = labels[int(rng.integers(4))]
            evolved = apply_product_channel(bell_state(label), s1, s2)
            assert concurrence_x(evolved, label) == pytest.approx(
                concurrence_wootters(evolved), abs=1e-10
            )

        # all four Bell states share one concurrence trace (identical dots)
        ch = compute_channel(50, A_BOX_50, 0.0165, np.linspace(0.0, 60.0, 30))
        reference = None
        for label in labels:
            values = np.array(
                [
                    concurrence_wootters(
                        apply_product_channel(bell_state(label), snapshot(ch, i), snapshot(ch, i))
                    )
                    for i in range(len(ch.times))
                ]
            )
            if reference is None:
                reference = values
            else:
                assert np.abs(values - reference).max() < 1e-12

        # reduced states stay maximally mixed
        for i in (5, 12, 25):
            evolved = apply_product_channel(
                bell_state(BellLabel.PSI_MINUS), snapshot(ch, i), snapshot(ch, i)
            )
            r = evolved.reshape(2, 2, 2, 2)
            assert np.abs(np.einsum("ikjk->ij", r) - np.eye(2) / 2).max() < 1e-12
            assert np.abs(np.einsum("kikj->ij", r) - np.eye(2) / 2).max() < 1e-12

        # field-sign symmetry
        times = np.linspace(0.0, 60.0, 400)
        up = compute_channel(50, A_BOX_50, 0.0165, times)
        down = compute_channel(50, A_BOX_50, -0.0165, times)
        assert np.abs(up.q - down.q).max() < 1e-12
        assert np.abs(np.abs(up.phi) - np.abs(down.phi)).max() < 1e-12


def test_criterion_8_bath_size_convergence():
    with criterion(8, "N=50 vs N=100 channels differ by < 0.01 on [0, 60] ns", 300.0):
        times = np.linspace(0.0, 60.0, 1200)
        for b in (0.0, 0.020, 1.0):
            small = compute_channel(50, A_BOX_50, b, times)
            large = compute_channel(100, A_BOX_100, b, times)
            assert np.abs(small.q - large.q).max() < 0.01
            assert np.abs(np.abs(small.phi) - np.abs(large.phi)).max() < 0.01


def test_criterion_9_occupation_scaling():
    with criterion(9, "max q at 2 T is a quarter of its 1 T value (10%)", 120.0):
        times = np.arange(0.0, 20.0, 0.002)
        peak_1t = compute_channel(50, A_BOX_50, 1.0, times).q.max()
        peak_2t = compute_channel(50, A_BOX_50, 2.0, times).q.max()
        assert peak_2t / peak_1t == pytest.approx(0.25, rel=0.10)
