import math
import os

import numpy as np
import pytest

from oracles import oscillation_metrics, sigma_from, t2star_uniform, tsd_estimate_high_field

from dotesd.boxmodel import BoxChannel
from dotesd.config import DotConfig, GridConfig, RunConfig, default_config
from dotesd.entanglement import BellLabel
from dotesd.experiments import (
    box_equivalent_coupling,
    concurrence_trace,
    find_sudden_death,
    pool_size,
    sweep_b,
)

SIGMA = sigma_from(1_500_000, 83.0)


def fast_config(t_steps=1200, t_max=100.0):
    grid = GridConfig(t_max_ns=t_max, t_steps=t_steps, horizon_ns=t_max)
    return RunConfig(grid=grid)


class TestFindSuddenDeath:
    def test_linear_ramp(self):
        times = np.linspace(0.0, 50.0, 2001)
        c = np.maximum(0.0, 1.0 - times / 10.0)
        res = find_sudden_death(times, c, horizon=50.0)
        assert res.t_sd == pytest.approx(10.0, abs=0.05)
        assert res.revival_count == 0

    def test_no_death(self):
        times = np.linspace(0.0, 50.0, 200)
        res = find_sudden_death(times, np.ones_like(times), horizon=50.0)
        assert res.t_sd is None

    def test_revival_counting(self):
        times = np.linspace(0.0, 10.0, 1001)
        c = np.maximum(0.0, np.sin(2.0 * np.pi * times / 4.0)) * np.exp(-times / 3.0)
        c[0] = 1e-3  # alive at t=0
        res = find_sudden_death(times, c, horizon=10.0)
        # positive arches at [0,2], [4,6], [8,10) -> two revivals, death at 10
        assert res.revival_count == 2
        assert res.t_sd == pytest.approx(10.0, abs=0.05)

    def test_refinement_against_fine_grid(self):
        # independent oracle: a 10x finer scan of the same closed form
        config = fast_config(t_steps=2000)
        res = sweep_b(config, [0.0]).records[0].death
        fine = concurrence_trace(config, 0.0, times=np.linspace(0.0, 100.0, 20000))
        alive = fine.concurrence > 1e-9
        t_fine = fine.times[np.max(np.nonzero(alive)) + 1]
        assert res.t_sd == pytest.approx(t_fine, abs=1e-2)

    def test_horizon_validation(self):
        with pytest.raises(ValueError):
            find_sudden_death([0.0], [1.0], horizon=10.0)


class TestConcurrenceTrace:
    def test_starts_at_one(self):
        for b in (0.0, 0.02):
            trace = concurrence_trace(fast_config(400), b)
            assert trace.concurrence[0] == pytest.approx(1.0, abs=1e-12)
            assert trace.witness[0] == pytest.approx(-0.5, abs=1e-12)

    def test_zero_field_sudden_death(self):
        trace = concurrence_trace(fast_config(), 0.0)
        res = find_sudden_death(trace.times, trace.concurrence, 100.0)
        assert res.t_sd is not None and 0.0 < res.t_sd < 100.0

    def test_high_field_gaussian_law(self):
        t2 = t2star_uniform(1_500_000, 83.0)
        times = np.linspace(0.0, 2.0 * t2, 300)
        trace = concurrence_trace(fast_config(), 1.0, times=times, high_field=True)
        np.testing.assert_allclose(
            trace.concurrence, np.exp(-2.0 * times**2 / t2**2), rtol=0.02
        )

    def test_high_field_trace_never_dies(self):
        # pure dephasing never produces a zero crossing (Gaussian decay only)
        trace = concurrence_trace(fast_config(), 1.0, high_field=True)
        assert np.all(trace.concurrence > 0.0)
        assert trace.max_occupation_leak == 0.0

    def test_envelope_bounds_low_and_high_fields(self):
        config = fast_config(800)
        high = concurrence_trace(config, 0.0, high_field=True)
        for b in (0.0, 0.005, 0.011, 0.0165, 1.0):
            trace = concurrence_trace(config, b)
            assert np.all(trace.concurrence <= high.concurrence + 1e-6)

    def test_envelope_overshoot_band_is_small(self):
        # Around 18-30 mT the flip-flop term narrows part of the Overhauser
        # dephasing and the exact concurrence exceeds the frozen-bath
        # envelope by a few 1e-3 (oracle-confirmed); the excess stays
        # bounded and vanishes again at high field.
        config = fast_config(800)
        high = concurrence_trace(config, 0.0, high_field=True)
        excesses = []
        for b in (0.018, 0.02, 0.022, 0.025, 0.03):
            trace = concurrence_trace(config, b)
            excesses.append(float(np.max(trace.concurrence - high.concurrence)))
        assert max(excesses) < 5e-3
        assert max(excesses) > 0.0

    def test_all_labels_same_concurrence(self):
        config = fast_config(300)
        traces = [
            concurrence_trace(config, 0.0165, bell=label).concurrence
            for label in BellLabel
        ]
        for other in traces[1:]:
            np.testing.assert_allclose(other, traces[0], atol=1e-12)

    def test_box_coupling_rescale(self):
        assert box_equivalent_coupling(83.0, 50, 1_500_000) == pytest.approx(
            83.0 * math.sqrt(50 / 1.5e6), rel=1e-15
        )


class TestWitnessDeathEquivalence:
    @pytest.mark.parametrize("b", [0.0, 0.0165, 0.025])
    def test_zero_crossings_coincide(self, b):
        config = fast_config()
        trace = concurrence_trace(config, b)
        res = find_sudden_death(
            trace.times, trace.concurrence, 100.0, witness=trace.witness
        )
        assert res.t_sd is not None and res.witness_zero is not None
        dt = trace.times[1] - trace.times[0]
        assert abs(res.witness_zero - res.t_sd) <= dt

    def test_matrix_witness_vanishes_at_death(self):
        # evolve the Bell state through the full channel pipeline and check
        # W = 1/2 - fidelity at the refined sudden-death time
        from oracles import ChannelSnapshot, apply_product_channel, bell_state, witness_w

        from dotesd.boxmodel import BoxChannel

        config = fast_config()
        rec = sweep_b(config, [0.0165]).records[0]
        dot = config.dots[0]
        channel = BoxChannel(
            dot.n_spins, box_equivalent_coupling(dot.a_total_uev, dot.n_spins, dot.n_cells), 0.0165
        )
        q, phi = channel.evaluate([rec.death.t_sd])
        snap = ChannelSnapshot(float(q[0]), complex(phi[0]))
        evolved = apply_product_channel(bell_state(BellLabel.PSI_PLUS), snap, snap)
        assert witness_w(evolved, BellLabel.PSI_PLUS) == pytest.approx(0.0, abs=1e-4)


class TestSweep:
    def test_records_ordered_and_consistent(self):
        config = fast_config(800)
        grid = [0.0, 0.01, 0.02]
        result = sweep_b(config, grid)
        assert [r.b_field_t for r in result.records] == grid
        for rec in result.records:
            assert rec.death.t_sd is not None
            assert rec.death.witness_zero == pytest.approx(rec.death.t_sd, abs=1e-3)
            assert 0.0 < rec.max_occupation_leak < 1.0

    def test_psi_plus_record_bisects_once(self, monkeypatch):
        # The psi-plus witness zero shares the concurrence's grid bracket, so
        # its bisection reuses every point evaluation of the C bisection.
        config = fast_config()
        evaluate = BoxChannel.evaluate
        points = []

        def counting(channel, times):
            if np.size(times) == 1:
                points.append(times)
            return evaluate(channel, times)

        monkeypatch.setattr(BoxChannel, "evaluate", counting)
        death = sweep_b(config, [0.0165]).records[0].death
        assert death.t_sd is not None and death.witness_zero is not None
        dt = config.times()[1]
        assert 0 < len(points) <= math.ceil(math.log2(dt / 1e-3))

    def test_rejects_unordered_grid(self):
        with pytest.raises(ValueError):
            sweep_b(fast_config(400), [0.02, 0.01])

    def test_worker_count_does_not_change_results(self):
        config = fast_config(600)
        grid = np.linspace(0.008, 0.02, 4)
        serial = sweep_b(config, grid, workers=None)
        parallel = sweep_b(config, grid, workers=2)
        for a, b in zip(serial.records, parallel.records):
            assert a.death.t_sd == b.death.t_sd
            assert a.death.witness_zero == b.death.witness_zero
            assert a.max_occupation_leak == b.max_occupation_leak

    def test_pool_size_clamped_to_fields_and_cpus(self):
        cpus = os.cpu_count() or 1
        assert pool_size(None, 100) == 1
        assert pool_size(0, 100) == 1
        assert pool_size(-5, 100) == 1
        assert pool_size(2, 1) == 1
        assert pool_size(10**9, 3) == min(3, cpus)
        assert pool_size(10**9, 10**9) == cpus


class TestTsdEstimate:
    def test_log_unity_point(self):
        sigma = 0.2
        b = sigma * math.e * 0.6582119569 / (0.44 * 57.8838180)
        assert tsd_estimate_high_field(b, sigma) == pytest.approx(
            math.sqrt(2.0) / sigma, rel=1e-12
        )

    def test_monotone_above_sqrt_e(self):
        bs = np.linspace(0.05, 2.0, 30)
        vals = [tsd_estimate_high_field(b, SIGMA) for b in bs]
        assert np.all(np.diff(vals) > 0)

    def test_undefined_regime(self):
        with pytest.raises(ValueError):
            tsd_estimate_high_field(1e-6, SIGMA)

    def test_within_factor_of_numeric_death_at_one_tesla(self):
        estimate = tsd_estimate_high_field(1.0, SIGMA)
        trace = concurrence_trace(fast_config(4000), 1.0)
        res = find_sudden_death(trace.times, trace.concurrence, 100.0)
        assert res.t_sd is not None
        ratio = estimate / res.t_sd
        assert 1.0 / 1.5 < ratio < 1.5


class TestOscillationMetrics:
    def test_monotone_trace(self):
        m = oscillation_metrics(np.exp(-np.linspace(0, 5, 200)))
        assert m.n_maxima == 0
        assert m.amplitude == 0.0

    def test_synthetic_oscillation(self):
        t = np.linspace(0, 10, 2000)
        c = np.exp(-t / 5.0) * (1.0 + 0.2 * np.cos(2 * np.pi * t))
        m = oscillation_metrics(c)
        assert m.n_maxima == 10
        assert m.amplitude > 0.05

    def test_revival_band_shows_strict_maxima(self):
        # Where the terminal crossing jumps between oscillation lobes (around
        # 10 mT) the concurrence genuinely revives above zero.
        trace = concurrence_trace(RunConfig(), 0.010)
        m = oscillation_metrics(trace.concurrence)
        assert m.n_maxima >= 1
        assert m.amplitude > 1e-4

    def test_shoulder_oscillation_at_marked_fields(self):
        # At the fields marked in the sweep (11/16.5/20 mT) the occupation
        # oscillation shows up as slope modulation of an otherwise monotone
        # decay: the curvature of C(t) changes sign while alive.
        config = RunConfig()
        for b in (0.011, 0.0165, 0.020):
            trace = concurrence_trace(config, b)
            alive = trace.concurrence > 1e-9
            curvature = np.diff(trace.concurrence[alive], n=2)
            flips = np.count_nonzero(np.diff(np.sign(curvature)) != 0)
            assert flips >= 2

    def test_count_nondecreasing_with_field(self):
        config = fast_config()
        counts = [
            oscillation_metrics(concurrence_trace(config, b).concurrence).n_maxima
            for b in (0.011, 0.0165, 0.020)
        ]
        assert counts == sorted(counts)

    def test_amplitude_suppressed_at_high_field(self):
        # above ~50 mT the superimposed oscillation no longer overcomes the
        # Gaussian decay anywhere, so the metric is non-increasing (and zero)
        amps = []
        for b in (0.05, 0.1, 0.3, 1.0):
            period = 2 * np.pi * 0.6582119569 / (0.44 * 57.8838180 * b)
            times = np.arange(0.0, 60.0, period / 12.0)
            trace = concurrence_trace(fast_config(), b, times=times)
            amps.append(oscillation_metrics(trace.concurrence).amplitude)
        assert np.all(np.diff(amps) <= 0)
