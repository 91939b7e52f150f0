"""Randomised checks of the box channel and the pure-dephasing product.

Hypothesis draws small baths (N <= 4 spin-3/2 nuclei), per-nucleus
couplings alpha, fields B and times t; every example is checked against the
full unitary evolution of tests/helpers.dense_channel. For the dephasing
product it draws coupling sets whose arguments lie on both sides of the
series limit, and checks that the factor multiplies over disjoint baths.
Examples are derandomized, so every run draws the same inputs.
"""

import numpy as np
from helpers import dense_channel
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import ChannelSnapshot, apply_product_channel, bell_state, concurrence_wootters

from dotesd.boxmodel import BoxChannel
from dotesd.dephasing import _SERIES_X, dephasing_factor
from dotesd.entanglement import BellLabel, concurrence_closed_form
from dotesd.material import HBAR_UEV_NS, CouplingSet

PROPERTY = settings(derandomize=True, max_examples=25, deadline=None, database=None)

spins = st.integers(1, 4)
alphas = st.floats(0.05, 2.0)  # ueV per nucleus
fields = st.floats(-0.05, 0.05)  # T
times = st.lists(st.floats(0.0, 80.0), min_size=1, max_size=4)  # ns

ATOL = 1e-10


def box(n, alpha, b, t):
    return BoxChannel(n, n * alpha, b).evaluate(t)


@PROPERTY
@given(n=spins, alpha=alphas, b=fields, t=times)
def test_complete_positivity(n, alpha, b, t):
    q, phi = box(n, alpha, b, t)
    q_ref, phi_ref = dense_channel([alpha] * n, b, t)
    np.testing.assert_allclose(q, q_ref, rtol=0, atol=ATOL)
    np.testing.assert_allclose(phi, phi_ref, rtol=0, atol=ATOL)
    assert np.all(np.abs(phi) <= 1.0 - q + ATOL)


@PROPERTY
@given(n=spins, alpha=alphas, b=fields, t=times)
def test_field_sign_symmetry(n, alpha, b, t):
    # Flipping every spin maps H(B) to H(-B): q is even in B, phi(-B) = conj phi(B).
    q_up, phi_up = box(n, alpha, b, t)
    q_down, phi_down = box(n, alpha, -b, t)
    q_ref, phi_ref = dense_channel([alpha] * n, -b, t)
    np.testing.assert_allclose(q_down, q_ref, rtol=0, atol=ATOL)
    np.testing.assert_allclose(phi_down, phi_ref, rtol=0, atol=ATOL)
    np.testing.assert_allclose(q_down, q_up, rtol=0, atol=ATOL)
    np.testing.assert_allclose(phi_down, np.conj(phi_up), rtol=0, atol=ATOL)


@PROPERTY
@given(
    n=st.tuples(spins, spins),
    alpha=st.tuples(alphas, alphas),
    b=fields,
    t=st.floats(0.0, 80.0),
)
def test_concurrence_independent_of_bell_label(n, alpha, b, t):
    # Two different dots: the Wootters concurrence of every evolved Bell
    # state equals the label-free closed form. The oracle's q is clipped to
    # [0, 1]: at t = 0 it can round to -3e-17.
    channels = [dense_channel([a] * k, b, [t]) for k, a in zip(n, alpha)]
    snaps = [ChannelSnapshot(float(np.clip(q[0], 0, 1)), complex(phi[0])) for q, phi in channels]
    (q1, phi1), (q2, phi2) = (box(k, a, b, [t]) for k, a in zip(n, alpha))
    closed = float(concurrence_closed_form(q1, phi1, q2, phi2)[0])
    for label in BellLabel:
        rho = apply_product_channel(bell_state(label), *snaps)
        assert abs(concurrence_wootters(rho) - closed) <= 1e-8


# Arguments A t_max / hbar on either side of _SERIES_X, with multiplicities.
multiplicities = st.integers(1, 10)
series_args = st.lists(st.tuples(st.floats(1e-3, 0.24), multiplicities), min_size=1, max_size=3)
direct_args = st.lists(st.tuples(st.floats(0.26, 1.4), multiplicities), min_size=1, max_size=3)
argument_sets = st.builds(lambda near, far: near + far, series_args, direct_args)


def dephasing_phi(args, t_max, times):
    a_k = np.repeat([y * HBAR_UEV_NS / t_max for y, _ in args], [n for _, n in args])
    return dephasing_factor(CouplingSet(a_k=a_k, a_total=float(a_k.sum())), times).phi


@PROPERTY
@given(a=argument_sets, b=argument_sets, t_max=st.floats(0.5, 200.0))
def test_dephasing_multiplies_over_disjoint_baths(a, b, t_max):
    assert max(y for y, _ in a) > _SERIES_X > min(y for y, _ in a)
    times = np.linspace(0.0, t_max, 64)
    phi_a, phi_b, phi_ab = (dephasing_phi(args, t_max, times) for args in (a, b, a + b))
    for phi in (phi_a, phi_b, phi_ab):
        assert phi[0] == 1.0
        assert np.all(np.abs(phi) <= 1.0)
    keep = np.abs(phi_ab) > 1e-200
    np.testing.assert_allclose(phi_ab[keep], (phi_a * phi_b)[keep], rtol=1e-13, atol=0)
