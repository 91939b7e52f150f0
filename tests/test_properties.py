"""Randomised checks of the box channel against the dense oracle.

Hypothesis draws small baths (N <= 4 spin-3/2 nuclei), per-nucleus
couplings alpha, fields B and times t; every example is checked against the
full unitary evolution of tests/helpers.dense_channel. Examples are
derandomized, so every run draws the same inputs.
"""

import numpy as np
from helpers import dense_channel
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import ChannelSnapshot, apply_product_channel, bell_state, concurrence_wootters

from dotesd.boxmodel import BoxChannel
from dotesd.entanglement import BellLabel, concurrence_closed_form

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
