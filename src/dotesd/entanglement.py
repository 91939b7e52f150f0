"""Bell labels and the entanglement of evolved Bell states.

Each qubit of a Bell pair evolves under its own phase-covariant unital
channel (q, phi). The evolved state keeps a single nonzero coherence pair,
so its Wootters concurrence (PRL 80, 2245 (1998)) has a closed form
directly in the channel parameters,

    C = max{0, |phi1||phi2| - [q1 (1 - q2) + q2 (1 - q1)]},

which is the same for all four Bell labels. The witness W = 1/2 - Bell
fidelity, whose zero marks the sudden death, has one too.
"""

from __future__ import annotations

from enum import Enum

import numpy as np


class BellLabel(Enum):
    PSI_PLUS = "psi-plus"
    PSI_MINUS = "psi-minus"
    PHI_PLUS = "phi-plus"
    PHI_MINUS = "phi-minus"

    @property
    def is_psi(self) -> bool:
        return self in (BellLabel.PSI_PLUS, BellLabel.PSI_MINUS)


def concurrence_closed_form(q1, phi1, q2, phi2):
    """Concurrence of any evolved Bell state directly from channel parameters.

    Vectorized; accepts arrays of q and phi for whole traces.
    """
    q1, q2 = np.asarray(q1), np.asarray(q2)
    signed = np.abs(phi1) * np.abs(phi2) - (q1 * (1.0 - q2) + q2 * (1.0 - q1))
    return np.maximum(0.0, signed)


def witness_closed_form(bell: BellLabel, q1, phi1, q2, phi2):
    """W(t) = 1/2 - Bell fidelity of the evolved state, from channel params.

    For Psi labels the coherence enters as Re(phi1 conj(phi2)); for Phi labels
    as Re(phi1 phi2), which keeps rotating at the total Zeeman frequency.
    """
    cross = q1 * (1.0 - q2) + q2 * (1.0 - q1)
    if bell.is_psi:
        coh = np.real(phi1 * np.conj(phi2))
    else:
        coh = np.real(phi1 * phi2)
    # fidelity = (1 - cross)/2 + coh/2; the label sign cancels against the
    # sign of the evolved coherence, so plus and minus labels agree.
    return 0.5 * (cross - coh)
