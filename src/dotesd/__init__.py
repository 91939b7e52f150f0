"""Hyperfine-induced decoherence and entanglement sudden death of
quantum-dot electron-spin qubits in unpolarized nuclear baths."""

__version__ = "0.1.0"
