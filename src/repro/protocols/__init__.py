"""Contention-resolution protocols.

Every protocol — the paper's LOW-SENSING BACKOFF (in :mod:`repro.core`) and
the baselines it is compared against — implements the same two-object API
defined in :mod:`repro.protocols.base`:

* a :class:`~repro.protocols.base.BackoffProtocol` factory describing the
  protocol and its parameters, and
* a per-packet :class:`~repro.protocols.base.PacketState` that decides an
  action each slot and updates itself from channel feedback.

:func:`~repro.protocols.registry.get_protocol` maps protocol names to the
built-in classes so experiments and benchmarks can sweep over protocols by
name.
"""

from repro.protocols.base import BackoffProtocol, PacketState
from repro.protocols.binary_exponential import BinaryExponentialBackoff
from repro.protocols.fixed_probability import FixedProbabilityProtocol, SlottedAloha
from repro.protocols.mw_full_sensing import FullSensingMultiplicativeWeights
from repro.protocols.polynomial_backoff import PolynomialBackoff
from repro.protocols.registry import available_protocols, get_protocol
from repro.protocols.sawtooth import SawtoothBackoff

__all__ = [
    "BackoffProtocol",
    "BinaryExponentialBackoff",
    "FixedProbabilityProtocol",
    "FullSensingMultiplicativeWeights",
    "PacketState",
    "PolynomialBackoff",
    "SawtoothBackoff",
    "SlottedAloha",
    "available_protocols",
    "get_protocol",
]
