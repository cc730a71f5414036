"""Name-based protocol lookup.

Experiments and benchmarks refer to protocols by short names (for example
``"low-sensing"``, ``"binary-exponential"``) so that sweeps over protocols
are data, not code.  Each name maps to a built-in protocol class, built
with its experiment-default parameters; callers that need non-default
parameters construct protocol objects directly.
"""

from __future__ import annotations

import functools
from typing import Iterable

from repro.protocols.base import BackoffProtocol


@functools.cache
def _protocols() -> dict[str, type[BackoffProtocol]]:
    """The name → class table.

    Imports are local to avoid circular imports at package-import time (the
    core package imports :mod:`repro.protocols.base` as well).
    """
    from repro.core.low_sensing import LowSensingBackoff
    from repro.protocols.binary_exponential import BinaryExponentialBackoff
    from repro.protocols.fixed_probability import FixedProbabilityProtocol, SlottedAloha
    from repro.protocols.mw_full_sensing import FullSensingMultiplicativeWeights
    from repro.protocols.polynomial_backoff import PolynomialBackoff
    from repro.protocols.sawtooth import SawtoothBackoff

    return {
        "low-sensing": LowSensingBackoff,
        "binary-exponential": BinaryExponentialBackoff,
        "polynomial": PolynomialBackoff,
        "fixed-probability": FixedProbabilityProtocol,
        "slotted-aloha": SlottedAloha,
        "sawtooth": SawtoothBackoff,
        "full-sensing-mw": FullSensingMultiplicativeWeights,
    }


def get_protocol(name: str) -> BackoffProtocol:
    """Instantiate the protocol named ``name`` with its defaults."""
    try:
        protocol = _protocols()[name]
    except KeyError:
        known = ", ".join(available_protocols())
        raise KeyError(f"unknown protocol {name!r}; known protocols: {known}") from None
    return protocol()


def available_protocols() -> Iterable[str]:
    """Sorted names of all built-in protocols."""
    return sorted(_protocols())
