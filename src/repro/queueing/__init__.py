"""Adversarial queuing theory substrate.

The paper's Corollary 1.5 and Theorems 1.7/1.9(2) are stated for the
adversarial-queuing arrival model: for a granularity ``S`` and arrival rate
``λ < 1``, the number of packet arrivals plus jammed slots in any window of
``S`` consecutive slots is at most ``λ·S``, with the placement inside each
window adversarial.  This subpackage provides the constraint object used to
validate generated executions.
"""

from repro.queueing.model import QueueingConstraint

__all__ = ["QueueingConstraint"]
