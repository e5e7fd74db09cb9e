"""Resilience layer: deterministic fault injection + healing policies.

``repro.resilience`` makes the engine survivable and provably so: the
*faults* half (:class:`FaultPlan` / :class:`FaultSpec`) injects seeded,
reproducible failures at the engine's instrumented sites, and the *policies*
half (:class:`RetryPolicy`, :class:`Deadline`, :class:`CircuitBreaker`,
:class:`ResiliencePolicy`) heals, bounds or degrades around them.  A
:class:`~repro.engine.session.NedSession` wires both through every layer it
owns (``NedSession(store, faults=..., resilience=...)``), and
``metrics_snapshot()["resilience"]`` accounts for every retry, shed,
degrade and breaker transition.  The chaos test suite drives the two halves
against each other: under any single injected fault the engine returns
bit-identical results or a typed error within the deadline.
"""

from repro.exceptions import (
    DeadlineError,
    FaultInjectedError,
    OverloadError,
    ResilienceError,
)
from repro.resilience.faults import (
    FAULT_KINDS,
    SITES,
    FaultPlan,
    FaultSpec,
    ResilienceWarning,
    inject_io_faults,
)
from repro.resilience.policies import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    DEFAULT_POLICY,
    SIDECAR_POLICIES,
    CircuitBreaker,
    Deadline,
    ResiliencePolicy,
    RetryPolicy,
)

__all__ = [
    "BREAKER_CLOSED",
    "BREAKER_HALF_OPEN",
    "BREAKER_OPEN",
    "CircuitBreaker",
    "Deadline",
    "DeadlineError",
    "DEFAULT_POLICY",
    "FAULT_KINDS",
    "FaultInjectedError",
    "FaultPlan",
    "FaultSpec",
    "inject_io_faults",
    "OverloadError",
    "ResilienceError",
    "ResiliencePolicy",
    "ResilienceWarning",
    "RetryPolicy",
    "SIDECAR_POLICIES",
    "SITES",
]
