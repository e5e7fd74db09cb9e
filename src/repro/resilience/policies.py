"""Resilience policies: retries, deadlines, circuit breaking, load shedding.

These are the *healing* half of :mod:`repro.resilience` (the other half,
:mod:`~repro.resilience.faults`, is the hurting half used to test it):

* :class:`RetryPolicy` — bounded attempts with exponential backoff and
  deterministic jitter, per-site attempt caps, counted into the metrics
  registry (``resilience.retries.<site>`` / ``resilience.retry_exhausted.<site>``
  counters, ``resilience.retry_backoff_seconds`` histogram).
* :class:`Deadline` — a cooperative wall-clock budget checked at the
  engine's natural checkpoints (per exact evaluation, per matrix chunk, per
  serving tick); an expired deadline raises a typed
  :class:`~repro.exceptions.DeadlineError` instead of letting a slow fault
  hang the caller.
* :class:`CircuitBreaker` — classic closed → open → half-open around a
  fallible tier.  The resolver guards each rung of the exact-tier
  degradation ladder (batch → per-pair scipy → hungarian) with one, so
  repeated kernel faults stop being paid for and a cool-down probes the
  faster tier again.
* :class:`ResiliencePolicy` — the immutable bundle a
  :class:`~repro.engine.session.NedSession` wires through every layer it
  owns; the default policy (retries + breakers, no deadline, strict
  sidecars, unbounded queue) changes no result and costs a few attribute
  checks on the hot path.

Determinism is load-bearing throughout: jitter comes from
``random.Random((seed, site, attempt))``-style streams, never the global
RNG, so a retried run reproduces its backoff schedule exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, Mapping, Optional, Tuple, Type

from repro.exceptions import (
    DeadlineError,
    OverloadError,
    ReproError,
    ResilienceError,
)
from repro.utils.timer import clock

#: Exceptions a retry must never mask: a blown deadline only gets worse, and
#: a shed request must surface immediately.
NON_RETRIABLE = (DeadlineError, OverloadError)

#: Sidecar-failure policies a session accepts.
SIDECAR_POLICIES = ("strict", "cold_start")

# Circuit-breaker states (gauge values are their indices: 0/1/2).
BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half-open"
_BREAKER_GAUGE = {BREAKER_CLOSED: 0, BREAKER_HALF_OPEN: 1, BREAKER_OPEN: 2}


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded, deterministically jittered exponential backoff.

    ``call(fn, site=...)`` runs ``fn`` up to ``attempts_for(site)`` times,
    sleeping ``backoff(site, attempt)`` between attempts.  Only exceptions
    matching ``retry_on`` (minus :data:`NON_RETRIABLE`) are retried; the
    last error is re-raised unchanged on exhaustion, so callers keep the
    typed exception the failing layer produced.
    """

    max_attempts: int = 3
    base_delay: float = 0.005
    multiplier: float = 2.0
    max_delay: float = 0.25
    jitter: float = 0.5
    seed: int = 0
    per_site: Mapping[str, int] = field(default_factory=dict)
    retry_on: Tuple[Type[BaseException], ...] = (ReproError, OSError)

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ResilienceError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ResilienceError("backoff delays must be >= 0")
        if self.multiplier < 1.0:
            raise ResilienceError(f"multiplier must be >= 1, got {self.multiplier}")
        if not 0.0 <= self.jitter <= 1.0:
            raise ResilienceError(f"jitter must be in [0, 1], got {self.jitter}")
        for site, attempts in self.per_site.items():
            if attempts < 1:
                raise ResilienceError(
                    f"per_site[{site!r}] must be >= 1, got {attempts}"
                )

    def attempts_for(self, site: str) -> int:
        """Attempt budget for ``site`` (its ``per_site`` cap, else the default)."""
        return self.per_site.get(site, self.max_attempts)

    def backoff(self, site: str, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (1-based), jittered.

        Deterministic: the same (seed, site, attempt) always yields the
        same delay, so a chaos run's retry schedule is reproducible.
        """
        delay = min(self.max_delay, self.base_delay * self.multiplier ** (attempt - 1))
        if not self.jitter or not delay:
            return delay
        rng = random.Random(f"{self.seed}:{site}:{attempt}")
        return delay * (1.0 + self.jitter * (2.0 * rng.random() - 1.0))

    def call(
        self,
        fn: Callable[[], object],
        site: str,
        metrics=None,
        sleep: Optional[Callable[[float], None]] = None,
        retry_on: Optional[Tuple[Type[BaseException], ...]] = None,
    ):
        """Run ``fn`` under this policy; returns its value or re-raises.

        ``metrics`` (duck-typed registry) receives one
        ``resilience.retries.<site>`` count per re-attempt, the backoff
        sleeps in the ``resilience.retry_backoff_seconds`` histogram, each
        attempt's latency in ``resilience.retry_attempt_seconds``, and a
        ``resilience.retry_exhausted.<site>`` count when every attempt
        failed.
        """
        if sleep is None:
            import time as _time

            sleep = _time.sleep
        matching = self.retry_on if retry_on is None else retry_on
        attempts = self.attempts_for(site)
        for attempt in range(1, attempts + 1):
            try:
                if metrics is None:
                    return fn()
                started = clock()
                result = fn()
                metrics.observe("resilience.retry_attempt_seconds", clock() - started)
                return result
            except NON_RETRIABLE:
                raise
            except matching:
                if attempt >= attempts:
                    if metrics is not None:
                        metrics.inc(f"resilience.retry_exhausted.{site}")
                    raise
                pause = self.backoff(site, attempt)
                if metrics is not None:
                    metrics.inc(f"resilience.retries.{site}")
                    metrics.observe("resilience.retry_backoff_seconds", pause)
                if pause:
                    sleep(pause)
        raise AssertionError("unreachable: the loop returns or raises")


class Deadline:
    """A cooperative wall-clock budget; ``check()`` raises when it is spent.

    Created per plan execution (or per serving request) and pushed down to
    the resolver, which checks it at each exact evaluation / block — the
    engine's natural cancellation points.  Checks cost one clock read.
    """

    __slots__ = ("seconds", "expires_at", "_clock")

    def __init__(self, seconds: float, clock_fn: Callable[[], float] = clock) -> None:
        if seconds <= 0:
            raise ResilienceError(f"deadline must be > 0 seconds, got {seconds}")
        self.seconds = seconds
        self._clock = clock_fn
        self.expires_at = clock_fn() + seconds

    def remaining(self) -> float:
        """Seconds left (negative once expired)."""
        return self.expires_at - self._clock()

    def expired(self) -> bool:
        return self._clock() >= self.expires_at

    def check(self, site: str = "") -> None:
        """Raise :class:`DeadlineError` when the budget is spent."""
        if self._clock() >= self.expires_at:
            where = f" at {site}" if site else ""
            raise DeadlineError(
                f"deadline of {self.seconds:.3f}s exceeded{where}"
            )


class CircuitBreaker:
    """Closed → open → half-open guard around one fallible tier.

    ``allows()`` gates the guarded call: True while closed, False while
    open, and True exactly once per cool-down while half-open (the probe).
    ``record_failure()`` trips the breaker after ``threshold`` *consecutive*
    failures; ``record_success()`` closes it again.  ``trips`` / ``reopens``
    count transitions, and an attached registry mirrors the state into a
    ``resilience.breaker_state.<name>`` gauge (0 closed / 1 half-open /
    2 open) plus ``resilience.breaker_trips`` / ``resilience.breaker_reopens``
    counters.
    """

    def __init__(
        self,
        name: str,
        threshold: int = 3,
        cooldown: float = 1.0,
        clock_fn: Callable[[], float] = clock,
        metrics=None,
    ) -> None:
        if threshold < 1:
            raise ResilienceError(f"threshold must be >= 1, got {threshold}")
        if cooldown < 0:
            raise ResilienceError(f"cooldown must be >= 0, got {cooldown}")
        self.name = name
        self.threshold = threshold
        self.cooldown = cooldown
        self._clock = clock_fn
        self.metrics = metrics
        self._state = BREAKER_CLOSED
        self._failures = 0
        self._opened_at = 0.0
        self.trips = 0
        self.reopens = 0

    @property
    def state(self) -> str:
        if self._state == BREAKER_OPEN and (
            self._clock() - self._opened_at >= self.cooldown
        ):
            return BREAKER_HALF_OPEN
        return self._state

    def allows(self) -> bool:
        """True when the guarded tier may run (closed, or a half-open probe)."""
        if self._state == BREAKER_CLOSED:
            return True
        if self._clock() - self._opened_at >= self.cooldown:
            # Half-open probe: let one call through; success closes the
            # breaker, failure re-opens it (record_failure restarts the
            # cool-down window).
            self._set_state(BREAKER_HALF_OPEN)
            return True
        return False

    def record_success(self) -> None:
        self._failures = 0
        if self._state != BREAKER_CLOSED:
            self.reopens += 1
            if self.metrics is not None:
                self.metrics.inc("resilience.breaker_reopens")
            self._set_state(BREAKER_CLOSED)

    def record_failure(self) -> None:
        self._failures += 1
        if self._state == BREAKER_HALF_OPEN or self._failures >= self.threshold:
            if self._state != BREAKER_OPEN:
                self.trips += 1
                if self.metrics is not None:
                    self.metrics.inc("resilience.breaker_trips")
            self._failures = 0
            self._opened_at = self._clock()
            self._set_state(BREAKER_OPEN)

    def _set_state(self, state: str) -> None:
        self._state = state
        if self.metrics is not None:
            self.metrics.set_gauge(
                f"resilience.breaker_state.{self.name}", _BREAKER_GAUGE[state]
            )

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready view for ``metrics_snapshot()["resilience"]``."""
        return {"state": self.state, "trips": self.trips, "reopens": self.reopens}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CircuitBreaker({self.name!r}, state={self.state!r})"


@dataclass(frozen=True)
class ResiliencePolicy:
    """The per-session bundle of resilience knobs.

    Parameters
    ----------
    retry:
        The :class:`RetryPolicy` applied at the retryable sites (shard
        decode, sidecar load/save).  ``None`` disables
        retries.
    deadline:
        Per-plan wall-clock budget in seconds for ``execute`` /
        ``execute_batch`` (each distinct plan gets a fresh deadline) and
        the per-request budget under ``serve()``.  ``None`` (default) means
        unbounded — today's behavior.
    breaker_threshold, breaker_cooldown:
        Consecutive-failure trip point and cool-down (seconds) of the
        exact-tier circuit breakers (batch → per-pair scipy → hungarian).
    sidecar:
        ``"strict"`` (default): a broken sidecar at session open/close
        raises, exactly as before.  ``"cold_start"``: warn, start cold (or
        skip the save), keep the session usable.
    max_queue_depth:
        Bound on the :class:`SessionServer` request queue; submissions
        beyond it are shed with a typed
        :class:`~repro.exceptions.OverloadError`.  ``None`` = unbounded.
    """

    retry: Optional[RetryPolicy] = field(default_factory=RetryPolicy)
    deadline: Optional[float] = None
    breaker_threshold: int = 3
    breaker_cooldown: float = 1.0
    sidecar: str = "strict"
    max_queue_depth: Optional[int] = None

    def __post_init__(self) -> None:
        if self.deadline is not None and self.deadline <= 0:
            raise ResilienceError(f"deadline must be > 0, got {self.deadline}")
        if self.sidecar not in SIDECAR_POLICIES:
            raise ResilienceError(
                f"unknown sidecar policy {self.sidecar!r}; expected one of "
                f"{SIDECAR_POLICIES}"
            )
        if self.breaker_threshold < 1:
            raise ResilienceError(
                f"breaker_threshold must be >= 1, got {self.breaker_threshold}"
            )
        if self.breaker_cooldown < 0:
            raise ResilienceError(
                f"breaker_cooldown must be >= 0, got {self.breaker_cooldown}"
            )
        if self.max_queue_depth is not None and self.max_queue_depth < 1:
            raise ResilienceError(
                f"max_queue_depth must be >= 1 or None, got {self.max_queue_depth}"
            )


#: The policy sessions use unless told otherwise: retries and breakers on
#: (they change no result in a healthy run), no deadline, strict sidecars,
#: unbounded serving queue.
DEFAULT_POLICY = ResiliencePolicy()
