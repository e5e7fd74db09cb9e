"""Deterministic, seeded fault injection for the engine stack.

A :class:`FaultPlan` is a schedule of named faults aimed at the instrumented
*sites* of the engine — the places a real deployment actually fails:

========================  ====================================================
site                      where it fires
========================  ====================================================
``"shards.decode"``       :meth:`ShardedTreeStore._decode_shard` (slow disks,
                          torn shard files)
``"sidecar.load"``        reading a distance-cache sidecar
                          (:meth:`DistanceCache.load`)
``"sidecar.save"``        writing a sidecar (:meth:`DistanceCache.save`)
``"executor.dispatch"``   an exact block sent to the shared-memory worker
                          pool (:class:`~repro.serving.workers.SharedWorkerPool`;
                          worker death)
``"kernel.batch"``        the array-native ``ted_star_block`` exact tier
``"kernel.pair"``         a per-pair exact TED* evaluation
``"serving.tick"``        a :class:`SessionServer` batch tick
``"serving.request"``     one HTTP request in the multi-process NED
                          service (:class:`repro.serving.NedServiceServer`)
``"io.replace"``          between temp-write and ``os.replace`` in
                          :func:`repro.utils.io.atomic_pickle_dump`
                          (process kill mid-persist; see :func:`inject_io_faults`)
========================  ====================================================

Each :class:`FaultSpec` names a site and a fault kind — ``"error"`` (raise a
typed exception), ``"delay"`` (sleep), ``"corrupt"`` (signal the site to
apply a one-shot, site-appropriate corruption), ``"kill"`` (raise the
site's process-death exception, e.g. ``BrokenExecutor`` at the executor) —
plus *when*: skip the first ``after`` activations, fire at most ``fires``
times, optionally with ``probability`` drawn from a per-spec RNG seeded by
``(plan seed, spec index, site, kind)``.  Everything is deterministic: the
same plan against the same workload injects the same faults at the same
activations, which is what lets the chaos suite compare a faulted run
against a fault-free reference bit for bit.

Sites are *cooperative*: instrumented code calls ``plan.fire(site)`` and
honours the returned corruption flag.  A session wires its plan through
every layer it owns (:class:`repro.engine.session.NedSession`'s ``faults=``
parameter); nothing fires when no plan is installed, and the per-call cost
of the disabled path is one attribute check.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Type, Union

from repro.exceptions import FaultInjectedError, ResilienceError

#: Fault kinds a spec may request.
FAULT_KINDS = ("error", "delay", "corrupt", "kill")

#: The canonical fault-site registry: every instrumented site, in one
#: importable table.  Both halves of the contract consume it — runtime
#: (:class:`FaultSpec` rejects unknown sites unless ``custom=True``, so a
#: typo in a chaos schedule fails fast instead of silently never firing)
#: and static analysis (``ned-lint`` rule ``NED-REG01`` cross-checks every
#: ``fire("...")``/``FaultSpec("...")`` literal in the tree against it).
SITES = (
    "shards.decode",
    "sidecar.load",
    "sidecar.save",
    "executor.dispatch",
    "kernel.batch",
    "kernel.pair",
    "serving.tick",
    "serving.request",
    "io.replace",
)


class ResilienceWarning(UserWarning):
    """Warning category for degradations the engine survives.

    Emitted when a fallback preserves availability at some cost — local
    exact blocks after worker-pool death, a cold session start over a broken
    sidecar, a breaker-driven backend degrade — so operators see *that* and
    *why* the engine degraded without the run failing.
    """


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault: what to inject, where, and when.

    Parameters
    ----------
    site:
        The instrumented site name (see :data:`SITES`); unknown sites are
        rejected unless ``custom=True``.
    kind:
        ``"error"`` raises (``error`` or :class:`FaultInjectedError`);
        ``"delay"`` sleeps ``delay`` seconds; ``"corrupt"`` tells the site
        to apply its one-shot corruption; ``"kill"`` raises the site's
        process-death exception (or ``error`` when given).
    after:
        Skip this many activations of the site before becoming eligible —
        "the third shard decode fails", deterministically.
    fires:
        Fire at most this many times (``None`` = unlimited).  The default
        of 1 makes faults one-shot, the transient-failure shape retries
        are meant to heal.
    probability:
        Chance of firing per eligible activation, drawn from a per-spec
        deterministic RNG.  1.0 (default) always fires.
    delay:
        Sleep duration for ``kind="delay"``.
    error:
        Exception instance (or class) to raise for ``"error"``/``"kill"``.
    custom:
        Opt out of site validation for a site not in :data:`SITES` (an
        application-defined injection point outside the engine's registry).
    """

    site: str
    kind: str = "error"
    after: int = 0
    fires: Optional[int] = 1
    probability: float = 1.0
    delay: float = 0.05
    error: Union[BaseException, Type[BaseException], None] = None
    custom: bool = False

    def __post_init__(self) -> None:
        if not self.custom and self.site not in SITES:
            raise ResilienceError(
                f"unknown fault site {self.site!r}; expected one of {SITES} "
                "(pass custom=True for an application-defined site)"
            )
        if self.kind not in FAULT_KINDS:
            raise ResilienceError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        if self.after < 0:
            raise ResilienceError(f"after must be >= 0, got {self.after}")
        if self.fires is not None and self.fires < 1:
            raise ResilienceError(f"fires must be >= 1 or None, got {self.fires}")
        if not 0.0 < self.probability <= 1.0:
            raise ResilienceError(
                f"probability must be in (0, 1], got {self.probability}"
            )
        if self.delay < 0:
            raise ResilienceError(f"delay must be >= 0, got {self.delay}")


class FaultPlan:
    """A deterministic schedule of :class:`FaultSpec` injections.

    ``fire(site)`` is the whole runtime surface: instrumented code calls it
    at each activation of a site, and the plan raises / sleeps / returns a
    corruption flag according to the matching specs.  ``activations`` and
    ``injected`` expose per-site counts for assertions, and an attached
    :class:`~repro.obs.metrics.MetricsRegistry` receives
    ``resilience.faults_injected.<site>`` counters.

    Example
    -------
    >>> plan = FaultPlan([FaultSpec("shards.decode", after=1)], seed=7)
    >>> plan.fire("shards.decode")  # first activation: spec not yet eligible
    False
    >>> try:
    ...     plan.fire("shards.decode")
    ... except Exception as error:
    ...     type(error).__name__
    'FaultInjectedError'
    >>> plan.fire("shards.decode")  # one-shot: spent after firing once
    False
    """

    def __init__(self, specs: Sequence[FaultSpec], seed: int = 0) -> None:
        self.specs: Tuple[FaultSpec, ...] = tuple(specs)
        self.seed = seed
        #: Per-site activation counts (every ``fire`` call, fault or not).
        self.activations: Dict[str, int] = {}
        #: Per-site counts of faults actually injected.
        self.injected: Dict[str, int] = {}
        self._spec_seen: List[int] = [0] * len(self.specs)
        self._spec_fired: List[int] = [0] * len(self.specs)
        self._rngs: List[random.Random] = [
            random.Random(f"{seed}:{index}:{spec.site}:{spec.kind}")
            for index, spec in enumerate(self.specs)
        ]
        self.metrics = None
        self._sleep: Callable[[float], None] = time.sleep

    def attach_metrics(self, registry) -> None:
        """Count injections into ``registry`` (duck-typed; ``None`` detaches)."""
        self.metrics = registry

    def injected_total(self) -> int:
        """Total faults injected across every site."""
        return sum(self.injected.values())

    def fire(
        self,
        site: str,
        kill_error: Union[BaseException, Type[BaseException], None] = None,
    ) -> bool:
        """Activate ``site``; returns True when a *corruption* fault fired.

        ``"error"``/``"kill"`` specs raise (``kill`` prefers the caller's
        ``kill_error``, the site-appropriate process-death exception);
        ``"delay"`` specs sleep and fall through, so a delay can stack with
        a later error at the same site.
        """
        self.activations[site] = self.activations.get(site, 0) + 1
        corrupt = False
        for index, spec in enumerate(self.specs):
            if spec.site != site:
                continue
            self._spec_seen[index] += 1
            if self._spec_seen[index] <= spec.after:
                continue
            if spec.fires is not None and self._spec_fired[index] >= spec.fires:
                continue
            if spec.probability < 1.0 and self._rngs[index].random() >= spec.probability:
                continue
            self._spec_fired[index] += 1
            self.injected[site] = self.injected.get(site, 0) + 1
            if self.metrics is not None:
                self.metrics.inc(f"resilience.faults_injected.{site}")
            if spec.kind == "delay":
                self._sleep(spec.delay)
                continue
            if spec.kind == "corrupt":
                corrupt = True
                continue
            raise _resolve_error(spec, site, kill_error)
        return corrupt


def _resolve_error(
    spec: FaultSpec,
    site: str,
    kill_error: Union[BaseException, Type[BaseException], None],
) -> BaseException:
    """Pick the exception an ``error``/``kill`` spec raises at ``site``."""
    chosen = spec.error
    if chosen is None and spec.kind == "kill":
        chosen = kill_error
    if chosen is None:
        detail = "injected worker kill" if spec.kind == "kill" else "injected fault"
        return FaultInjectedError(site, detail)
    if isinstance(chosen, BaseException):
        return chosen
    return chosen(f"injected {spec.kind} at site {site!r}")


@contextmanager
def inject_io_faults(plan: FaultPlan, site: str = "io.replace") -> Iterator[FaultPlan]:
    """Route :func:`repro.utils.io.atomic_pickle_dump`'s pre-replace hook
    through ``plan`` for the duration of the block.

    The hook runs *after* the temp file is fully written and *before*
    ``os.replace`` — exactly the window where a process kill must leave the
    previous file intact.  An ``"error"``/``"kill"`` spec at ``site``
    simulates that kill; the crash-consistency tests assert the prior
    artifact is still loadable afterwards.
    """
    from repro.utils import io as io_module

    previous = io_module.set_replace_hook(lambda path: plan.fire(site))
    try:
        yield plan
    finally:
        io_module.set_replace_hook(previous)
