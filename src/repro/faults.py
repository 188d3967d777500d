"""Deterministic, seeded fault injection (system S28).

Every failure path of the fault-tolerance layer — checkpoint capture,
journal durability, worker supervision — must be testable on demand, or
it only runs for the first time in production.  This module is the one
sanctioned mechanism (lint rule DISC007 bans ad-hoc ``if TESTING:``
branches): code under test calls :func:`fault_point` at named sites, and
an armed :class:`FaultPlan` decides deterministically which hit of which
site raises :class:`~repro.exceptions.InjectedFaultError`.

Disarmed (the default, and the only production state) a fault point is a
single module-global read, so instrumented hot paths stay effectively
free.  Arming is explicit: the ``--faults`` CLI flag, the
``REPRO_FAULTS`` environment variable, or :func:`fault_plan` in tests.

Spec grammar (comma-separated rules)::

    disc.round:3         raise on the 3rd hit of site "disc.round"
    journal.fsync:1+     raise on the 1st and every later hit
    worker.crash:p0.25   raise each hit with probability 0.25, seeded

Probability rules draw from a per-site ``random.Random`` seeded with
``(plan seed, site name)``, so a given seed always fails the same hits —
soak runs are reproducible bug reports, not coin flips.

Named sites currently instrumented::

    disc.partition   before merging one mined first-level partition (the
                     shared first-level loop, whatever executor mined it)
    disc.round       before one per-k DISC discovery round
    journal.fsync    before fsyncing an appended journal record
    worker.crash     at the start of each scheduler job attempt
    worker.register  in the coordinator's membership register handler
    worker.heartbeat in the coordinator's membership heartbeat handler
"""

from __future__ import annotations

import random
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from repro.exceptions import InjectedFaultError, InvalidParameterError
from repro.obs import events as obs_events

#: Environment variables consulted by :func:`plan_from_env`.
ENV_SPEC = "REPRO_FAULTS"
ENV_SEED = "REPRO_FAULTS_SEED"


@dataclass(frozen=True, slots=True)
class FaultRule:
    """One arming rule: when hits of *site* should fail.

    Exactly one of the two modes is active: hit-count (``hit`` with
    optional ``repeat``) or seeded Bernoulli (``probability``).
    """

    site: str
    hit: int = 0
    repeat: bool = False
    probability: float | None = None

    def __post_init__(self) -> None:
        if not self.site:
            raise InvalidParameterError("fault rule needs a site name")
        if self.probability is None:
            if self.hit < 1:
                raise InvalidParameterError(
                    f"fault rule for {self.site!r}: hit must be >= 1, "
                    f"got {self.hit}"
                )
        elif not 0.0 < self.probability <= 1.0:
            raise InvalidParameterError(
                f"fault rule for {self.site!r}: probability must be in "
                f"(0, 1], got {self.probability}"
            )


def parse_rule(text: str) -> FaultRule:
    """Parse one ``site:trigger`` rule of the spec grammar."""
    site, sep, trigger = text.strip().partition(":")
    site = site.strip()
    trigger = trigger.strip()
    if not sep or not site or not trigger:
        raise InvalidParameterError(
            f"malformed fault rule {text!r}; expected 'site:N', 'site:N+' "
            "or 'site:pFRACTION'"
        )
    if trigger.startswith("p"):
        try:
            probability = float(trigger[1:])
        except ValueError:
            raise InvalidParameterError(
                f"malformed fault probability in {text!r}"
            ) from None
        return FaultRule(site, probability=probability)
    repeat = trigger.endswith("+")
    if repeat:
        trigger = trigger[:-1]
    try:
        hit = int(trigger)
    except ValueError:
        raise InvalidParameterError(
            f"malformed fault trigger in {text!r}; expected an integer hit "
            "number, 'N+' or 'pFRACTION'"
        ) from None
    return FaultRule(site, hit=hit, repeat=repeat)


class FaultPlan:
    """A deterministic schedule of injected failures, by site.

    Thread-safe: hit counters are kept under a lock so concurrent worker
    threads observe one global hit sequence per site.
    """

    def __init__(self, rules: Iterable[FaultRule] = (),
                 seed: int = 0) -> None:
        self._rules: dict[str, FaultRule] = {}
        for rule in rules:
            if rule.site in self._rules:
                raise InvalidParameterError(
                    f"duplicate fault rule for site {rule.site!r}"
                )
            self._rules[rule.site] = rule
        self.seed = seed
        self._lock = threading.Lock()
        self._hits: dict[str, int] = {}
        self._fired: dict[str, int] = {}
        self._rngs: dict[str, random.Random] = {}

    @classmethod
    def from_spec(cls, spec: str, seed: int = 0) -> "FaultPlan":
        """Build a plan from the comma-separated spec grammar."""
        rules = [
            parse_rule(part)
            for part in spec.split(",")
            if part.strip()
        ]
        if not rules:
            raise InvalidParameterError(f"empty fault spec {spec!r}")
        return cls(rules, seed=seed)

    @property
    def sites(self) -> tuple[str, ...]:
        """The armed site names, sorted."""
        return tuple(sorted(self._rules))

    def hits(self) -> dict[str, int]:
        """Hit counts per site observed so far (armed sites only)."""
        with self._lock:
            return dict(self._hits)

    def fired(self) -> dict[str, int]:
        """How many times each site actually raised."""
        with self._lock:
            return dict(self._fired)

    def check(self, site: str) -> None:
        """Account one hit of *site*; raise when its rule triggers."""
        rule = self._rules.get(site)
        if rule is None:
            return
        with self._lock:
            count = self._hits.get(site, 0) + 1
            self._hits[site] = count
            if rule.probability is not None:
                rng = self._rngs.get(site)
                if rng is None:
                    rng = random.Random(f"{self.seed}:{site}")
                    self._rngs[site] = rng
                fire = rng.random() < rule.probability
            elif rule.repeat:
                fire = count >= rule.hit
            else:
                fire = count == rule.hit
            if fire:
                self._fired[site] = self._fired.get(site, 0) + 1
        if fire:
            # narrated before the raise so the event log shows the fault
            # in sequence with the retry/finished records it caused;
            # carries the ambient trace id of the attempt it interrupted
            obs_events.emit("fault.injected", level="warn", site=site, hit=count)
            raise InjectedFaultError(
                f"injected fault at {site!r} (hit {count})"
            )


#: The armed plan; ``None`` means every fault point is inert.  A module
#: global (not a contextvar) so worker threads started before arming
#: still observe it — fault plans are process-wide by design.
_ACTIVE: FaultPlan | None = None


def arm(plan: FaultPlan | None) -> None:
    """Install *plan* process-wide (``None`` disarms)."""
    global _ACTIVE
    _ACTIVE = plan


def disarm() -> None:
    """Remove any armed plan; fault points become inert again."""
    arm(None)


def active_plan() -> FaultPlan | None:
    """The currently armed plan, if any."""
    return _ACTIVE


@contextmanager
def fault_plan(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Arm *plan* for a block, restoring the previous plan after."""
    previous = _ACTIVE
    arm(plan)
    try:
        yield plan
    finally:
        arm(previous)


def fault_point(site: str) -> None:
    """Declare a named failure site; raises only under an armed plan."""
    plan = _ACTIVE
    if plan is not None:
        plan.check(site)


def plan_from_env(environ: Mapping[str, str]) -> FaultPlan | None:
    """Build a plan from ``REPRO_FAULTS`` / ``REPRO_FAULTS_SEED``.

    Returns ``None`` when the spec variable is unset or empty — the
    caller decides whether and when to arm the result.
    """
    spec = environ.get(ENV_SPEC, "").strip()
    if not spec:
        return None
    seed_text = environ.get(ENV_SEED, "0").strip()
    try:
        seed = int(seed_text)
    except ValueError:
        raise InvalidParameterError(
            f"{ENV_SEED} must be an integer, got {seed_text!r}"
        ) from None
    return FaultPlan.from_spec(spec, seed=seed)
