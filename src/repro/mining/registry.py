"""Algorithm registry (system S20).

Every miner is a callable ``(members, delta, **options) -> dict`` mapping
frequent raw sequences to supports.  The registry gives them stable names
for the API, CLI and benchmark harness; downstream code can register its
own variants.
"""

from __future__ import annotations

from typing import Callable, Iterable

from repro.baselines.bruteforce import mine_bruteforce
from repro.baselines.gsp import mine_gsp
from repro.baselines.prefixspan import mine_prefixspan
from repro.baselines.pseudo import mine_pseudo_prefixspan
from repro.baselines.spade import mine_spade
from repro.baselines.spam import mine_spam
from repro.core.discall import disc_all
from repro.core.dynamic import dynamic_disc_all, multilevel_disc_all
from repro.core.sequence import RawSequence
from repro.exceptions import UnknownAlgorithmError

Members = Iterable[tuple[int, RawSequence]]
Miner = Callable[..., dict[RawSequence, int]]


def _disc_all(members: Members, delta: int, **options) -> dict[RawSequence, int]:
    return disc_all(members, delta, **options).patterns


def _disc_all_plain(members: Members, delta: int, **options) -> dict[RawSequence, int]:
    return disc_all(members, delta, bilevel=False, **options).patterns


def _dynamic(members: Members, delta: int, **options) -> dict[RawSequence, int]:
    return dynamic_disc_all(members, delta, **options).patterns


def _multilevel(members: Members, delta: int, **options) -> dict[RawSequence, int]:
    return multilevel_disc_all(members, delta, **options).patterns


_REGISTRY: dict[str, Miner] = {}

#: The four strategies of the paper's Table 5.
CANDIDATE_PRUNING = "candidate sequence pruning"
DATABASE_PARTITIONING = "database partitioning"
CUSTOMER_REDUCING = "customer sequence reducing"
DISC = "DISC"

_ALL_FOUR = frozenset(
    {CANDIDATE_PRUNING, DATABASE_PARTITIONING, CUSTOMER_REDUCING, DISC}
)

#: Which strategies each registered algorithm employs (Table 5, extended
#: with this repository's variants).
STRATEGIES: dict[str, frozenset[str]] = {
    "gsp": frozenset({CANDIDATE_PRUNING}),
    "spade": frozenset({CANDIDATE_PRUNING, DATABASE_PARTITIONING}),
    "spam": frozenset({CANDIDATE_PRUNING, DATABASE_PARTITIONING}),
    "prefixspan": frozenset(
        {CANDIDATE_PRUNING, DATABASE_PARTITIONING, CUSTOMER_REDUCING}
    ),
    "pseudo": frozenset(
        {CANDIDATE_PRUNING, DATABASE_PARTITIONING, CUSTOMER_REDUCING}
    ),
    "disc-all": _ALL_FOUR,
    "disc-all-plain": _ALL_FOUR,
    "dynamic-disc-all": _ALL_FOUR,
    "multilevel-disc-all": _ALL_FOUR,
    "bruteforce": frozenset({CANDIDATE_PRUNING}),
}


#: Miners wired to the checkpoint recorder (:mod:`repro.core.checkpoint`):
#: the DISC-all variants whose partition loops notify round boundaries.
#: Mutable so :func:`register_algorithm` can admit new resumable miners
#: (the cluster coordinator registers ``disc-all-cluster`` at serve time).
RESUMABLE_ALGORITHMS: set[str] = {"disc-all", "disc-all-plain"}


def supports_resume(name: str) -> bool:
    """Whether *name* participates in checkpoint/resume.

    Only resumable miners can honour ``mine(resume_from=...)`` or emit
    checkpoints; for every other algorithm cancellation still unwinds
    with :class:`~repro.exceptions.OperationCancelledError`.
    """
    return name in RESUMABLE_ALGORITHMS


def strategies_of(name: str) -> frozenset[str]:
    """The Table-5 strategies used by a registered algorithm."""
    if name not in _REGISTRY:
        raise UnknownAlgorithmError(f"unknown algorithm {name!r}")
    return STRATEGIES.get(name, frozenset())


def register_algorithm(
    name: str,
    miner: Miner,
    replace: bool = False,
    strategies: Iterable[str] | None = None,
    resumable: bool = False,
) -> None:
    """Register *miner* under *name*; refuses silent overwrites.

    *strategies* records the Table-5 strategies the miner employs (shown
    by ``strategies_of``); *resumable* declares that the miner notifies
    the active :class:`~repro.core.checkpoint.CheckpointRecorder` at
    partition boundaries, admitting it to checkpoint/resume.
    """
    if name in _REGISTRY and not replace:
        raise ValueError(f"algorithm {name!r} already registered")
    _REGISTRY[name] = miner
    if strategies is not None:
        STRATEGIES[name] = frozenset(strategies)
    if resumable:
        RESUMABLE_ALGORITHMS.add(name)


def get_algorithm(name: str) -> Miner:
    """Resolve a miner by name; raises UnknownAlgorithmError."""
    try:
        return _REGISTRY[name]
    except KeyError:
        # repro: allow[DISC002] — algorithm name strings, not sequences
        known = ", ".join(sorted(_REGISTRY))
        raise UnknownAlgorithmError(
            f"unknown algorithm {name!r}; known: {known}"
        ) from None


def available_algorithms() -> list[str]:
    """Names of all registered algorithms, sorted."""
    # repro: allow[DISC002] — algorithm name strings, not sequences
    return sorted(_REGISTRY)


for _name, _miner in {
    "disc-all": _disc_all,
    "disc-all-plain": _disc_all_plain,
    "dynamic-disc-all": _dynamic,
    "multilevel-disc-all": _multilevel,
    "prefixspan": mine_prefixspan,
    "pseudo": mine_pseudo_prefixspan,
    "gsp": mine_gsp,
    "spade": mine_spade,
    "spam": mine_spam,
    "bruteforce": mine_bruteforce,
}.items():
    register_algorithm(_name, _miner)
