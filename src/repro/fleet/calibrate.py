"""Per-(system, function) service profiles for the fleet simulation.

The fleet runs thousands of invocations; simulating every one of them
through the full C/R protocol stack would make the fleet's wall clock
scale with traffic instead of with the scheduler's decisions.  Instead
the fleet is a *two-level* simulation: each (system, function) pair is
probed **once** with the real protocol machinery — the exact Fig. 14
cold-start measurement (:func:`repro.tasks.serverless.cold_start`),
its no-context-pool variant, and (when migration-for-packing is on)
the real Fig. 13 live-migration downtime
(:func:`repro.tasks.live_migration.migrate`) — and the fleet's
discrete-event scheduler then replays those calibrated service times
under load.  The probes are deterministic (virtual-clock simulations),
so profiles are bit-identical in every worker process.

The compiled kernel plans do not change any probe's virtual-time
result (they are checked against the interpreter), so a cached profile
does not depend on which kernels took the fast path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable

from repro import units
from repro.apps.specs import get_spec
from repro.errors import InvalidValueError

#: Systems the fleet can serve a trace with (Fig. 14's comparison set).
SYSTEMS = ("phos", "singularity", "cuda-checkpoint")


@dataclass(frozen=True)
class FunctionProfile:
    """Calibrated service model of one function under one system.

    ``start_s``/``nopool_start_s`` are the restore component of the
    end-to-end cold start (with / without a pooled GPU context);
    ``exec_s`` is the function-execution component.  A pool *hit*
    serves in ``start_s + exec_s``; a snapshot miss additionally pays
    the image fetch from remote storage; a context miss swaps
    ``start_s`` for ``nopool_start_s``.
    """

    system: str
    function: str
    n_gpus: int
    supported: bool
    #: Restore time with a warm image and (phos) a pooled context.
    start_s: float
    #: Restore time when no pooled context is available (== ``start_s``
    #: for the baselines, which never pool).
    nopool_start_s: float
    #: Function-execution component of the end-to-end time.
    exec_s: float
    #: Committed checkpoint-image size, for the miss fetch penalty.
    image_bytes: int
    #: Live-migration downtime (0 when migration is not calibrated).
    migration_downtime_s: float = 0.0

    @property
    def service_s(self) -> float:
        """Warm-path service time (the Fig. 14 end-to-end metric)."""
        return self.start_s + self.exec_s

    def fetch_s(self, bandwidth: float = units.RDMA_100GBPS) -> float:
        """Fetching the image from remote storage on a snapshot miss."""
        return units.transfer_time(self.image_bytes, bandwidth,
                                   units.RDMA_LINK_LATENCY)


#: Probe cache: (system, function, n_requests) -> FunctionProfile
#: (without migration calibration, which is cached separately since it
#: is only paid when migration-for-packing is enabled).
_profiles: dict[tuple, FunctionProfile] = {}
_migration_downtime: dict[str, float] = {}


def profile(system: str, function: str, n_requests: int = 2,
            migration: bool = False) -> FunctionProfile:
    """Measure (or fetch from cache) one function's service profile."""
    if system not in SYSTEMS:
        raise InvalidValueError(
            f"unknown system {system!r}; expected one of {SYSTEMS}"
        )
    key = (system, function, n_requests)
    prof = _profiles.get(key)
    if prof is None:
        prof = _measure(system, function, n_requests)
        _profiles[key] = prof
    if migration and prof.supported and not prof.migration_downtime_s:
        prof = replace(
            prof, migration_downtime_s=_migration_probe(function))
        _profiles[key] = prof
    return prof


def profiles_for(system: str, functions: Iterable[str],
                 n_requests: int = 2,
                 migration: bool = False) -> dict[str, FunctionProfile]:
    """Profiles for a whole catalog, keyed by function name.

    Migration downtime is only calibrated for functions that can
    actually be migration victims — the bin-packing scheduler only
    moves jobs strictly smaller than the stranded head-of-queue
    request, so the largest catalog entry never pays the probe.
    """
    functions = list(functions)
    max_gpus = max(get_spec(f).n_gpus for f in functions)
    return {
        f: profile(system, f, n_requests=n_requests,
                   migration=migration and get_spec(f).n_gpus < max_gpus)
        for f in functions
    }


def _measure(system: str, function: str, n_requests: int) -> FunctionProfile:
    from repro.tasks.serverless import cold_start

    spec = get_spec(function)
    warm = cold_start(system, function, n_requests=n_requests)
    if not warm.supported:
        nan = float("nan")
        return FunctionProfile(
            system=system, function=function, n_gpus=spec.n_gpus,
            supported=False, start_s=nan, nopool_start_s=nan, exec_s=nan,
            image_bytes=0,
        )
    start_s = warm.end_to_end - warm.exec_time
    if system == "phos":
        nopool = cold_start(system, function, n_requests=n_requests,
                            use_pool=False)
        nopool_start_s = nopool.end_to_end - nopool.exec_time
    else:
        # The baselines pay the context barrier on every restore
        # already; there is no pooled variant to distinguish.
        nopool_start_s = start_s
    return FunctionProfile(
        system=system, function=function, n_gpus=spec.n_gpus,
        supported=True, start_s=start_s, nopool_start_s=nopool_start_s,
        exec_s=warm.exec_time, image_bytes=warm.image_bytes,
    )


def _migration_probe(function: str) -> float:
    """Fig. 13 live-migration downtime for one function (cached)."""
    downtime = _migration_downtime.get(function)
    if downtime is None:
        from repro.tasks.live_migration import migrate

        result = migrate("phos", function)
        downtime = result.downtime
        if math.isnan(downtime):  # pragma: no cover - phos always supports
            raise InvalidValueError(
                f"migration probe for {function!r} is unsupported"
            )
        _migration_downtime[function] = downtime
    return downtime


def clear_cache() -> None:
    """Drop every cached probe (tests that monkeypatch the task layer)."""
    _profiles.clear()
    _migration_downtime.clear()
