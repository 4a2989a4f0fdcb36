"""Record the reference outputs the benchmark checks against.

Run from the repository root, only at a commit whose virtual-time
results are known good::

    PYTHONPATH=src python3 perfbench/record.py [workload ...]

``recopy-ckpt`` needs no recording: it is checked against the Fig. 17
golden under ``tests/goldens``.
"""

from __future__ import annotations

import json
import sys

import workloads as wl


def record_coldstart() -> dict:
    from repro.experiments import fig14_serverless as fig14

    from repro.tasks.serverless import cold_start

    w = wl.ColdstartRestore()
    return {f"{app}/{system}": w.output(
                {}, "", cold_start(system, app, n_requests=w.n_requests))
            for app in fig14.APPS for system in fig14.SYSTEMS}


def record_continuous() -> dict:
    return {str(v): wl.chain_outputs(
                wl.stream_chain(wl.ContinuousCkpt.app, factor))
            for v, factor in enumerate(wl.STREAM_INTERVAL_FACTORS)}


def record_fleet() -> dict:
    from repro.fleet import FleetConfig, run_fleet
    from repro.fleet.calibrate import SYSTEMS

    out = {}
    for trace_seed in range(1, wl.FLEET_TRACES + 1):
        trace = wl.make_trace(trace_seed)
        out[str(trace_seed)] = {
            s: wl.fleet_output(run_fleet(trace, FleetConfig(system=s)))
            for s in SYSTEMS}
    return out


RECORDERS = {
    "coldstart-restore": record_coldstart,
    "continuous-ckpt": record_continuous,
    "fleet-replay": record_fleet,
}


def main(argv: list[str]) -> int:
    names = argv or list(RECORDERS)
    unknown = [n for n in names if n not in RECORDERS]
    if unknown:
        print(f"no reference to record for {unknown}; choose from "
              f"{sorted(RECORDERS)}", file=sys.stderr)
        return 2
    wl.REFERENCES.mkdir(exist_ok=True)
    for name in names:
        data = RECORDERS[name]()
        path = wl.REFERENCES / f"{name}.json"
        path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
