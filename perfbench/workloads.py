"""The benchmark's four workloads.

Each workload is a closed batch: one client issues its operations one
after another and waits for each to finish.  A batch runs in a fresh
process (see ``worker.py``), so caches the program builds up (kernel
plans, chunk hashes, calibrated fleet profiles) start cold every time.

A workload has four parts:

* ``setup(seed)`` builds the inputs from the seed and loads the
  reference outputs.  It counts as set-up, not as the batch.  The two
  figure workloads reproduce fixed paper configurations, so their
  inputs do not depend on the seed; a seeded op order would make peak
  memory depend on which app runs last.
* ``ops(state)`` lists the operations in the order the client issues
  them; each returns the program's raw result.
* ``output(state, op_id, raw)`` turns a raw result into the op's
  virtual-time output in canonical form (see :func:`canon`).  It runs
  after the timed region.
* ``check(state, op_id, output)`` says whether an output matches the
  reference.

Virtual-time outputs are deterministic, so they are compared exactly.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REFERENCES = BENCH_DIR / "references"
FIG17_GOLDEN = Path("tests") / "goldens" / "fig17.txt"

#: Number of distinct fleet traces; ``--seed n`` replays trace
#: ``1 + n % FLEET_TRACES``, each with a recorded reference.
FLEET_TRACES = 8
#: Virtual seconds of traffic per fleet trace (about 14.5K requests).
FLEET_DURATION_S = 7200.0

#: Continuous-stream shapes; ``--seed n`` picks ``n % len(...)``.  The
#: factor scales the interval between rounds relative to one training
#: iteration, which changes how rounds interleave with training.
STREAM_INTERVAL_FACTORS = (1.0, 1.25, 1.5, 2.0)
#: Rounds of the continuous stream (round 0 is the stream's own root).
STREAM_ROUNDS = 6
#: Training steps run while the stream is live; the same for every
#: interval factor, so the host work does not depend on the seed.
STREAM_STEPS = 16


def canon(value):
    """A JSON-ready copy of ``value`` that compares exactly.

    Floats become their ``repr`` (shortest round-trip form, NaN-safe);
    tuples become lists; mappings get string keys.
    """
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, dict):
        return {str(k): canon(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [canon(v) for v in value]
    return value


def load_reference(name: str) -> dict:
    with open(REFERENCES / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


class Workload:
    name = ""

    def check(self, state: dict, op_id: str, output) -> bool:
        """Every field the reference records must match exactly.

        Fields the program adds later are not compared, so an added
        report field does not read as a changed result.
        """
        reference = state["reference"].get(op_id)
        return reference is not None and all(
            k in output and output[k] == v for k, v in reference.items())

    def fleet_requests(self, state: dict) -> int:
        """Trace requests the batch serves through the fleet."""
        return 0


# --------------------------------------------------------------------------
# recopy-ckpt: Fig. 17
# --------------------------------------------------------------------------

class RecopyCkpt(Workload):
    """Recopy checkpoints of an 8-GPU inference app while it decodes."""

    name = "recopy-ckpt"

    def setup(self, seed: int) -> dict:
        from repro.experiments import fig17_recopy_breakdown as fig17

        lines = FIG17_GOLDEN.read_text(encoding="utf-8").splitlines()
        columns = lines[1].split()
        # Rows sit between the dashes line and the "-- notes" line.
        golden = {}
        for line in lines[3:]:
            if line.startswith("-- "):
                break
            tokens = line.split()
            golden[tokens[0]] = tokens
        return {"fig17": fig17, "columns": columns, "golden": golden,
                "cells": fig17.cells()}

    def ops(self, state: dict) -> list:
        fig17 = state["fig17"]

        def op(cell):
            return lambda: fig17.run_cell(cell)

        return [(cell.key[0], op(cell)) for cell in state["cells"]]

    def output(self, state: dict, op_id: str, raw):
        return [row_tokens(state["columns"], row) for row in raw]

    def check(self, state: dict, op_id: str, output) -> bool:
        return output == [state["golden"].get(op_id)]


def row_tokens(columns: list[str], row: dict) -> list[str]:
    """One result row as the figure table prints it, split on spaces."""
    from repro.experiments.harness import ExperimentResult

    result = ExperimentResult(exp_id="row", title="", columns=columns)
    result.add(**row)
    return result.format().splitlines()[-1].split()


# --------------------------------------------------------------------------
# coldstart-restore: Fig. 14
# --------------------------------------------------------------------------

class ColdstartRestore(Workload):
    """Serverless cold starts: restore, then serve 8 requests."""

    name = "coldstart-restore"
    n_requests = 8

    def setup(self, seed: int) -> dict:
        from repro.experiments import fig14_serverless as fig14

        pairs = [(app, system) for app in fig14.APPS
                 for system in fig14.SYSTEMS]
        return {"pairs": pairs, "reference": load_reference(self.name)}

    def ops(self, state: dict) -> list:
        from repro.tasks.serverless import cold_start

        def op(app, system):
            return lambda: cold_start(system, app,
                                      n_requests=self.n_requests)

        return [(f"{app}/{system}", op(app, system))
                for app, system in state["pairs"]]

    def output(self, state: dict, op_id: str, raw):
        return canon(dataclasses.asdict(raw))


# --------------------------------------------------------------------------
# continuous-ckpt: incremental chain + continuous stream
# --------------------------------------------------------------------------

class ContinuousCkpt(Workload):
    """Incremental root + delta, then a continuous stream while training."""

    name = "continuous-ckpt"
    app = "llama2-13b-train"

    def setup(self, seed: int) -> dict:
        variant = seed % len(STREAM_INTERVAL_FACTORS)
        reference = load_reference(self.name)[str(variant)]
        return {"factor": STREAM_INTERVAL_FACTORS[variant],
                "reference": reference}

    def op_ids(self) -> list[str]:
        return ["root", "delta"] + [f"round{r}" for r in range(STREAM_ROUNDS)]

    def ops(self, state: dict) -> list:
        # The ops share one world and one driver process: the client
        # checkpoints the same training job again and again.  One op
        # runs the whole chain and the rest read its outputs, so a
        # fault fails every op it prevented.
        chain: dict = {}

        def run_chain():
            chain.update(stream_chain(self.app, state["factor"]))
            return chain

        def read_chain():
            if not chain:
                raise RuntimeError("the chain did not run")
            return chain

        return [(op_id, run_chain if op_id == "root" else read_chain)
                for op_id in self.op_ids()]

    def output(self, state: dict, op_id: str, raw):
        return chain_outputs(raw)[op_id]


def image_output(image) -> dict:
    return canon({
        "checkpoint_time": image.checkpoint_time,
        "logical_bytes": image.total_bytes(),
        "stored_bytes": image.stored_bytes(),
        "chunks_written": image.chunks_written,
        "chunks_reused": image.chunks_reused,
    })


def stream_chain(app: str, factor: float) -> dict:
    """Root, one delta, then a continuous stream; the raw results."""
    from repro.experiments import harness

    world = harness.build_world(app)
    harness.setup_app(world)
    eng, phos, workload = world.engine, world.phos, world.workload

    def driver(eng):
        yield from workload.run(1)
        root, _ = yield phos.checkpoint(
            world.process, mode="incremental", name="root",
            config=harness.experiment_config())
        yield from workload.run(2, start=1)
        delta, _ = yield phos.checkpoint(
            world.process, mode="incremental", name="delta",
            config=harness.experiment_config(parent=root))
        t0 = eng.now
        yield from workload.run(2, start=3)
        iteration = (eng.now - t0) / 2
        # The stream starts its own chain: a parent that was never
        # drained below DRAM would leave every lower-tier replica
        # without its parent.
        handle = phos.checkpoint(
            world.process, mode="continuous", name="stream",
            config=harness.experiment_config(
                rounds=STREAM_ROUNDS, interval=factor * iteration))
        t1 = eng.now
        yield from workload.run(STREAM_STEPS, start=5)
        train_s = eng.now - t1
        _, stream = yield handle
        return root, delta, stream, train_s

    root, delta, stream, train_s = eng.run_process(driver(eng))
    eng.run()
    return {"root": root, "delta": delta, "stream": stream,
            "train_s": train_s}


def chain_outputs(chain: dict) -> dict:
    """Canonical output of every op of a :func:`stream_chain` run."""
    stream = chain["stream"]
    out = {"root": image_output(chain["root"]),
           "delta": image_output(chain["delta"])}
    for r, image in enumerate(stream.images):
        out[f"round{r}"] = image_output(image)
    stats = stream.drain_stats
    last = f"round{len(stream.images) - 1}"
    out[last] = dict(out[last], **canon({
        "rounds_committed": stream.rounds_committed,
        "complete": stream.complete,
        "train_s": chain["train_s"],
        "images_drained": stats.images_drained,
        "backpressure_waits": stats.backpressure_waits,
        "drained_bytes": dict(sorted(stats.bytes_per_tier.items())),
    }))
    return out


# --------------------------------------------------------------------------
# fleet-replay: a bursty trace served by each system
# --------------------------------------------------------------------------

class FleetReplay(Workload):
    """Hours of bursty serverless traffic, replayed per system."""

    name = "fleet-replay"

    def setup(self, seed: int) -> dict:
        from repro.fleet import FleetConfig, profiles_for
        from repro.fleet.calibrate import SYSTEMS

        trace_seed = 1 + seed % FLEET_TRACES
        trace = make_trace(trace_seed)
        # Calibration probes run here, so the timed replays hit the
        # profile cache exactly as run_fleet's own lookup does.
        for system in SYSTEMS:
            cfg = FleetConfig(system=system)
            profiles_for(system, trace.config.functions,
                         n_requests=cfg.requests_per_call,
                         migration=cfg.migration and system == "phos")
        reference = load_reference(self.name)[str(trace_seed)]
        return {"trace": trace, "systems": SYSTEMS, "reference": reference}

    def ops(self, state: dict) -> list:
        from repro.fleet import FleetConfig, run_fleet

        def op(system):
            return lambda: run_fleet(state["trace"],
                                     FleetConfig(system=system))

        return [(system, op(system)) for system in state["systems"]]

    def output(self, state: dict, op_id: str, raw):
        return fleet_output(raw)

    def fleet_requests(self, state: dict) -> int:
        return len(state["trace"]) * len(state["systems"])


def make_trace(trace_seed: int):
    from repro.fleet import TraceConfig, generate
    from repro.fleet.traces import DEFAULT_WEIGHTS

    return generate(TraceConfig(kind="bursty", duration=FLEET_DURATION_S,
                                seed=trace_seed, weights=DEFAULT_WEIGHTS))


#: The per-request fields the fleet-replay digest covers.
RECORD_FIELDS = ("index", "function", "arrival", "outcome", "machine",
                 "start", "end", "cold_start_s", "restore_s", "warm",
                 "pooled_ctx", "retries", "migrations")


def fleet_output(report) -> dict:
    """One system's fleet report: its summary plus a digest of records."""
    digest = hashlib.sha256()
    for record in report.records:
        digest.update(repr(tuple(getattr(record, f)
                                 for f in RECORD_FIELDS)).encode())
    return canon(dict(report.summary(), records_sha256=digest.hexdigest()))


WORKLOADS = {w.name: w for w in (RecopyCkpt(), ColdstartRestore(),
                                 ContinuousCkpt(), FleetReplay())}
