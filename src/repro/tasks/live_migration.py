"""Live migration of GPU processes between machines (§7, Fig. 13).

PHOS implements pre-copy-style live migration: a soft-recopy checkpoint
streams state to the target over GPU-direct RDMA while the process runs
("the destination should resume exactly at the last execution state"),
then the final quiesce + recopy moves only the dirty delta, and the
process resumes on the target with a pooled context — no redundant
staging through host memory.

Baselines stop the world for the entire transfer: their downtime is the
full copy over 100 Gbps RDMA plus the context-creation barrier.

Downtime = (first step completed on target) - (source stopped for the
final time).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import obs, units
from repro.apps.base import provision
from repro.apps.specs import get_spec
from repro.baselines.cuda_checkpoint import (
    cuda_checkpoint_checkpoint,
    cuda_checkpoint_restore,
)
from repro.baselines.singularity import singularity_checkpoint, singularity_restore
from repro.cluster import Cluster
from repro.core.daemon import Phos
from repro.core.protocols import ProtocolConfig
from repro.errors import InvalidValueError
from repro.sim import Engine
from repro.storage.media import Medium
from repro.tasks.fault_tolerance import EXPERIMENT_CHUNK

#: Per-GPU RDMA NIC bandwidth (100 Gbps each, §8 testbed).
RDMA_PER_GPU = units.RDMA_100GBPS


@dataclass
class MigrationResult:
    system: str
    app: str
    #: Application downtime (seconds) — Fig. 13's metric.
    downtime: float
    #: Wall time of the whole migration (pre-copy included).
    total_time: float
    supported: bool = True


def _rdma_medium(engine: Engine, n_gpus: int) -> Medium:
    """The GPU-direct RDMA path into the target machine's GPU memory.

    One 100 Gbps NIC per GPU; flows from different GPUs ride different
    NICs, so the aggregate is n_gpus x 12.5 GBps.
    """
    bw = n_gpus * RDMA_PER_GPU
    return Medium(engine, name="gpu-direct-rdma", write_bw=bw, read_bw=bw,
                  latency=5 * units.USEC)


def migrate(system: str, spec_name: str, warm_steps: int = 2,
            chunk_bytes: int = EXPERIMENT_CHUNK) -> MigrationResult:
    """Migrate one application between two machines; returns downtime."""
    spec = get_spec(spec_name)
    if system == "cuda-checkpoint" and spec.n_gpus > 1:
        return MigrationResult(system=system, app=spec_name, downtime=float("nan"),
                               total_time=float("nan"), supported=False)
    eng = Engine()
    cluster = Cluster.testbed(eng, n_machines=2, n_gpus=spec.n_gpus)
    src, dst = cluster.machines
    phos_src = Phos(eng, src, use_context_pool=False)
    phos_dst = Phos(eng, dst, use_context_pool=(system == "phos"))
    if system == "phos":
        eng.run_process(phos_dst.boot())
    process, workload = provision(eng, src, spec)
    phos_src.attach(process)
    rdma = _rdma_medium(eng, spec.n_gpus)
    #: Per-GPU flows are NIC-bound: cap each at RDMA, not PCIe.
    scale = min(1.0, RDMA_PER_GPU / src.spec.pcie_bw)

    # The job keeps serving during the live pre-copy; run enough steps
    # to span the transfer window.
    steps_during = max(2, int(10.0 / spec.step_time))

    def driver(eng):
        yield from workload.setup()
        yield from workload.run(warm_steps)
        t_start = eng.now
        if system == "phos":
            handle = phos_src.checkpoint(
                process, mode="recopy", medium=rdma,
                config=ProtocolConfig(keep_stopped=True, bandwidth_scale=scale,
                                      chunk_bytes=chunk_bytes),
            )
            # The application keeps running through the pre-copy; it
            # blocks at the API gate when the final quiesce hits.
            eng.spawn(workload.run(steps_during), name="migrating-app")
            image, session = yield handle
            stop_time = session.final_quiesce_start
            # GPU-direct already placed the data in target GPU memory.
            result = yield from phos_dst.restore(
                image, gpu_indices=list(range(spec.n_gpus)),
                machine=dst, skip_data_copy=True,
            )
            new_process = result[0]
        else:
            stop_time = eng.now
            if system == "singularity":
                image = yield from singularity_checkpoint(
                    eng, process, rdma, phos_src.criu, keep_stopped=True,
                    tracer=phos_src.tracer,
                )
                new_process = yield from singularity_restore(
                    eng, image, dst, list(range(spec.n_gpus)),
                    dst.dram, phos_dst.criu,
                )
            elif system == "cuda-checkpoint":
                image = yield from cuda_checkpoint_checkpoint(
                    eng, process, rdma, phos_src.criu, keep_stopped=True,
                    tracer=phos_src.tracer,
                )
                new_process = yield from cuda_checkpoint_restore(
                    eng, image, dst, list(range(spec.n_gpus)),
                    dst.dram, phos_dst.criu,
                )
            else:
                raise InvalidValueError(f"unknown system {system!r}")
        workload.bind_restored(new_process)
        # Downtime ends when the process can execute again; the step
        # after merely validates that it actually does.
        resumed = eng.now
        obs.record("task/migrate-downtime", stop_time, end=resumed,
                   system=system, app=spec_name)
        obs.record("task/migrate-total", t_start, end=resumed,
                   system=system, app=spec_name)
        yield from workload.run(1)
        return resumed - stop_time, resumed - t_start

    downtime, total = eng.run_process(driver(eng))
    eng.run()
    return MigrationResult(system=system, app=spec_name,
                           downtime=downtime, total_time=total)
