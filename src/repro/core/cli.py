"""The ``phos`` command-line tool (§3, component 1).

The real tool checkpoints/restores/migrates live processes by PID; this
reproduction has no processes to attach to, so each subcommand runs the
corresponding end-to-end flow against a chosen simulated application
and reports the outcome:

* ``phos apps`` — list the Table 4 application models;
* ``phos protocols`` — list the registered C/R protocols, their phases
  and supported config fields;
* ``phos checkpoint --app X [--mode cow|recopy|stop-world|hw-dirty]``
  — run the app, take a checkpoint (any registered protocol), report
  the stall and image size;
* ``phos restore --app X [--stop-world] [--no-pool]`` — checkpoint then
  cold-restore, report time-to-resume and totals;
* ``phos migrate --app X [--system ...]`` — live-migrate between two
  machines, report the downtime;
* ``phos study`` — the §8.5 speculation feasibility study (Table 3);
* ``phos fleet --trace bursty --seed 1`` — serve a serverless traffic
  trace with a simulated multi-machine GPU fleet, reporting P50/P99/
  P999 cold-start latency, goodput and queue depth per system;
* ``phos bench --exp figNN`` — regenerate one paper figure/table.
"""

from __future__ import annotations

import argparse
import sys

from repro import units
from repro.apps.base import provision
from repro.apps.specs import APP_SPECS, get_spec
from repro.cluster import Machine
from repro.core.daemon import Phos
from repro.core.protocols import registry
from repro.sim import Engine

_EXPERIMENTS = {
    "fig02": "repro.experiments.fig02_motivation",
    "fig11": "repro.experiments.fig11_stall",
    "fig12": "repro.experiments.fig12_wasted",
    "fig13": "repro.experiments.fig13_migration",
    "fig14": "repro.experiments.fig14_serverless",
    "fig15": "repro.experiments.fig15_validator",
    "fig16": "repro.experiments.fig16_cow_breakdown",
    "fig17": "repro.experiments.fig17_recopy_breakdown",
    "fig18": "repro.experiments.fig18_restore_breakdown",
    "fig19": "repro.experiments.fig19_timing",
    "fig20": "repro.experiments.fig20_heatmap",
    "fleet": "repro.experiments.fig_fleet",
    "tab03": "repro.experiments.tab03_speculation",
    "tab04": "repro.experiments.tab04_setups",
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 1
    profile = getattr(args, "profile", None)
    if profile is None:
        return args.func(args)
    from repro.experiments.harness import maybe_profile

    path = profile or _default_profile_path(args)
    with maybe_profile(path):
        rc = args.func(args)
    print(f"(cProfile stats written to {path})")
    return rc


def _default_profile_path(args) -> str:
    """Where ``--profile`` without a filename writes its stats.

    Lands next to the ``--obs-json`` output when one was requested, so
    the wall-clock breakdown sits beside the virtual-time snapshot.
    """
    obs_json = getattr(args, "obs_json", None)
    if obs_json:
        return f"{obs_json}.prof.txt"
    return "phos-profile.txt"


def _positive_int(text: str) -> int:
    """argparse type for ``--jobs``: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phos",
        description="PhoenixOS reproduction: concurrent GPU checkpoint/restore",
    )
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("apps", help="list the application models")
    p.set_defaults(func=cmd_apps)

    p = sub.add_parser("protocols",
                       help="list the registered C/R protocols")
    p.set_defaults(func=cmd_protocols)

    p = sub.add_parser("checkpoint", help="checkpoint a running application")
    p.add_argument("--app", default="resnet152-train", choices=sorted(APP_SPECS))
    p.add_argument("--mode", default="cow",
                   choices=registry.names("checkpoint"))
    p.add_argument("--steps", type=int, default=3,
                   help="iterations to run concurrently with the checkpoint")
    p.add_argument("--incremental", action="store_true",
                   help="take a chain-root checkpoint first, run --steps "
                        "more iterations, then measure an incremental "
                        "(delta) checkpoint chained onto it")
    p.add_argument("--continuous", action="store_true",
                   help="stream a chain of incremental checkpoints with "
                        "asynchronous tiered write-behind (DRAM -> SSD -> "
                        "remote) instead of one checkpoint")
    p.add_argument("--rounds", type=int, default=3,
                   help="rounds for --continuous (root + deltas)")
    p.add_argument("--interval", type=float, default=0.0,
                   help="virtual seconds between --continuous rounds")
    p.add_argument("--obs", action="store_true",
                   help="print the observability report (phases, DMA, counters)")
    p.add_argument("--obs-json", metavar="FILE",
                   help="also dump the observability snapshot as JSON")
    p.add_argument("--profile", nargs="?", const="", metavar="FILE",
                   help="profile the run with cProfile; stats go to FILE "
                        "(default: next to --obs-json output)")
    p.set_defaults(func=cmd_checkpoint)

    p = sub.add_parser("restore", help="checkpoint then cold-restore an app")
    p.add_argument("--app", default="resnet152-infer", choices=sorted(APP_SPECS))
    p.add_argument("--stop-world", action="store_true",
                   help="use the stop-the-world restore instead of concurrent")
    p.add_argument("--no-pool", action="store_true",
                   help="create contexts from scratch (no context pool)")
    p.add_argument("--obs", action="store_true",
                   help="print the observability report (phases, DMA, counters)")
    p.add_argument("--obs-json", metavar="FILE",
                   help="also dump the observability snapshot as JSON")
    p.add_argument("--profile", nargs="?", const="", metavar="FILE",
                   help="profile the run with cProfile; stats go to FILE "
                        "(default: next to --obs-json output)")
    p.set_defaults(func=cmd_restore)

    p = sub.add_parser("migrate", help="live-migrate an app between machines")
    p.add_argument("--app", default="resnet152-train", choices=sorted(APP_SPECS))
    p.add_argument("--system", default="phos",
                   choices=("phos", "singularity", "cuda-checkpoint"))
    p.set_defaults(func=cmd_migrate)

    p = sub.add_parser("study", help="run the §8.5 speculation study (Table 3)")
    p.add_argument("--profile", nargs="?", const="", metavar="FILE",
                   help="profile the run with cProfile; stats go to FILE "
                        "(default: next to --obs-json output)")
    p.set_defaults(func=cmd_study)

    p = sub.add_parser(
        "chaos",
        help="run the crash-consistency matrix (fault injection sweep)",
    )
    p.add_argument("--seed", type=int, default=1,
                   help="fault-plan seed (the sweep is deterministic in it)")
    p.add_argument("--checkpoint-protocol", action="append", default=None,
                   metavar="NAME", choices=registry.names("checkpoint"),
                   help="restrict the checkpoint axis (repeatable)")
    p.add_argument("--restore-protocol", action="append", default=None,
                   metavar="NAME", choices=registry.names("restore"),
                   help="restrict the restore axis (repeatable)")
    p.add_argument("--quiet", action="store_true",
                   help="print only the summary line and failures")
    p.set_defaults(func=cmd_chaos)

    p = sub.add_parser(
        "fleet",
        help="serve a serverless traffic trace with a simulated GPU fleet",
    )
    p.add_argument("--trace", default="bursty",
                   choices=("poisson", "bursty", "diurnal"),
                   help="arrival process of the traffic trace")
    p.add_argument("--seed", type=int, default=1,
                   help="trace seed (ignored when --seeds is given)")
    p.add_argument("--seeds", type=int, nargs="+", default=None,
                   metavar="N",
                   help="run several seeds and add pooled seed=all rows")
    p.add_argument("--system", action="append", default=None,
                   choices=("phos", "singularity", "cuda-checkpoint"),
                   help="restrict the system axis (repeatable; "
                        "default: all three)")
    p.add_argument("--duration", type=float, default=60.0,
                   help="trace horizon, virtual seconds")
    p.add_argument("--rate", type=float, default=2.0,
                   help="long-run mean arrival rate, requests/second")
    p.add_argument("--machines", type=int, default=2,
                   help="machines in the fleet")
    p.add_argument("--gpus", type=int, default=8,
                   help="GPUs per machine")
    p.add_argument("--pool-size", type=int, default=4,
                   help="warm snapshot images each machine keeps (LRU)")
    p.add_argument("--queue-cap", type=int, default=32,
                   help="admission control: max queued requests")
    p.add_argument("--failures", type=float, default=0.0, metavar="PER_HOUR",
                   help="per-machine failure rate (exercises "
                        "failure-driven restore)")
    p.add_argument("--no-migration", action="store_true",
                   help="disable migration-for-packing")
    p.add_argument("--jobs", type=_positive_int, default=None, metavar="N",
                   help="fan (trace, seed, system) cells over up to N "
                        "worker processes, at most one per usable CPU "
                        "(output is bit-identical at any N)")
    p.set_defaults(func=cmd_fleet)

    p = sub.add_parser("bench", help="regenerate one paper figure/table")
    p.add_argument("--exp", required=True, choices=sorted(_EXPERIMENTS))
    p.add_argument("--jobs", type=_positive_int, default=None, metavar="N",
                   help="fan independent experiment cells out over up to "
                        "N worker processes, at most one per usable CPU "
                        "(default 1; output is bit-identical at any N)")
    p.add_argument("--obs", action="store_true",
                   help="print one observability report per simulated world")
    p.add_argument("--profile", nargs="?", const="", metavar="FILE",
                   help="profile the run with cProfile; stats go to FILE "
                        "(default: next to --obs-json output)")
    p.set_defaults(func=cmd_bench)
    return parser


def _emit_obs(observer, label: str = "", json_path: str | None = None) -> None:
    """Print the obs report (and optionally dump JSON) for one observer."""
    from repro.obs import export

    print()
    print(export.render(observer, label=label))
    if json_path:
        with open(json_path, "w", encoding="utf-8") as fh:
            fh.write(export.to_json(observer))
        print(f"(observability snapshot written to {json_path})")


def cmd_apps(args) -> int:
    print(f"{'name':20s} {'kind':6s} {'gpus':>4s} {'mem/GPU':>9s} "
          f"{'buffers':>8s} {'kernels':>8s} {'step':>8s}")
    for name, spec in APP_SPECS.items():
        print(f"{name:20s} {spec.kind:6s} {spec.n_gpus:4d} "
              f"{spec.mem_per_gpu / units.GIB:8.1f}G {spec.n_buffers:8d} "
              f"{spec.n_kernels:8d} {units.fmt_seconds(spec.step_time):>8s}")
    return 0


def cmd_protocols(args) -> int:
    alias_of: dict[tuple[str, str], list[str]] = {}
    for kind in ("checkpoint", "restore"):
        for alias, canonical in registry.aliases(kind).items():
            alias_of.setdefault((kind, canonical), []).append(alias)
    print(f"{'kind':11s} {'name':11s} {'aliases':28s} {'config fields'}")
    for kind in ("checkpoint", "restore"):
        for name in registry.names(kind):
            cls = registry.get(name, kind)
            aliases = ", ".join(sorted(alias_of.get((kind, name), []))) or "-"
            fields = ", ".join(sorted(cls.supports)) or "-"
            print(f"{kind:11s} {name:11s} {aliases:28s} {fields}")
            print(f"{'':11s} {'':11s} phases: {' -> '.join(cls.phases())}")
            if cls.summary:
                print(f"{'':11s} {'':11s} {cls.summary}")
    return 0


def cmd_checkpoint(args) -> int:
    engine = Engine()
    observer = None
    if args.obs or args.obs_json:
        from repro import obs

        observer = obs.install(engine)
    spec = get_spec(args.app)
    machine = Machine(engine, n_gpus=spec.n_gpus)
    phos = Phos(engine, machine, use_context_pool=False)
    process, workload = provision(engine, machine, spec)
    phos.attach(process)

    if args.continuous:
        mode = "continuous"
    elif args.incremental:
        mode = "incremental"
    else:
        mode = args.mode

    def driver(engine):
        yield from workload.setup()
        yield from workload.run(2)
        t0 = engine.now
        yield from workload.run(args.steps)
        baseline = engine.now - t0
        parent = None
        if args.incremental and not args.continuous:
            # Chain root first; the measured checkpoint is the delta.
            parent, _ = yield phos.checkpoint(
                process, mode="incremental", name="chain-root"
            )
            yield from workload.run(args.steps)
        if args.continuous:
            # The stream takes its own chain root in round 0.
            handle = phos.checkpoint(process, mode=mode,
                                     rounds=args.rounds,
                                     interval=args.interval)
        elif parent is not None:
            handle = phos.checkpoint(process, mode=mode, parent=parent)
        else:
            handle = phos.checkpoint(process, mode=mode)
        t1 = engine.now
        yield from workload.run(args.steps)
        stall = (engine.now - t1) - baseline
        result = yield handle
        image = result[0] if isinstance(result, tuple) else result
        session = result[1] if isinstance(result, tuple) else None
        return baseline / args.steps, max(0.0, stall), image, session

    iter_s, stall, image, session = engine.run_process(driver(engine))
    engine.run()
    from repro.core.report import checkpoint_report

    print(f"app={args.app} mode={mode}")
    print(f"  iteration time     : {units.fmt_seconds(iter_s)}")
    print(f"  application stall  : {units.fmt_seconds(stall)}")
    if mode == "continuous":
        # ``session`` is the stream summary, not a copy session.
        from repro.core.report import stream_report

        print(checkpoint_report(image, None, phos.tracer))
        print(stream_report(session))
    else:
        print(checkpoint_report(image, session, phos.tracer))
    if observer is not None:
        from repro import obs

        _emit_obs(observer, label=f"{args.app} {args.mode}",
                  json_path=args.obs_json)
        obs.uninstall()
    return 0


def cmd_restore(args) -> int:
    engine = Engine()
    observer = None
    if args.obs or args.obs_json:
        from repro import obs

        observer = obs.install(engine)
    spec = get_spec(args.app)
    machine = Machine(engine, n_gpus=spec.n_gpus)
    phos = Phos(engine, machine, use_context_pool=False)
    process, workload = provision(engine, machine, spec)
    phos.attach(process)
    worker = Machine(engine, name="worker", n_gpus=spec.n_gpus)
    use_pool = not args.no_pool and not args.stop_world
    phos_worker = Phos(engine, worker, use_context_pool=use_pool)
    if use_pool:
        engine.run_process(phos_worker.boot())

    def driver(engine):
        yield from workload.setup()
        yield from workload.run(1)
        image, _ = yield phos.checkpoint(process, mode="cow")
        t0 = engine.now
        result = yield from phos_worker.restore(
            image, gpu_indices=list(range(spec.n_gpus)),
            concurrent=not args.stop_world, machine=worker,
            use_pool=use_pool,
        )
        new_process = result[0]
        resume_t = engine.now - t0
        workload.bind_restored(new_process)
        yield from workload.run(2)
        return resume_t, engine.now - t0

    resume_t, total_t = engine.run_process(driver(engine))
    engine.run()
    kind = "stop-the-world" if args.stop_world else "concurrent"
    print(f"app={args.app} restore={kind} pool={'on' if use_pool else 'off'}")
    print(f"  time until runnable          : {units.fmt_seconds(resume_t)}")
    print(f"  restore + 2 steps, end-to-end: {units.fmt_seconds(total_t)}")
    if observer is not None:
        from repro import obs

        _emit_obs(observer, label=f"{args.app} restore {kind}",
                  json_path=args.obs_json)
        obs.uninstall()
    return 0


def cmd_migrate(args) -> int:
    from repro.tasks.live_migration import migrate

    result = migrate(args.system, args.app)
    if not result.supported:
        print(f"{args.system} cannot migrate {args.app} "
              "(no distributed support)")
        return 1
    print(f"app={args.app} system={args.system}")
    print(f"  downtime       : {units.fmt_seconds(result.downtime)}")
    print(f"  total migration: {units.fmt_seconds(result.total_time)}")
    return 0


def cmd_study(args) -> int:
    from repro.experiments.tab03_speculation import run

    print(run().format())
    return 0


def cmd_chaos(args) -> int:
    import logging

    from repro.chaos.matrix import sweep

    # The sweep *expects* protocol runs to die; their error-level log
    # lines are the matrix working as intended, not diagnostics.
    logging.getLogger("repro").setLevel(logging.CRITICAL)
    result = sweep(
        seed=args.seed,
        protocols=args.checkpoint_protocol,
        restore_protocols=args.restore_protocol,
    )
    if args.quiet:
        n_bad = len(result.failures)
        print(f"chaos matrix seed={args.seed}: "
              f"{len(result.cells) - n_bad}/{len(result.cells)} cells ok")
        for cell in result.failures:
            print(f"  FAIL {cell.label}: {cell.detail}")
    else:
        print(result.render())
    return 0 if result.ok else 1


def cmd_fleet(args) -> int:
    from repro import parallel
    from repro.experiments import fig_fleet

    if args.jobs is not None:
        parallel.set_default_jobs(args.jobs)
    seeds = tuple(args.seeds) if args.seeds else (args.seed,)
    systems = tuple(args.system) if args.system else None
    result = fig_fleet.run(
        kinds=(args.trace,), seeds=seeds,
        systems=systems or ("phos", "singularity", "cuda-checkpoint"),
        duration=args.duration, rate=args.rate,
        n_machines=args.machines, n_gpus=args.gpus,
        pool_capacity=args.pool_size, queue_cap=args.queue_cap,
        failures_per_hour=args.failures,
        migration=not args.no_migration,
    )
    print(result.format())
    _report_parallel(args)
    return 0


def cmd_bench(args) -> int:
    import importlib

    from repro import parallel

    if args.jobs is not None:
        parallel.set_default_jobs(args.jobs)
    module = importlib.import_module(_EXPERIMENTS[args.exp])
    if not args.obs:
        print(module.run().format())
        _report_parallel(args)
        return 0
    from repro import obs
    from repro.experiments import harness

    harness.OBSERVE = True
    harness.collected_observers.clear()
    try:
        print(module.run().format())
        _report_parallel(args)
        for label, observer in harness.collected_observers:
            _emit_obs(observer, label=label)
    finally:
        harness.OBSERVE = False
        harness.collected_observers.clear()
        obs.uninstall()
    return 0


def _report_parallel(args) -> None:
    """One summary line about the pool when ``--jobs`` was given."""
    if args.jobs is None:
        return
    from repro import parallel

    stats = parallel.last_run_stats()
    if stats is None:
        return
    if stats.mode == "pool":
        print(f"(parallel: {stats.n_cells} cells over {stats.workers_used} "
              f"workers in {stats.wall_s:.2f}s, utilization "
              f"{stats.utilization:.0%}, warm program-cache hits "
              f"{stats.warm_cache_hits})")
    else:
        reason = stats.fallback_reason or "serial"
        print(f"(parallel: serial fallback [{reason}], {stats.n_cells} "
              f"cells in {stats.wall_s:.2f}s)")


if __name__ == "__main__":
    sys.exit(main())
