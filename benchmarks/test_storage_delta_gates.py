"""Storage gates on the §A.1 checkpoint-frequency model (``f* = sqrt(NF/2O)``).

On fig16's workload (``llama2-13b-train``) a chain-root incremental
checkpoint is followed by a delta chained on it, and then by a live
``continuous`` stream riding along with training.  Each one's
per-checkpoint overhead ``O`` — measured in virtual time, so exactly
reproducible — feeds the model at F = 1 failure per GPU-hour (as in
fig12).  The gates pin what the storage stack is for:

* the delta's smaller ``O`` shifts f* upward and lowers the waste at f*;
* the dirty-scaled delta costs at most 30% of the full checkpoint's wall;
* the continuous stream completes (no truncation, no drain fault);
* its per-round overhead beats the stop-world delta's, so its f* sits
  above the delta point.
"""

import pytest

from repro.core.frequency import optimal_frequency, wasted_gpu_hours
from repro.experiments import harness

APP = "llama2-13b-train"
FAILURES_PER_GPU_HOUR = 1.0
TOTAL_HOURS = 24.0
#: Largest delta/full virtual-wall ratio (about 0.83 before the hash
#: cache and dirty-extent sizing).
WALL_RATIO_TOLERANCE = 0.30


def _delta_pair(world):
    """Full root + chained delta; returns (full_wall, delta_wall)."""
    eng = world.engine

    def driver(eng):
        yield from world.workload.run(1)
        t0 = eng.now
        full, _ = yield world.phos.checkpoint(
            world.process, mode="incremental", name="bench-full",
            config=harness.experiment_config())
        full_wall = eng.now - t0
        yield from world.workload.run(2, start=1)
        t0 = eng.now
        yield world.phos.checkpoint(
            world.process, mode="incremental", name="bench-delta",
            config=harness.experiment_config(parent=full))
        return full_wall, eng.now - t0

    walls = eng.run_process(driver(eng))
    eng.run()
    return walls


def _continuous(world, full_wall, delta_wall, rounds=4):
    """Steady-state app stall per round of a live ``continuous`` stream.

    fig16-style interference, differenced to isolate the recurring
    cost: a root-only stream (rounds=1) prices the one-time chain root,
    a second stream at ``rounds`` prices root + deltas, and the
    per-round overhead is the longer stream's extra stall over the
    root-only one divided by its delta rounds.  Both streams run while
    the workload keeps training — the stall is the training window's
    wall over the undisturbed iteration time; the write-behind drain
    runs off the app's critical path.  Returns (overhead_s, streams).
    """
    eng = world.engine
    state = {"step": 3}  # the delta pair consumed workload steps 0..2

    def measure(eng, n):
        t0 = eng.now
        yield from world.workload.run(n, start=state["step"])
        state["step"] += n
        return eng.now - t0

    def stream_once(eng, n_rounds, base_iter, name):
        # Size the training window so every round lands inside it even
        # if each cost as much as the stop-world full/delta pair.
        budget = full_wall + max(0, n_rounds - 1) * (base_iter + delta_wall)
        steps = max(n_rounds + 1, int(budget / base_iter) + 2)
        handle = world.phos.checkpoint(
            world.process, mode="continuous", name=name,
            config=harness.experiment_config(rounds=n_rounds,
                                             interval=base_iter))
        t1 = eng.now
        wall = yield from measure(eng, steps)
        _, stream = yield handle
        return wall - steps * base_iter, t1 + wall, stream

    def driver(eng):
        base_iter = (yield from measure(eng, 2)) / 2
        root_stall, _, root_stream = yield from stream_once(
            eng, 1, base_iter, "bench-stream-root")
        stall, window_end, stream = yield from stream_once(
            eng, rounds, base_iter, "bench-stream")
        return root_stall, root_stream, stall, window_end, stream

    root_stall, root_stream, stall, window_end, stream = \
        eng.run_process(driver(eng))
    eng.run()
    in_window = [img for img in stream.images
                 if img.checkpoint_time <= window_end]
    steady_rounds = max(1, len(in_window) - 1)  # minus the chain root
    overhead_s = max(0.0, stall - root_stall) / steady_rounds
    return overhead_s, (root_stream, stream)


@pytest.fixture(scope="module")
def measured():
    world = harness.build_world(APP)
    harness.setup_app(world)
    full_wall, delta_wall = _delta_pair(world)
    cont_s, streams = _continuous(world, full_wall, delta_wall)
    n_gpus = world.spec.n_gpus
    restore_hours = full_wall / 3600.0  # stop-world reload of a full image

    def model(overhead_s):
        o = overhead_s / 3600.0
        f_star = optimal_frequency(n_gpus, FAILURES_PER_GPU_HOUR, o)
        waste = wasted_gpu_hours(n_gpus, FAILURES_PER_GPU_HOUR, TOTAL_HOURS,
                                 o, restore_hours, f_star)
        return f_star, waste

    return {
        "wall_ratio": delta_wall / full_wall,
        "full": model(full_wall),
        "delta": model(delta_wall),
        # A zero measured stall would make f* infinite; floor at 1 us.
        "continuous": model(max(cont_s, 1e-6)),
        "streams": streams,
    }


def test_delta_shifts_f_star_up_and_waste_down(measured):
    (f_full, waste_full), (f_delta, waste_delta) = \
        measured["full"], measured["delta"]
    assert f_delta / f_full > 1.0
    assert 1.0 - waste_delta / waste_full > 0.0


def test_delta_wall_is_dirty_scaled(measured):
    assert measured["wall_ratio"] <= WALL_RATIO_TOLERANCE


def test_continuous_stream_completes(measured):
    assert all(stream.complete for stream in measured["streams"])


def test_continuous_f_star_above_delta_point(measured):
    assert measured["continuous"][0] > measured["delta"][0]
