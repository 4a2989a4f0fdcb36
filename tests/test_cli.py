"""Unit tests for the phos command-line tool."""

import pytest

from repro.core.cli import build_parser, main


def test_no_command_prints_help(capsys):
    assert main([]) == 1
    assert "phos" in capsys.readouterr().out


def test_apps_lists_all_models(capsys):
    assert main(["apps"]) == 0
    out = capsys.readouterr().out
    for name in ("resnet152-train", "llama2-13b-infer", "llama3-70b-infer"):
        assert name in out


def test_checkpoint_command(capsys):
    assert main(["checkpoint", "--app", "ppo-train", "--mode", "cow",
                 "--steps", "2"]) == 0
    out = capsys.readouterr().out
    assert "application stall" in out
    assert "checkpoint report" in out
    assert "GPU state" in out


def test_checkpoint_stop_world(capsys):
    assert main(["checkpoint", "--app", "resnet152-train",
                 "--mode", "stop-world", "--steps", "1"]) == 0
    assert "stall" in capsys.readouterr().out


def test_restore_command(capsys):
    assert main(["restore", "--app", "resnet152-infer"]) == 0
    out = capsys.readouterr().out
    assert "time until runnable" in out


def test_restore_stop_world(capsys):
    assert main(["restore", "--app", "resnet152-infer", "--stop-world"]) == 0
    assert "stop-the-world" in capsys.readouterr().out


def test_migrate_command(capsys):
    assert main(["migrate", "--app", "resnet152-train",
                 "--system", "phos"]) == 0
    assert "downtime" in capsys.readouterr().out


def test_migrate_unsupported_returns_error(capsys):
    assert main(["migrate", "--app", "llama2-13b-train",
                 "--system", "cuda-checkpoint"]) == 1


def test_bench_command(capsys):
    assert main(["bench", "--exp", "tab03"]) == 0
    assert "rodinia" in capsys.readouterr().out


def test_invalid_app_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["checkpoint", "--app", "not-a-model"])


@pytest.mark.parametrize("command", [["bench", "--exp", "fig16"], ["fleet"]])
@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_rejected(command, jobs, capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args([*command, "--jobs", jobs])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err
