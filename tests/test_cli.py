"""CLI exit codes and end-to-end subcommand runs against a live server."""

import re

import pytest

from fbenv.agent import QTable
from fbenv.cli import main


def test_usage_errors_exit_1(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["bench"])  # --mode is required
    assert excinfo.value.code == 1
    with pytest.raises(SystemExit) as excinfo:
        main(["no-such-command"])
    assert excinfo.value.code == 1
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 1


def test_runtime_errors_exit_2(capsys):
    import socket

    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    code = main(["capture", "--port", str(port), "--count", "1", "--out-dir", "/tmp/x"])
    assert code == 2
    assert "capture" in capsys.readouterr().err


def test_capture_subcommand(server_factory, tmp_path, capsys):
    server = server_factory(lockstep=True, seed=3)
    code = main(
        ["capture", "--port", str(server.port), "--count", "2", "--out-dir", str(tmp_path)]
    )
    assert code == 0
    assert (tmp_path / "frame-000001.pgm").exists()
    assert "wrote 2 frames" in capsys.readouterr().out


def test_bench_subcommand_machine_output(server_factory, capsys):
    server = server_factory(tick_rate=30.0, seed=3)
    code = main(
        [
            "bench",
            "--port",
            str(server.port),
            "--mode",
            "unrestricted",
            "--duration",
            "1",
            "--machine",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert all(re.match(r"^[a-z_]+=[-0-9.]+$", line) for line in out)


def test_play_random_subcommand(server_factory, capsys):
    server = server_factory(lockstep=True, seed=3)
    code = main(
        ["play", "--port", str(server.port), "--lockstep", "--episodes", "2", "--seed", "1"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "episode 0:" in out and "episode 1:" in out and "mean score" in out


def test_play_greedy_requires_table(server_factory, capsys):
    code = main(["play", "--policy", "greedy", "--episodes", "1"])
    assert code == 1


def test_play_greedy_rejects_a_table_without_a_header(tmp_path, capsys):
    path = tmp_path / "bad.tsv"
    path.write_text("not a q-table\n")
    code = main(["play", "--policy", "greedy", "--q", str(path), "--episodes", "1"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("fbenv play: ") and "bad.tsv is not a Q-table file" in err
    assert "Traceback" not in err


def test_train_then_play_greedy(server_factory, tmp_path, capsys):
    server = server_factory(lockstep=True, seed=3)
    table_path = tmp_path / "q.tsv"
    code = main(
        [
            "train",
            "--port",
            str(server.port),
            "--lockstep",
            "--episodes",
            "5",
            "--seed",
            "2",
            "--out",
            str(table_path),
        ]
    )
    assert code == 0
    assert "trained 5 episodes" in capsys.readouterr().out
    table = QTable.load(table_path)
    assert table.n_actions == 3

    code = main(
        [
            "play",
            "--port",
            str(server.port),
            "--lockstep",
            "--policy",
            "greedy",
            "--q",
            str(table_path),
            "--episodes",
            "1",
        ]
    )
    assert code == 0
    assert "episode 0:" in capsys.readouterr().out


def test_config_file_feeds_play(server_factory, tmp_path, capsys):
    server = server_factory(lockstep=True, seed=3)
    config_path = tmp_path / "env.cfg"
    config_path.write_text("max_episode_steps = 4\nlockstep = true\n")
    code = main(
        [
            "play",
            "--config",
            str(config_path),
            "--port",
            str(server.port),
            "--lockstep",
            "--episodes",
            "1",
        ]
    )
    assert code == 0
    assert "(4 steps)" in capsys.readouterr().out
