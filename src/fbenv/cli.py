"""Command-line entry point: serve, play, train, bench, capture.

Exit codes: 0 success, 1 usage error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace

import numpy as np

from .agent import AgentConfig, QTable, discretize, train
from .bench import MODE_FIXED, MODE_UNRESTRICTED, bench, capture_frames, format_report
from .env import EnvConfig, load_env_config, make_env
from .server import MockServer, ServerConfig


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(1)


def _build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--host", default="127.0.0.1", help="server host")
    common.add_argument("--port", type=int, default=5900, help="server port")
    common.add_argument("--seed", type=int, default=0, help="random seed")
    common.add_argument("--lockstep", action="store_true", help="one game tick per frame request")

    parser = _Parser(prog="fbenv", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    serve = sub.add_parser("serve", parents=[common], help="run the built-in game server")
    serve.add_argument("--tick-rate", type=float, default=30.0, help="game ticks per second")
    serve.add_argument("--side-channel-port", type=int, default=0, help="hash side channel port")
    serve.add_argument("--auto-reset", action="store_true", help="restart episodes on game over")

    play = sub.add_parser("play", parents=[common], help="run scripted episodes")
    play.add_argument("--config", help="environment config file")
    play.add_argument("--policy", choices=["random", "greedy"], default="random")
    play.add_argument("--episodes", type=int, default=1)
    play.add_argument("--q", help="Q-table file for the greedy policy")

    train_cmd = sub.add_parser("train", parents=[common], help="train the tabular agent")
    train_cmd.add_argument("--config", help="environment config file")
    train_cmd.add_argument("--episodes", type=int, default=500)
    train_cmd.add_argument("--out", required=True, help="where to write the Q-table")
    train_cmd.add_argument("--alpha", type=float, default=0.1, help="learning rate")
    train_cmd.add_argument("--gamma", type=float, default=0.99, help="discount factor")

    bench_cmd = sub.add_parser("bench", parents=[common], help="capture throughput benchmark")
    bench_cmd.add_argument("--mode", choices=[MODE_FIXED, MODE_UNRESTRICTED], required=True)
    bench_cmd.add_argument("--fps", type=float, default=30.0, help="target rate in fixed mode")
    bench_cmd.add_argument("--duration", type=float, default=10.0, help="run length in seconds")
    bench_cmd.add_argument("--machine", action="store_true", help="key=value output")

    capture = sub.add_parser("capture", parents=[common], help="dump frames as PGM files")
    capture.add_argument("--count", type=int, required=True)
    capture.add_argument("--out-dir", required=True)

    return parser


def _env_config(args) -> EnvConfig:
    if args.config:
        config = load_env_config(args.config)
    else:
        config = EnvConfig()
    return replace(config, host=args.host, port=args.port, lockstep=args.lockstep or config.lockstep)


def _cmd_serve(args) -> int:
    config = ServerConfig(
        host=args.host,
        port=args.port,
        side_channel_port=args.side_channel_port,
        tick_rate=args.tick_rate,
        lockstep=args.lockstep,
        auto_reset=args.auto_reset,
        seed=args.seed,
    )
    server = MockServer(config).start()
    mode = "lockstep" if config.lockstep else f"{config.tick_rate:g} Hz"
    print(
        f"serving on {args.host}:{server.port} ({mode}), hash channel on {server.side_channel_port}",
        flush=True,  # a reader of a pipe needs the port that --port 0 chose
    )
    try:
        while True:
            time.sleep(1.0)
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    return 0


def _greedy_policy_fn(q: QTable):
    previous = None

    def policy(observation):
        nonlocal previous
        if observation.step_index == 0:
            previous = None
        key = discretize(observation, previous)
        previous = observation
        return q.best_action(key)

    return policy


def _cmd_play(args) -> int:
    config = _env_config(args)
    if args.policy == "greedy":
        if not args.q:
            print("greedy policy needs --q <table file>", file=sys.stderr)
            return 1
        policy = _greedy_policy_fn(QTable.load(args.q))
    else:
        rng = np.random.default_rng(args.seed)
        policy = lambda observation: int(rng.integers(len(config.actions)))
    with make_env(config) as env:
        scores = []
        for episode in range(args.episodes):
            score, transitions = env.run_episode(policy)
            scores.append(score)
            print(f"episode {episode}: score {score:.3f} ({len(transitions)} steps)")
    print(f"mean score over {len(scores)} episodes: {sum(scores) / len(scores):.3f}")
    return 0


def _cmd_train(args) -> int:
    env_config = _env_config(args)
    agent_config = AgentConfig(learning_rate=args.alpha, discount=args.gamma, seed=args.seed)
    with make_env(env_config) as env:
        q, report = train(env, agent_config, args.episodes)
    q.save(args.out, agent_config)
    scores = report.episode_scores
    tail = scores[-50:] if len(scores) >= 50 else scores
    print(
        f"trained {len(scores)} episodes, {report.steps_total} steps, "
        f"{report.wall_time:.1f}s, final epsilon {report.final_epsilon:.3f}"
    )
    if tail:
        print(f"mean score of last {len(tail)} episodes: {sum(tail) / len(tail):.3f}")
    print(f"Q-table ({len(q)} states) written to {args.out}")
    if report.error is not None:
        print(f"training aborted early: {report.error}", file=sys.stderr)
        return 2
    return 0


def _cmd_bench(args) -> int:
    report = bench(args.mode, args.duration, args.host, args.port, fps=args.fps)
    print(format_report(report, machine=args.machine))
    return 0


def _cmd_capture(args) -> int:
    paths = capture_frames(args.host, args.port, args.count, args.out_dir)
    print(f"wrote {len(paths)} frames to {args.out_dir}")
    return 0


_COMMANDS = {
    "serve": _cmd_serve,
    "play": _cmd_play,
    "train": _cmd_train,
    "bench": _cmd_bench,
    "capture": _cmd_capture,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except Exception as exc:
        print(f"fbenv {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
