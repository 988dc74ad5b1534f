import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from fbenv.client import connect
from fbenv.env import EnvConfig, make_env
from fbenv.server import MockServer, ServerConfig


@pytest.fixture
def server_factory():
    """Start throwaway servers on free ports; all stopped on teardown,
    which fails if a server thread outlives stop()."""
    servers = []

    def factory(**kwargs) -> MockServer:
        kwargs.setdefault("port", 0)
        server = MockServer(ServerConfig(**kwargs)).start()
        servers.append(server)
        return server

    yield factory
    for server in servers:
        server.stop()
    for server in servers:
        threads = server._threads + server._side_threads
        assert not [thread.name for thread in threads if thread.is_alive()]


@pytest.fixture
def session_factory(server_factory):
    sessions = []

    def factory(server=None, **server_kwargs):
        if server is None:
            server = server_factory(**server_kwargs)
        session = connect("127.0.0.1", server.port)
        sessions.append(session)
        return session, server

    yield factory
    for session in sessions:
        session.close()


@pytest.fixture
def env_factory(server_factory):
    envs = []

    def factory(server=None, server_kwargs=None, **env_kwargs):
        if server is None:
            server = server_factory(**(server_kwargs or {"lockstep": True, "seed": 11}))
        config = EnvConfig(port=server.port, **env_kwargs)
        env = make_env(config)
        envs.append(env)
        return env, server

    yield factory
    for env in envs:
        env.close()
