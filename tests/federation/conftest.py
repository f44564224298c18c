"""Shared fixtures for the federation-layer tests."""

import pytest

from repro import AppConfig, ServerConfig, build_collaboratory
from repro.apps import SyntheticApp


def cfg(**overrides):
    base = dict(steps_per_phase=2, step_time=0.01,
                interaction_window=0.05, command_service_time=0.001)
    base.update(overrides)
    return AppConfig(**base)


def run(collab, gen):
    return collab.sim.run(until=collab.sim.spawn(gen))


@pytest.fixture
def pair():
    """Two servers, one long-running app homed at server 0."""
    collab = build_collaboratory(2, apps_hosts_per_domain=1,
                                 client_hosts_per_domain=1,
                                 server=ServerConfig(peer_call_timeout=2.0))
    collab.run_bootstrap()
    app = collab.add_app(0, SyntheticApp, "wave",
                         acl={"alice": "write", "bob": "read"},
                         config=cfg())
    collab.sim.run(until=3.0)
    return collab, app
