"""Tests for §4.1 request redirection (remote_access="redirect")."""

import pytest

from repro import AppConfig, PortalError, ServerConfig, build_collaboratory
from repro.apps import SyntheticApp


def cfg():
    return AppConfig(steps_per_phase=2, step_time=0.01,
                     interaction_window=0.05, command_service_time=0.001)


@pytest.fixture
def redirected():
    collab = build_collaboratory(2, apps_hosts_per_domain=1,
                                 client_hosts_per_domain=1,
                                 server=ServerConfig(remote_access="redirect"))
    collab.run_bootstrap()
    app = collab.add_app(1, SyntheticApp, "far-app",
                         acl={"alice": "write"}, config=cfg())
    collab.sim.run(until=3.0)
    return collab, app


def run(collab, gen):
    return collab.sim.run(until=collab.sim.spawn(gen))


def test_redirect_mode_validation():
    with pytest.raises(ValueError):
        ServerConfig(remote_access="teleport")


def test_open_follows_redirect_and_steers(redirected):
    collab, app = redirected
    portal = collab.add_portal(0)
    home = collab.domains[1].server.name

    def scenario():
        yield from portal.login("alice")
        session = yield from portal.open(app.app_id)
        # the session now speaks to the home server directly
        assert session.http.server_host == home
        assert session.client_id.startswith(home)
        lock = yield from session.acquire_lock()
        value = yield from session.set_param("gain", 6.0)
        return (lock, value)

    lock, value = run(collab, scenario())
    assert lock == "granted"
    assert value == 6.0
    assert app.gain.value == 6.0
    # nothing was relayed over the middleware command path
    for server in collab.servers.values():
        assert server.stats["remote_commands_relayed"] == 0


def test_redirect_local_apps_unaffected(redirected):
    collab, app = redirected
    local_app = collab.add_app(0, SyntheticApp, "near-app",
                               acl={"alice": "write"}, config=cfg())
    collab.sim.run(until=collab.sim.now + 2.0)
    portal = collab.add_portal(0)

    def scenario():
        yield from portal.login("alice")
        session = yield from portal.open(local_app.app_id)
        assert session.http is portal.http  # no redirect for local apps
        yield from session.acquire_lock()
        return (yield from session.set_param("gain", 2.0))

    assert run(collab, scenario()) == 2.0


def test_redirect_updates_flow_through_merged_poll(redirected):
    collab, app = redirected
    portal = collab.add_portal(0)

    def scenario():
        yield from portal.login("alice")
        yield from portal.open(app.app_id)
        yield portal.sim.timeout(2.0)
        yield from portal.poll(max_items=64)
        return len(portal.updates)

    assert run(collab, scenario()) >= 2


def test_redirect_connection_reused_for_second_app(redirected):
    collab, app = redirected
    app2 = collab.add_app(1, SyntheticApp, "far-app-2",
                          acl={"alice": "write"}, config=cfg())
    collab.sim.run(until=collab.sim.now + 2.0)
    portal = collab.add_portal(0)

    def scenario():
        yield from portal.login("alice")
        s1 = yield from portal.open(app.app_id)
        s2 = yield from portal.open(app2.app_id)
        return (s1.http is s2.http, s1.client_id == s2.client_id,
                len(portal._connections))

    same_http, same_cid, n_conns = run(collab, scenario())
    assert same_http and same_cid
    assert n_conns == 1


def test_redirect_close_releases_secondary_connections(redirected):
    collab, app = redirected
    portal = collab.add_portal(0)

    def scenario():
        yield from portal.login("alice")
        yield from portal.open(app.app_id)

    run(collab, scenario())
    assert len(portal._connections) == 1
    portal.close()
    assert portal._connections == {}
