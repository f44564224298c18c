"""Failure injection: dead peers, dead registry, vanished applications.

§4.2: "the availability of these servers is not guaranteed and must be
determined at runtime" — the middleware must degrade, not break.
"""

import pytest

from repro import AppConfig, PortalError, ServerConfig, build_collaboratory
from repro.apps import SyntheticApp
from repro.orb import CommFailure, ObjectNotFound


def cfg():
    return AppConfig(steps_per_phase=2, step_time=0.01,
                     interaction_window=0.05, command_service_time=0.001)


def run(collab, gen):
    return collab.sim.run(until=collab.sim.spawn(gen))


def build_pair(peer_timeout=2.0):
    collab = build_collaboratory(2, apps_hosts_per_domain=1,
                                 client_hosts_per_domain=1,
                                 server=ServerConfig(
                                     peer_call_timeout=peer_timeout))
    collab.run_bootstrap()
    return collab


def test_login_survives_dead_peer():
    collab = build_pair()
    local_app = collab.add_app(0, SyntheticApp, "local",
                               acl={"alice": "write"}, config=cfg())
    collab.add_app(1, SyntheticApp, "remote", acl={"alice": "write"},
                   config=cfg())
    collab.sim.run(until=3.0)
    # the remote server dies
    collab.server_of(1).stop()
    portal = collab.add_portal(0)

    def scenario():
        apps = yield from portal.login("alice")
        return [a["name"] for a in apps]

    names = run(collab, scenario())
    # login still succeeds; only the local app is listed
    assert names == ["local"]


def test_remote_command_fails_cleanly_when_peer_dies():
    collab = build_pair()
    app = collab.add_app(1, SyntheticApp, "remote",
                         acl={"alice": "write"}, config=cfg())
    collab.sim.run(until=3.0)
    portal = collab.add_portal(0)

    def scenario():
        yield from portal.login("alice")
        session = yield from portal.open(app.app_id)
        # peer dies mid-session
        collab.server_of(1).stop()
        try:
            yield from session.command("get_param", {"name": "gain"})
        except PortalError as exc:
            return exc.status

    assert run(collab, scenario()) == 500  # surfaced as peer failure


def test_registration_survives_dead_registry():
    collab = build_pair()
    # kill the registry ORB: naming/trader unreachable
    collab.registry_orb.shutdown()
    app = collab.add_app(0, SyntheticApp, "orphaned-registry",
                         acl={"alice": "write"}, config=cfg())
    collab.sim.run(until=6.0)
    # the application still registers and serves local clients
    assert app.registered
    portal = collab.add_portal(0)

    def scenario():
        yield from portal.login("alice")
        session = yield from portal.open(app.app_id)
        yield from session.acquire_lock()
        return (yield from session.set_param("gain", 2.0))

    assert run(collab, scenario()) == 2.0


def test_commands_to_stopped_app_conflict():
    collab = build_pair()
    app = collab.add_app(0, SyntheticApp, "shortlived",
                         acl={"alice": "write"},
                         config=AppConfig(steps_per_phase=2, step_time=0.01,
                                          interaction_window=0.02,
                                          total_steps=6))
    collab.sim.run(until=1.0)
    portal = collab.add_portal(0)

    def scenario():
        yield from portal.login("alice")
        session = yield from portal.open(app.app_id)
        # wait for the app to finish and deregister
        yield collab.sim.timeout(4.0)
        assert app.state == "stopped"
        try:
            yield from session.command("get_param", {"name": "gain"})
        except PortalError as exc:
            return exc.status

    assert run(collab, scenario()) == 409


def test_client_notified_when_app_stops():
    collab = build_pair()
    app = collab.add_app(0, SyntheticApp, "notifier",
                         acl={"alice": "write"},
                         config=AppConfig(steps_per_phase=2, step_time=0.01,
                                          interaction_window=0.02,
                                          total_steps=400))
    collab.sim.run(until=1.0)
    portal = collab.add_portal(0)

    def scenario():
        yield from portal.login("alice")
        yield from portal.open(app.app_id)
        yield collab.sim.timeout(12.0)
        assert app.state == "stopped"
        while (yield from portal.poll(max_items=128)):
            pass  # drain the whole backlog
        stops = [m for m in portal.notices
                 if getattr(m, "event", "") == "app_stopped"]
        return len(stops)

    assert run(collab, scenario()) == 1


def test_orb_timeout_produces_commfailure_not_hang():
    collab = build_pair(peer_timeout=1.0)
    s0, s1 = collab.server_of(0), collab.server_of(1)
    s1.orb.shutdown()

    def probe():
        try:
            yield from s0.orb.invoke(s0.peers[s1.name], "ping",
                                     timeout=1.0)
        except CommFailure:
            return ("timeout", collab.sim.now)

    outcome, when = run(collab, probe())
    assert outcome == "timeout"
    assert when <= 2.0  # bounded, no hang


def test_update_pushes_to_dead_peer_do_not_break_home_server():
    collab = build_pair()
    app = collab.add_app(0, SyntheticApp, "pusher",
                         acl={"alice": "write"}, config=cfg())
    collab.sim.run(until=3.0)
    portal = collab.add_portal(1)  # remote client subscribes via s1

    def subscribe():
        yield from portal.login("alice")
        yield from portal.open(app.app_id)

    run(collab, subscribe())
    # the subscriber's server dies; home keeps pushing (oneway, dropped)
    collab.server_of(1).stop()
    collab.sim.run(until=collab.sim.now + 3.0)
    # home server still healthy: local clients unaffected
    local = collab.add_portal(0)

    def local_check():
        yield from local.login("alice")
        session = yield from local.open(app.app_id)
        yield from session.acquire_lock()
        return (yield from session.get_param("gain"))

    assert run(collab, local_check()) == 1.0
