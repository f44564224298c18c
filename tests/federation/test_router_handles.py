"""AppRouter + AppHandle: one generator interface, local or remote."""

import pytest

from repro import ServerConfig, build_collaboratory
from repro.apps import SyntheticApp
from repro.core.security import SecurityError
from repro.federation import LocalAppHandle, RemoteAppHandle

from tests.federation.conftest import cfg, run


def test_router_resolves_by_home_server(pair):
    collab, app = pair
    s0, s1 = collab.server_of(0), collab.server_of(1)
    local = s0.router.resolve(app.app_id)
    remote = s1.router.resolve(app.app_id)
    assert isinstance(local, LocalAppHandle) and local.is_local
    assert isinstance(remote, RemoteAppHandle) and not remote.is_local
    assert remote.home == s0.name
    assert s0.router.is_local(app.app_id)
    assert not s1.router.is_local(app.app_id)


def test_router_caches_and_forgets_handles(pair):
    collab, app = pair
    s1 = collab.server_of(1)
    handle = s1.router.resolve(app.app_id)
    assert s1.router.resolve(app.app_id) is handle
    s1.router.forget(app.app_id)
    assert s1.router.resolve(app.app_id) is not handle


def test_local_open_returns_interface_and_checks_acl(pair):
    collab, app = pair
    s0 = collab.server_of(0)
    handle = s0.router.resolve(app.app_id)
    info = run(collab, handle.open("bob"))
    assert info["app_id"] == app.app_id
    assert info["privilege"] == "read"
    assert "parameters" in info["interface"]

    def stranger():
        try:
            yield from handle.open("eve")
        except SecurityError:
            return "denied"

    assert run(collab, stranger()) == "denied"


def test_remote_open_relays_interface(pair):
    collab, app = pair
    s1 = collab.server_of(1)
    info = run(collab, s1.router.resolve(app.app_id).open("alice"))
    assert info["app_id"] == app.app_id
    assert info["privilege"] == "write"


def test_remote_open_redirect_mode():
    collab = build_collaboratory(2, apps_hosts_per_domain=1,
                                 client_hosts_per_domain=1,
                                 server=ServerConfig(remote_access="redirect"))
    collab.run_bootstrap()
    app = collab.add_app(0, SyntheticApp, "redirected",
                         acl={"alice": "write"}, config=cfg())
    collab.sim.run(until=3.0)
    s1 = collab.server_of(1)
    info = run(collab, s1.router.resolve(app.app_id).open("alice"))
    assert info == {"redirect": collab.server_of(0).name,
                    "app_id": app.app_id}


def test_lock_protocol_uniform_across_handles(pair):
    collab, app = pair
    s0, s1 = collab.server_of(0), collab.server_of(1)
    local = s0.router.resolve(app.app_id)
    remote = s1.router.resolve(app.app_id)

    def scenario():
        first = yield from local.acquire_lock("d0-server:c1")
        second = yield from remote.acquire_lock("d1-server:c1")
        holder = yield from remote.lock_holder()
        yield from local.release_lock("d0-server:c1")
        next_holder = yield from local.lock_holder()
        return (first, second, holder, next_holder)

    first, second, holder, next_holder = run(collab, scenario())
    assert first == "granted"
    assert second == "queued"
    assert holder == "d0-server:c1"
    assert next_holder == "d1-server:c1"
    # the home server stays authoritative (§5.2.4)
    assert s0.locks.holder_of(app.app_id) == "d1-server:c1"
    assert s1.locks.holder_of(app.app_id) is None


def test_get_updates_since_uniform(pair):
    collab, app = pair
    s0, s1 = collab.server_of(0), collab.server_of(1)
    collab.sim.run(until=collab.sim.now + 1.0)

    def scenario():
        local = yield from s0.router.resolve(app.app_id).get_updates_since(0)
        remote = yield from s1.router.resolve(app.app_id).get_updates_since(0)
        return (local, remote)

    local, remote = run(collab, scenario())
    assert len(local) >= 1
    # the relayed read runs later in sim time, so it may see extra tail
    # updates — but both views agree on the shared prefix
    local_seqs = [u.seq for u in local]
    remote_seqs = [u.seq for u in remote]
    assert remote_seqs[:len(local_seqs)] == local_seqs


def test_remote_deliver_command_requires_login_grant(pair):
    collab, app = pair
    s1 = collab.server_of(1)
    session = s1.collab.create_session("alice")  # no login fan-out ran

    def scenario():
        try:
            yield from s1.router.resolve(app.app_id).deliver_command(
                session, "get_param", {"name": "gain"})
        except SecurityError:
            return "denied"

    assert run(collab, scenario()) == "denied"
