"""HealthMonitor wiring: heartbeats, app folding, gossip, shutdown."""

import pytest

from repro.core.deployment import build_collaboratory, build_single_server
from repro.core.server import ServerConfig
from repro.health import STATUS_HEALTHY, STATUS_UNHEALTHY, STATUS_UNKNOWN


@pytest.fixture()
def collab():
    c = build_single_server(app_hosts=1, client_hosts=1)
    c.run_bootstrap()
    yield c
    c.stop()


class TestHeartbeat:
    def test_heartbeats_advance_with_sim_time(self, collab):
        server = collab.server_of(0)
        before = server.health.counters["heartbeats"]
        collab.sim.run(until=collab.sim.now + 5.0)
        assert server.health.counters["heartbeats"] >= before + 9

    def test_server_marks_itself_healthy(self, collab):
        server = collab.server_of(0)
        collab.sim.run(until=collab.sim.now + 2.0)
        key = server.health.server_key(server.name)
        assert server.health.status_of(key) == STATUS_HEALTHY

    def test_app_proxy_tracked(self, collab):
        from repro.apps import SyntheticApp
        app = collab.add_app(0, SyntheticApp, "mon-app",
                             acl={"alice": "write"})
        collab.sim.run(until=collab.sim.now + 3.0)
        server = collab.server_of(0)
        key = server.health.app_key(app.app_id)
        assert server.health.status_of(key) == STATUS_HEALTHY
        # a stopped proxy misses heartbeats until it goes unhealthy
        server.local_proxies[app.app_id].active = False
        collab.sim.run(until=collab.sim.now + 3.0)
        assert server.health.status_of(key) == STATUS_UNHEALTHY

    def test_disabled_monitor_spawns_nothing(self):
        c = build_collaboratory(1, apps_hosts_per_domain=1,
                                client_hosts_per_domain=1,
                                server=ServerConfig(health_enabled=False))
        c.run_bootstrap()
        server = c.server_of(0)
        collab_now = c.sim.now
        c.sim.run(until=collab_now + 3.0)
        assert server.health.counters["heartbeats"] == 0
        key = server.health.server_key(server.name)
        assert server.health.status_of(key) == STATUS_UNKNOWN
        server.health.note_peer_failure("ghost")  # no-op when disabled
        assert not server.health.is_unhealthy_peer("ghost")
        c.stop()

    def test_stop_interrupts_processes(self, collab):
        server = collab.server_of(0)
        procs = list(server.health._procs)
        assert procs and all(p.is_alive for p in procs)
        server.health.stop()
        # the interrupt is delivered on the next sim step; afterwards the
        # sim drains instead of the beat keeping it alive forever
        collab.sim.run()
        assert all(not p.is_alive for p in procs)


class TestHealthSeries:
    def test_status_gauge_reads_zero_after_status_drops_out(self):
        """A peer goes unhealthy, then recovers: the unhealthy gauge is
        written back to 0 on the tick the status disappears instead of
        keeping its last count."""
        c = build_collaboratory(1)
        server = c.server_of(0)
        health, ts = server.health, server.timeseries
        c.sim.run(until=0.9)
        for _ in range(10):
            health.note_peer_failure("ghost")
        assert health.peer_status("ghost") == STATUS_UNHEALTHY
        c.sim.run(until=1.1)
        assert ts.query("health.status.unhealthy", "instant") == 1
        for _ in range(10):
            health.note_peer_success("ghost")
        assert health.peer_status("ghost") == STATUS_HEALTHY
        c.sim.run(until=6.0)
        assert ts.query("health.status.unhealthy", "instant") == 0
        points = ts.query("health.status.unhealthy", "points")
        # one zero on the tick it dropped out, then no more writes
        assert [p["value"] for p in points] == [1, 0]
        assert ts.query("health.status.healthy", "instant") >= 2
        c.stop()


class TestGossip:
    def test_exchange_merges_and_answers(self, collab):
        server = collab.server_of(0)
        collab.sim.run(until=collab.sim.now + 1.0)
        view = {"server": "peer-x", "time": collab.sim.now,
                "statuses": {"server:far": STATUS_UNHEALTHY}}
        answer = server.health.exchange("peer-x", view)
        assert answer["server"] == server.name
        assert "statuses" in answer
        # the gossiped component appears in the fleet view
        assert server.health.fleet_view()["server:far"] == STATUS_UNHEALTHY
        # receiving gossip proves the sender alive
        assert server.health.peer_status("peer-x") == STATUS_HEALTHY

    def test_local_observation_wins_over_gossip(self, collab):
        server = collab.server_of(0)
        collab.sim.run(until=collab.sim.now + 1.0)
        key = server.health.server_key(server.name)
        stale = {"server": "peer-x", "time": collab.sim.now + 100.0,
                 "statuses": {key: STATUS_UNHEALTHY}}
        server.health.exchange("peer-x", stale)
        # a peer's (even newer) claim about *us* loses to direct obs
        assert server.health.fleet_view()[key] == STATUS_HEALTHY

    def test_newest_stamp_wins_per_peer(self, collab):
        server = collab.server_of(0)
        server.health.merge_peer_view(
            "p", {"time": 5.0, "statuses": {"server:z": STATUS_UNHEALTHY}})
        server.health.merge_peer_view(
            "p", {"time": 2.0, "statuses": {"server:z": STATUS_HEALTHY}})
        assert server.health.fleet_view()["server:z"] == STATUS_UNHEALTHY

    def test_gossip_converges_across_deployment(self):
        c = build_collaboratory(2, apps_hosts_per_domain=1,
                                client_hosts_per_domain=1,
                                server=ServerConfig(health_gossip_period=0.5))
        c.run_bootstrap()
        c.sim.run(until=c.sim.now + 4.0)
        a, b = c.server_of(0), c.server_of(1)
        assert a.health.counters["gossip_rounds"] > 0
        # each server's fleet view includes the other's self-status
        assert a.health.fleet_view()[
            a.health.server_key(b.name)] == STATUS_HEALTHY
        assert b.health.fleet_view()[
            b.health.server_key(a.name)] == STATUS_HEALTHY
        c.stop()


class TestSnapshotSurface:
    def test_snapshot_in_metrics_registry(self, collab):
        collab.sim.run(until=collab.sim.now + 2.0)
        snap = collab.metrics_registry().snapshot()
        server = collab.server_of(0)
        health = snap[f"health[{server.name}]"]
        assert health["counts"][STATUS_HEALTHY] >= 1
        assert "slo" in health and "counters" in health

    def test_server_metrics_registry_includes_health_and_log(self, collab):
        server = collab.server_of(0)
        collab.sim.run(until=collab.sim.now + 1.0)
        snap = server.metrics_registry().snapshot()
        assert f"health[{server.name}]" in snap
        assert f"log[{server.name}]" in snap
