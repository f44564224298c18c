"""A4 — push vs poll between servers.

§5.2.3 *describes* polling ("the CorbaProxy objects poll each other for
updates and responses") but *argues* traffic as push ("only one message is
sent to that remote server").  This reproduction defaults to push and
implements poll as an option; this ablation quantifies the difference:
poll trades staleness for WAN request traffic that flows even when nothing
changed, push sends exactly one WAN message per update per remote server.
"""

from benchmarks.conftest import run_once
from repro.bench import print_experiment
from repro.bench.workload import make_app_farm, update_watching_client
from repro.core.deployment import build_collaboratory
from repro.core.server import ServerConfig
from repro.metrics import LatencyRecorder
from repro.net.costs import LinkSpec

DURATION = 20.0
UPDATE_PERIOD = 0.5


def _mode_run(update_mode: str, poll_interval: float = 0.25) -> dict:
    collab = build_collaboratory(
        2, apps_hosts_per_domain=1, client_hosts_per_domain=2,
        spec=LinkSpec(wan_latency=0.060),
        server=ServerConfig(update_mode=update_mode,
                            update_poll_interval=poll_interval))
    collab.run_bootstrap()
    apps = make_app_farm(collab, 1, domain_index=0, user="bench",
                         update_period=UPDATE_PERIOD)
    collab.sim.run(until=collab.sim.now + 2.0)
    app_id = apps[0].app_id
    recorder = LatencyRecorder(collab.sim)
    # two clients in the *remote* domain watch the app
    for _ in range(2):
        portal = collab.add_portal(1)
        collab.sim.spawn(update_watching_client(
            portal, app_id, user="bench", duration=DURATION,
            poll_interval=0.25, recorder=recorder))
    collab.net.trace.reset()
    collab.sim.run(until=collab.sim.now + DURATION + 1.0)
    stats = recorder.stats("update_latency")
    label = (f"poll@{poll_interval * 1e3:.0f}ms"
             if update_mode == "poll" else "push")
    return {
        "mode": label,
        "wan_messages": collab.net.trace.wan_messages,
        "wan_kb": collab.net.trace.wan_bytes / 1024.0,
        "mean_staleness_ms": stats.mean * 1e3,
        "updates_seen": stats.count,
    }


def test_bench_a4_push_vs_poll(benchmark):
    rows = run_once(benchmark, lambda: [
        _mode_run("push"),
        _mode_run("poll", poll_interval=0.25),
        _mode_run("poll", poll_interval=1.0),
    ])
    print_experiment(
        "A4 (ablation): server-to-server update propagation, push vs poll",
        '"the CorbaProxy objects poll each other for updates" vs "only one '
        'message is sent to that remote server"',
        rows,
        ["mode", "wan_messages", "wan_kb", "mean_staleness_ms",
         "updates_seen"],
        finding=_finding(rows),
    )
    push, poll_fast, poll_slow = rows
    # fast polling costs more WAN round trips than pushing
    assert poll_fast["wan_messages"] > push["wan_messages"]
    # slow polling saves messages but goes stale
    assert poll_slow["mean_staleness_ms"] > push["mean_staleness_ms"]
    # every mode delivers the stream
    assert all(r["updates_seen"] > 10 for r in rows)


def _finding(rows) -> str:
    push, poll_fast, poll_slow = rows
    return (f"push: {push['wan_messages']} WAN msgs at "
            f"{push['mean_staleness_ms']:.0f}ms staleness; poll@250ms: "
            f"{poll_fast['wan_messages']} msgs / "
            f"{poll_fast['mean_staleness_ms']:.0f}ms; poll@1s: "
            f"{poll_slow['wan_messages']} msgs / "
            f"{poll_slow['mean_staleness_ms']:.0f}ms")
