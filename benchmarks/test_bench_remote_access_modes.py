"""A7 — remote access by middleware relay vs request redirection.

§4.1 lists "request redirection" among the auxiliary handlers next to
"remote application proxy invocations (using CORBA)"; §2.2 argues for the
hybrid architecture where clients always talk to the closest server.
Measured both ways:

- a single steering engineer: the two modes are nearly equivalent — the
  CORBA relay hop and the redirected client's WAN polling cost about the
  same per command;
- a *collaborating group* at the remote site: redirection degenerates to
  the centralized deployment of E4 (every client's every poll crosses the
  WAN), while the relay keeps one update push per server.  This is the
  quantitative case for the paper's hybrid architecture.
"""

from benchmarks.conftest import run_once
from repro.bench import print_experiment
from repro.bench.workload import steering_client, update_watching_client
from repro.core.deployment import build_collaboratory
from repro.core.server import ServerConfig
from repro.metrics import LatencyRecorder
from repro.net.costs import LinkSpec

DURATION = 20.0
WAN = 0.030
WATCHERS = 4


def _build(remote_access: str, client_hosts: int = 1):
    collab = build_collaboratory(2, apps_hosts_per_domain=1,
                                 client_hosts_per_domain=client_hosts,
                                 spec=LinkSpec(wan_latency=WAN),
                                 server=ServerConfig(
                                     remote_access=remote_access))
    collab.run_bootstrap()
    from repro.apps import SyntheticApp
    from repro.steering import AppConfig
    app = collab.add_app(
        1, SyntheticApp, "target", acl={"bench": "write"},
        config=AppConfig(steps_per_phase=1, step_time=0.005,
                         interaction_window=0.25,
                         command_service_time=0.002))
    collab.sim.run(until=collab.sim.now + 2.0)
    return collab, app


def _steer_run(remote_access: str) -> dict:
    collab, app = _build(remote_access)
    portal = collab.add_portal(0)
    recorder = LatencyRecorder(collab.sim)
    collab.net.trace.reset()
    collab.sim.spawn(steering_client(
        portal, app.app_id, user="bench", duration=DURATION,
        command_interval=0.5, recorder=recorder, poll_interval=0.05))
    collab.sim.run(until=collab.sim.now + DURATION + 2.0)
    stats = recorder.stats("steer_rtt")
    relayed = sum(s.stats["remote_commands_relayed"]
                  for s in collab.servers.values())
    return {
        "workload": "1 steerer",
        "mode": remote_access,
        "mean_steer_rtt_ms": stats.mean * 1e3,
        "commands": stats.count,
        "corba_relays": relayed,
        "wan_messages": collab.net.trace.wan_messages,
    }


def _watch_run(remote_access: str) -> dict:
    collab, app = _build(remote_access, client_hosts=WATCHERS)
    recorder = LatencyRecorder(collab.sim)
    collab.net.trace.reset()
    for _ in range(WATCHERS):
        portal = collab.add_portal(0)
        collab.sim.spawn(update_watching_client(
            portal, app.app_id, user="bench", duration=DURATION,
            poll_interval=0.25, recorder=recorder))
    collab.sim.run(until=collab.sim.now + DURATION + 2.0)
    return {
        "workload": f"{WATCHERS} watchers",
        "mode": remote_access,
        "mean_steer_rtt_ms": recorder.stats("update_latency").mean * 1e3,
        "commands": recorder.stats("update_latency").count,
        "corba_relays": 0,
        "wan_messages": collab.net.trace.wan_messages,
    }


def test_bench_a7_relay_vs_redirect(benchmark):
    rows = run_once(benchmark, lambda: (
        [_steer_run(m) for m in ("relay", "redirect")]
        + [_watch_run(m) for m in ("relay", "redirect")]))
    steer_relay, steer_redirect, watch_relay, watch_redirect = rows
    print_experiment(
        "A7 (ablation): remote access — middleware relay vs request "
        "redirection",
        "auxiliary services such as ... request redirection, and remote "
        "application proxy invocations (using CORBA)",
        rows,
        ["workload", "mode", "mean_steer_rtt_ms", "commands",
         "corba_relays", "wan_messages"],
        finding=_finding(rows),
    )
    # single steerer: the modes are close (within 30%); the paths differ
    ratio = (steer_redirect["mean_steer_rtt_ms"]
             / steer_relay["mean_steer_rtt_ms"])
    assert 0.7 < ratio < 1.3
    assert steer_relay["corba_relays"] > 0
    assert steer_redirect["corba_relays"] == 0
    # collaborating group: redirection degenerates to centralized access —
    # the hybrid architecture's WAN advantage disappears (cf. E4)
    assert (watch_redirect["wan_messages"]
            > 2 * watch_relay["wan_messages"])


def _finding(rows) -> str:
    steer_relay, steer_redirect, watch_relay, watch_redirect = rows
    return (f"1 steerer: {steer_relay['mean_steer_rtt_ms']:.0f}ms relay vs "
            f"{steer_redirect['mean_steer_rtt_ms']:.0f}ms redirect (a "
            f"wash); {WATCHERS} watchers: redirect puts "
            f"{watch_redirect['wan_messages'] / max(1, watch_relay['wan_messages']):.1f}x "
            f"more messages on the WAN — the case for the hybrid "
            f"architecture")
