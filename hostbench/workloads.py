"""The three benchmark workloads, driven through the program's public API.

Each workload is one batch simulation with three phases, timed with a
:class:`~clock.ScaledClock` that the phases advance the simulator through
(``clock.run(sim, until)``) and mark between steps that run it
internally:

- ``setup(seed, clock)``: build the deployment, bootstrap it, and
  register the applications (or publish the directory population).
  Users pay this on every run, so it is reported as ``setup_s``.
- ``run(state, clock)``: the timed phase — a fixed stretch of virtual
  time (or a fixed session count) of the workload's traffic.
- ``result(state)``: the virtual-time ``row`` (the behaviour the program
  must reproduce), the ``counts`` the program keeps itself (compared
  between traced and untraced runs to prove tracing adds no events), the
  attempted/failed operation totals, and the invariant violations.

All simulated load is drawn from the workload seed by the benchmark with
:class:`random.Random`; the program only receives the drawn inputs.  The
exception is ``directory_fleet``, whose session plans are the program's
own declarative :class:`~repro.bench.traffic.TrafficSpec` seeded with the
workload seed — that workload exists to exercise exactly that path.
"""

from __future__ import annotations

import random

from repro.apps import SyntheticApp
from repro.bench.fleet import build_fleet, publish_population
from repro.bench.scenarios import pipeline_counters
from repro.bench.traffic import TrafficSpec, constant, exponential, session_plans
from repro.bench.workload import bench_app_config, make_app_farm
from repro.client import DiscoverPortal, PortalError
from repro.core.deployment import build_collaboratory
from repro.metrics import LatencyRecorder
from repro.metrics.stats import Reservoir
from repro.net.costs import LinkSpec
from repro.orb import OrbError
from repro.sim.rng import DeterministicRNG
from repro.web import HttpError

USER = "bench"


def _inputs(workload: str, seed: int) -> random.Random:
    # str seeds hash through SHA-512, independent of PYTHONHASHSEED
    return random.Random(f"{workload}:{seed}")


def _stratified(rng: random.Random, n: int, low: float,
                high: float) -> list:
    """``n`` draws from [low, high), one per equal-width stratum, in
    random order: the seed changes who gets which value, while the total
    offered work stays nearly the same, so host time is comparable
    across seeds."""
    width = (high - low) / n
    values = [low + (k + rng.random()) * width for k in range(n)]
    rng.shuffle(values)
    return values


def _native_counts(sim, net, servers, tracer=None) -> dict:
    """Counters the program keeps itself; identical traced vs untraced."""
    counts = {"sim.events": sim.events_dispatched,
              "net.hops": net.trace.total.messages,
              "net.bytes": net.trace.total.bytes,
              "net.dropped_frames": net.trace.dropped.messages}
    for kind in ("wan", "lan"):
        counter = net.trace.per_kind.get(kind)
        counts[f"net.{kind}_frames"] = counter.messages if counter else 0
        counts[f"net.{kind}_bytes"] = counter.bytes if counter else 0
    counts["web.requests"] = sum(s.container.requests_served
                                 for s in servers)
    for key, value in pipeline_counters(servers, tracer=tracer).items():
        if isinstance(value, int) and not isinstance(value, bool):
            counts[f"program.{key}"] = value
    return counts


# -- steer_farm: E1, one server and ~40 steered applications ---------------
STEER_APPS = 40
STEER_DURATION = 60.0


def steer_farm_setup(seed: int, clock) -> dict:
    rng = _inputs("steer_farm", seed)
    periods = _stratified(rng, STEER_APPS, 0.45, 0.55)
    payloads = [int(v) for v in _stratified(rng, STEER_APPS, 8, 25)]
    collab = build_collaboratory(1, apps_hosts_per_domain=STEER_APPS // 4)
    clock.mark()
    collab.run_bootstrap()
    clock.mark()
    server = collab.server_of(0)
    server.recorder = LatencyRecorder(collab.sim)
    apps = [collab.add_app(0, SyntheticApp, f"farm-{i}",
                           acl={USER: "write"},
                           config=bench_app_config(period),
                           payload_floats=payload)
            for i, (period, payload) in enumerate(zip(periods, payloads))]
    sim = collab.sim
    while not all(app.registered for app in apps):
        clock.run(sim, sim.now + 0.25)
    return {"collab": collab, "server": server, "apps": apps,
            "start_updates": {app.name: app.update_seq for app in apps},
            "start_lags": len(server.recorder.samples("update_lag"))}


def steer_farm_run(state: dict, clock) -> None:
    sim = state["collab"].sim
    clock.run(sim, sim.now + STEER_DURATION)


def steer_farm_result(state: dict) -> dict:
    collab, server = state["collab"], state["server"]
    lags = server.recorder.samples("update_lag")[state["start_lags"]:]
    sent = {app.name: app.update_seq - state["start_updates"][app.name]
            for app in state["apps"]}
    errors = server.pipeline_metrics.errors()
    lag_sorted = sorted(lags)
    row = {
        "apps": len(state["apps"]),
        "updates_sent": sum(sent.values()),
        "updates_ingested": len(lags),
        "mean_lag_ms": sum(lags) / len(lags) * 1e3 if lags else 0.0,
        "p90_lag_ms": (lag_sorted[int(0.9 * (len(lags) - 1))] * 1e3
                       if lags else 0.0),
        "max_lag_ms": lag_sorted[-1] * 1e3 if lags else 0.0,
        "pipeline_errors": errors,
        "virtual_end_s": collab.sim.now,
    }
    violations = []
    if errors:
        violations.append(f"{errors} pipeline errors")
    idle = [name for name, n in sent.items() if n == 0]
    if idle:
        violations.append(f"apps sent no updates: {idle}")
    # every update sent before the final instant is ingested; allow the
    # in-flight tail of at most one update per application
    if len(lags) < row["updates_sent"] - len(state["apps"]):
        violations.append(f"only {len(lags)} of {row['updates_sent']} "
                          f"updates ingested")
    return {"row": row,
            "counts": _native_counts(collab.sim, collab.net,
                                     list(collab.servers.values()),
                                     collab.tracer),
            "attempted": row["updates_sent"],
            "failed": errors,
            "ops": len(lags),
            "violations": violations}


# -- collab_poll: E4 P2P, 3 WAN domains of watchers polling locally ---------
POLL_DOMAINS = 3
POLL_WATCHERS = 8
POLL_DURATION = 90.0


def _watcher(portal: DiscoverPortal, app_id: str, *, offset: float,
             interval: float, deadline: float, tally: dict):
    sim = portal.sim
    yield sim.timeout(offset)
    yield from portal.login(USER)
    yield from portal.open(app_id)
    seen = 0
    while sim.now < deadline:
        tally["attempted"] += 1
        try:
            yield from portal.poll(max_items=32)
        except (HttpError, PortalError):
            tally["failed"] += 1
        else:
            tally["answered"] += 1
        while seen < len(portal.updates):
            update = portal.updates[seen]
            seen += 1
            if update.timestamp > 0:
                tally["latencies"].append(sim.now - update.timestamp)
        remaining = deadline - sim.now
        if remaining <= 0:
            break
        yield sim.timeout(min(interval, remaining))
    tally["seen"].append(seen)


def collab_poll_setup(seed: int, clock) -> dict:
    rng = _inputs("collab_poll", seed)
    n = POLL_DOMAINS * POLL_WATCHERS
    plan = [(i // POLL_WATCHERS, offset, interval)
            for i, (offset, interval) in enumerate(zip(
                _stratified(rng, n, 0.0, 1.0),
                _stratified(rng, n, 0.2, 0.3)))]
    collab = build_collaboratory(
        POLL_DOMAINS, apps_hosts_per_domain=1,
        client_hosts_per_domain=POLL_WATCHERS,
        spec=LinkSpec(wan_latency=0.030))
    clock.mark()
    collab.run_bootstrap()
    clock.mark()
    apps = make_app_farm(collab, 1, domain_index=0, user=USER,
                         update_period=0.5, payload_floats=64)
    sim = collab.sim
    while not apps[0].registered:
        clock.run(sim, sim.now + 0.25)
    return {"collab": collab, "app": apps[0], "plan": plan}


def collab_poll_run(state: dict, clock) -> None:
    collab = state["collab"]
    sim = collab.sim
    deadline = sim.now + POLL_DURATION
    tally = state["tally"] = {"attempted": 0, "answered": 0, "failed": 0,
                              "latencies": [], "seen": []}
    per_domain = {}
    for d, offset, interval in state["plan"]:
        domain = collab.domains[d]
        index = per_domain[d] = per_domain.get(d, -1) + 1
        host = domain.client_hosts[index % len(domain.client_hosts)]
        portal = DiscoverPortal(host, domain.server.name)
        collab.portals.append(portal)
        sim.spawn(_watcher(portal, state["app"].app_id, offset=offset,
                           interval=interval, deadline=deadline,
                           tally=tally), name=f"watcher-{d}-{index}")
    collab.net.trace.reset()
    clock.run(sim, deadline + 1.0)


def collab_poll_result(state: dict) -> dict:
    collab, tally = state["collab"], state["tally"]
    trace = collab.net.trace
    lat = sorted(tally["latencies"])
    row = {
        "watchers": len(state["plan"]),
        "polls_attempted": tally["attempted"],
        "polls_answered": tally["answered"],
        "updates_seen": len(lat),
        "min_updates_per_watcher": min(tally["seen"]) if tally["seen"] else 0,
        "mean_update_latency_ms": sum(lat) / len(lat) * 1e3 if lat else 0.0,
        "p90_update_latency_ms": (lat[int(0.9 * (len(lat) - 1))] * 1e3
                                  if lat else 0.0),
        "wan_messages": trace.wan_messages,
        "wan_bytes": trace.wan_bytes,
        "lan_messages": trace.lan_messages,
        "virtual_end_s": collab.sim.now,
    }
    violations = []
    if tally["failed"]:
        violations.append(f"{tally['failed']} polls failed")
    if len(tally["seen"]) != len(state["plan"]):
        violations.append(f"{len(state['plan']) - len(tally['seen'])} "
                          f"watchers did not finish")
    if row["min_updates_per_watcher"] == 0:
        violations.append("a watcher saw no updates")
    return {"row": row,
            "counts": _native_counts(collab.sim, collab.net,
                                     list(collab.servers.values()),
                                     collab.tracer),
            "attempted": tally["attempted"],
            "failed": tally["failed"],
            "ops": tally["answered"],
            "violations": violations}


# -- directory_fleet: E11, 50 servers on the star backbone ------------------
FLEET_SERVERS = 50
FLEET_SHARDS = 4
FLEET_REPLICAS = 2
FLEET_SESSIONS = 3000
FLEET_APPS = 4 * FLEET_SERVERS
FLEET_USERS = 150


def _session(server, plan, homes: dict, tally: dict):
    """One scripted visit: login → locate each planned app → logout."""
    try:
        client_id = yield from server.client_login(plan.user)
    except Exception:  # noqa: BLE001 - any login failure is a failed op
        tally["failed"] += 1
        return
    for app_id, think in zip(plan.apps, plan.thinks):
        if think > 0:
            yield server.sim.timeout(think)
        try:
            home = yield from server.directory.locate_app(app_id)
        except OrbError:
            tally["lookup_errors"] += 1
            continue
        if home != homes[app_id]:
            tally["misses"] += 1
    server.client_logout(client_id)
    tally["done"] += 1


def directory_fleet_setup(seed: int, clock) -> dict:
    fleet = build_fleet(FLEET_SERVERS, directory_shards=FLEET_SHARDS,
                        directory_replicas=FLEET_REPLICAS)
    clock.mark()
    sim = fleet.sim
    pub = sim.spawn(publish_population(
        fleet, n_apps=FLEET_APPS, n_users=FLEET_USERS,
        rng=DeterministicRNG(seed, "population")), name="publish")
    population = clock.wait(sim, pub)
    duration = max(20.0, 3.0 * FLEET_SESSIONS / (80.0 * FLEET_SHARDS))
    spec = TrafficSpec(total_sessions=FLEET_SESSIONS, duration=duration,
                       ops_per_session=constant(2),
                       think_time=exponential(0.1), app_mix="uniform",
                       seed=seed)
    return {"fleet": fleet, "population": population, "spec": spec}


def directory_fleet_run(state: dict, clock) -> None:
    fleet, population, spec = (state["fleet"], state["population"],
                               state["spec"])
    sim = fleet.sim
    tally = state["tally"] = {"done": 0, "failed": 0, "misses": 0,
                              "lookup_errors": 0}
    names = [s.name for s in fleet.servers]

    def arrivals():
        for gap, plan in session_plans(spec, population.users,
                                       population.app_ids, names):
            if gap > 0:
                yield sim.timeout(gap)
            sim.spawn(_session(fleet.by_name[plan.edge], plan,
                               population.homes, tally), name="session")

    state["t0"] = sim.now
    sim.spawn(arrivals(), name="arrivals")
    deadline = sim.now + spec.duration + 120.0
    while (tally["done"] + tally["failed"] < spec.total_sessions
           and sim.now < deadline):
        clock.run(sim, min(sim.now + 10.0, deadline))


def directory_fleet_result(state: dict) -> dict:
    fleet, tally = state["fleet"], state["tally"]
    merged = Reservoir()
    for server in fleet.servers:
        merged.merge(server.directory_metrics.read_reservoir())
    stats = merged.stats().scaled(1e3)
    total = state["spec"].total_sessions
    row = {
        "sessions": total,
        "sessions_done": tally["done"],
        "sessions_failed": tally["failed"],
        "locate_misses": tally["misses"],
        "lookup_errors": tally["lookup_errors"],
        "dir_reads": merged.count,
        "lookup_mean_ms": stats.mean,
        "lookup_p50_ms": stats.p50,
        "lookup_p99_ms": stats.p99,
        "virtual_duration_s": fleet.sim.now - state["t0"],
    }
    violations = [f"{tally[key]} {key.replace('_', ' ')}"
                  for key in ("failed", "misses", "lookup_errors")
                  if tally[key]]
    if tally["done"] != total:
        violations.append(f"{tally['done']} of {total} sessions done")
    return {"row": row,
            "counts": _native_counts(fleet.sim, fleet.net, fleet.servers),
            "attempted": total,
            "failed": (total - tally["done"] + tally["lookup_errors"]
                       + tally["misses"]),
            "ops": tally["done"],
            "violations": violations}


WORKLOADS = {
    "steer_farm": (steer_farm_setup, steer_farm_run, steer_farm_result),
    "collab_poll": (collab_poll_setup, collab_poll_run, collab_poll_result),
    "directory_fleet": (directory_fleet_setup, directory_fleet_run,
                        directory_fleet_result),
}
