"""E16 — §5.2.5: the interaction log "enables clients to replay their
interactions with the applications.  It also enables latecomers to a
collaboration group to get up to speed."

A driver client builds up K archived interactions; a latecomer then joins
and fetches catch-up history.  The shape: catch-up cost grows with history
length (log reads + response payload), so bounded catch-up windows are the
practical choice.
"""

from benchmarks.conftest import run_once
from repro.bench import print_experiment
from repro.bench.workload import make_app_farm
from repro.core.deployment import build_single_server
from repro.metrics import LatencyRecorder

HISTORY = (10, 50, 100, 200)


def _archival_run(k: int) -> dict:
    collab = build_single_server()
    collab.run_bootstrap()
    apps = make_app_farm(collab, 1, user="bench", update_period=0.2)
    collab.sim.run(until=collab.sim.now + 2.0)
    app_id = apps[0].app_id
    recorder = LatencyRecorder(collab.sim)

    def driver():
        portal = collab.add_portal(0)
        yield from portal.login("bench")
        session = yield from portal.open(app_id)
        yield from session.acquire_lock()
        for i in range(k):
            # archive grows by one interaction per command
            yield from session.command("get_param", {"name": "gain"})
            yield collab.sim.timeout(0.01)
        # let responses drain
        yield collab.sim.timeout(2.0)

    def latecomer():
        portal = collab.add_portal(0)
        yield from portal.login("bench")
        session = yield from portal.open(app_id)
        recorder.start("catchup", 0)
        records = yield from session.catchup(n=k)
        recorder.stop("catchup", 0)
        recorder.start("full_replay", 0)
        replay = yield from session.replay_interactions()
        recorder.stop("full_replay", 0)
        return (len(records), len(replay))

    drv = collab.sim.spawn(driver())
    collab.sim.run(until=drv)
    late = collab.sim.spawn(latecomer())
    caught, replayed = collab.sim.run(until=late)
    return {
        "history_k": k,
        "catchup_records": caught,
        "replay_records": replayed,
        "catchup_ms": recorder.stats("catchup").mean * 1e3,
        "full_replay_ms": recorder.stats("full_replay").mean * 1e3,
    }


def test_bench_e12_archival_replay(benchmark):
    rows = run_once(benchmark, lambda: [_archival_run(k) for k in HISTORY])
    print_experiment(
        "E16: latecomer catch-up and replay cost vs history length",
        "enables clients to replay their interactions ... enables "
        "latecomers to a collaboration group to get up to speed",
        rows,
        ["history_k", "catchup_records", "replay_records", "catchup_ms",
         "full_replay_ms"],
        finding=(f"catch-up grows from {rows[0]['catchup_ms']:.0f}ms at "
                 f"K={rows[0]['history_k']} to "
                 f"{rows[-1]['catchup_ms']:.0f}ms at "
                 f"K={rows[-1]['history_k']}"),
    )
    # the archive actually contains the history
    for row in rows:
        assert row["catchup_records"] == row["history_k"]
        assert row["replay_records"] >= row["history_k"]
    # cost grows with history length
    assert rows[-1]["catchup_ms"] > rows[0]["catchup_ms"]
    assert rows[-1]["full_replay_ms"] >= rows[-1]["catchup_ms"] * 0.8
