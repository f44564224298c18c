"""A2 — §6.2: "The poll and pull mechanism makes it necessary to maintain
FIFO buffers at the server for each client to support slow clients.  Such a
poll and pull mechanism may be unsuitable ... as it presents both memory
and performance overheads."

One fast application, one slow client (long poll interval).  Unbounded
buffers grow without limit (the paper's memory overhead); bounded buffers
cap memory but drop messages.  The shape: a memory/completeness trade-off.
"""

from benchmarks.conftest import run_once
from repro.bench import print_experiment
from repro.bench.workload import make_app_farm, polling_client
from repro.core.deployment import build_single_server
from repro.core.server import ServerConfig
from repro.metrics import LatencyRecorder

CAPACITIES = (float("inf"), 64, 16, 4)
DURATION = 30.0
SLOW_POLL = 3.0
UPDATE_PERIOD = 0.1


def _buffer_run(capacity: float) -> dict:
    collab = build_single_server(
        server=ServerConfig(client_buffer_capacity=capacity))
    collab.run_bootstrap()
    apps = make_app_farm(collab, 1, user="bench",
                         update_period=UPDATE_PERIOD)
    collab.sim.run(until=collab.sim.now + 2.0)
    app_id = apps[0].app_id
    server = collab.server_of(0)
    recorder = LatencyRecorder(collab.sim)
    peak = {"depth": 0}

    def watch_buffers():
        for _ in range(int((DURATION + 1.0) / 0.1)):
            for session in server.collab._sessions.values():
                peak["depth"] = max(peak["depth"], len(session.buffer))
            yield collab.sim.timeout(0.1)

    collab.sim.spawn(watch_buffers())
    portal = collab.add_portal(0)
    collab.sim.spawn(polling_client(
        portal, app_id, user="bench", duration=DURATION,
        poll_interval=SLOW_POLL, recorder=recorder))
    collab.sim.run(until=collab.sim.now + DURATION + 1.0)
    delivered = server.collab.delivered
    dropped = server.collab.dropped
    return {
        "capacity": ("unbounded" if capacity == float("inf")
                     else int(capacity)),
        "peak_buffer_depth": peak["depth"],
        "delivered": delivered,
        "dropped": dropped,
        "drop_pct": 100.0 * dropped / max(1, delivered + dropped),
    }


def test_bench_a2_fifo_buffer_bounds(benchmark):
    rows = run_once(benchmark, lambda: [_buffer_run(c) for c in CAPACITIES])
    print_experiment(
        "A2 (ablation): per-client FIFO buffer bounds for slow clients",
        "necessary to maintain FIFO buffers at the server for each client "
        "to support slow clients ... memory and performance overheads",
        rows,
        ["capacity", "peak_buffer_depth", "delivered", "dropped",
         "drop_pct"],
        finding=(f"unbounded buffer peaks at "
                 f"{rows[0]['peak_buffer_depth']} messages for one slow "
                 f"client; capacity 4 drops "
                 f"{rows[-1]['drop_pct']:.0f}% instead"),
    )
    unbounded = rows[0]
    tight = rows[-1]
    # the paper's memory overhead is real: buffers grow well past any bound
    assert unbounded["peak_buffer_depth"] > 16
    assert unbounded["dropped"] == 0
    # bounding trades memory for loss
    assert tight["peak_buffer_depth"] <= 4
    assert tight["dropped"] > 0
