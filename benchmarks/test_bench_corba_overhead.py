"""E15 — §6.2: "CORBA, however, causes the middleware to give up control
over its transport and communication policies and reduces performance when
compared to a lower level socket based system."

Same request/reply payloads over (a) the mini-ORB (marshalling + dispatch
costs) and (b) a raw socket-style channel (endpoint send + echo process),
sweeping payload size.  The shape: a fixed per-call ORB penalty plus a
per-byte marshalling penalty that grows with payload.
"""

from benchmarks.conftest import run_once
from repro.bench import print_experiment
from repro.metrics import LatencyRecorder
from repro.net import Network
from repro.orb import Orb
from repro.sim import Simulator
from repro.wire import CommandMessage, ResponseMessage

PAYLOAD_FLOATS = (8, 256, 4096)
CALLS = 30
LAT = 0.001


class _EchoServant:
    def echo(self, data):
        return data


def _corba_rtt(payload: list) -> float:
    sim = Simulator()
    net = Network(sim)
    net.add_host("a")
    net.add_host("b")
    net.add_link("a", "b", LAT)
    corb = Orb(net.hosts["a"])
    sorb = Orb(net.hosts["b"])
    ref = sorb.activate(_EchoServant(), key="echo")
    recorder = LatencyRecorder(sim)

    def caller():
        for i in range(CALLS):
            recorder.start("rtt", i)
            yield from corb.invoke(ref, "echo", payload)
            recorder.stop("rtt", i)

    proc = sim.spawn(caller())
    sim.run(until=proc)
    return recorder.stats("rtt").mean


def _raw_rtt(payload: list) -> float:
    """The lower-level socket system: endpoints + an echo process."""
    sim = Simulator()
    net = Network(sim)
    net.add_host("a")
    net.add_host("b")
    net.add_link("a", "b", LAT)
    client = net.hosts["a"].bind(9000)
    server = net.hosts["b"].bind(9001)
    recorder = LatencyRecorder(sim)

    def echo_server():
        for _ in range(CALLS):
            frame = yield server.recv()
            msg = frame.payload
            # raw system still deserializes: charge the cheap TCP cost
            yield from net.hosts["b"].use_cpu(0.003 + 2e-8 * frame.size)
            server.send(frame.src_host, frame.src_port,
                        ResponseMessage(msg.request_id, msg.args["data"]))

    def caller():
        for i in range(CALLS):
            recorder.start("rtt", i)
            cmd = CommandMessage("echo", {"data": payload})
            client.send("b", 9001, cmd)
            yield client.recv()
            recorder.stop("rtt", i)

    sim.spawn(echo_server())
    proc = sim.spawn(caller())
    sim.run(until=proc)
    return recorder.stats("rtt").mean


def test_bench_e11_corba_overhead(benchmark):
    def scenario():
        rows = []
        for n in PAYLOAD_FLOATS:
            payload = [float(i) for i in range(n)]
            corba = _corba_rtt(payload) * 1e3
            raw = _raw_rtt(payload) * 1e3
            rows.append({
                "payload_floats": n,
                "payload_kb": n * 9 / 1024.0,
                "corba_rtt_ms": corba,
                "raw_socket_rtt_ms": raw,
                "overhead_ms": corba - raw,
                "overhead_pct": 100.0 * (corba - raw) / raw,
            })
        return rows

    rows = run_once(benchmark, scenario)
    print_experiment(
        "E15: ORB invocation vs lower-level socket protocol",
        "CORBA ... reduces performance when compared to a lower level "
        "socket based system",
        rows,
        ["payload_floats", "payload_kb", "corba_rtt_ms",
         "raw_socket_rtt_ms", "overhead_ms", "overhead_pct"],
        finding=(f"ORB adds {rows[0]['overhead_ms']:.1f}ms per small call, "
                 f"growing to {rows[-1]['overhead_ms']:.1f}ms at "
                 f"{rows[-1]['payload_kb']:.0f}kB (marshalling)"),
    )
    for row in rows:
        assert row["corba_rtt_ms"] > row["raw_socket_rtt_ms"]
    # marshalling: the absolute overhead grows with payload size
    assert rows[-1]["overhead_ms"] > rows[0]["overhead_ms"]
