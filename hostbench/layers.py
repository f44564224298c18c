"""Traced-run shims: per-layer self time, counts and spans.

The traced run wraps each layer's public entry points from outside the
program.  Every wrapped call is a *frame* on one stack; a frame's self
time is the host time during which it is the innermost wrapped frame, so
the layer times partition the traced host time.  Entry points that return
a generator (``Orb.invoke``, ``Pipeline.execute``,
``DirectoryClient.locate_app``, ``DiscoverServer.client_login``,
``DiscoverPortal.poll``, ...) are timed per resume: each ``send``/``throw``
into the generator is one frame, and the virtual time the generator spends
suspended is not charged to anyone.

The kernel's own dispatch targets — ``Process._resume`` and the two
scheduled-callback adapters — are frames too, so ``sim`` self time is the
dispatch loop alone; process code and callbacks outside every wrapped
layer are charged to ``sim.proc`` and ``sim.callback``.

Module-level wire functions are replaced in every ``repro`` module
namespace that imported them by name, so callers holding their own
reference are timed too.

Spans (one per frame: key, parent, start, end; the first ``MAX_SPANS``)
are kept in memory in typed arrays and written out by
:meth:`Meter.write_spans` when the run ends.

The shims only observe: they create no simulation events, change no
virtual time and no wire size.  The benchmark proves that on every traced
run by comparing the program's own counters and the virtual-time row with
an untraced run of the same seed.
"""

from __future__ import annotations

import functools
import gc
import importlib
import json
import sys
import time
from array import array
from types import GeneratorType

OUTSIDE = "(outside)"
MAX_SPANS = 200_000


class Meter:
    """Self-time accounting over a stack of wrapped frames."""

    def __init__(self) -> None:
        self.clock = time.perf_counter
        self.self_s: dict = {}
        self.calls: dict = {}
        #: per-key tallies reported by ``done`` hooks (errors, items, ...)
        self.tally: dict = {}
        self._stack = [OUTSIDE]
        self._last = self.clock()
        self.keys: list = []
        self._key_ids: dict = {}
        self.span_key = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.spans_dropped = 0
        self._open = [-1]
        self.gc_pause_s = 0.0
        self.gc_collections = [0, 0, 0]
        self._gc_t0 = 0.0

    # -- frames ----------------------------------------------------------
    def enter(self, key: str) -> None:
        now = self.clock()
        top = self._stack[-1]
        self.self_s[top] = self.self_s.get(top, 0.0) + (now - self._last)
        self._stack.append(key)
        self._last = now
        n = len(self.span_start)
        if n < MAX_SPANS:
            key_id = self._key_ids.get(key)
            if key_id is None:
                key_id = self._key_ids[key] = len(self.keys)
                self.keys.append(key)
            self.span_key.append(key_id)
            self.span_parent.append(self._open[-1])
            self.span_start.append(now)
            self.span_end.append(now)
            self._open.append(n)
        else:
            self.spans_dropped += 1
            self._open.append(self._open[-1])

    def leave(self) -> None:
        now = self.clock()
        key = self._stack.pop()
        self.self_s[key] = self.self_s.get(key, 0.0) + (now - self._last)
        self._last = now
        index = self._open.pop()
        if index >= 0 and index != self._open[-1]:
            self.span_end[index] = now

    def count(self, key: str, n: int = 1) -> None:
        self.calls[key] = self.calls.get(key, 0) + n

    def add(self, key: str, n) -> None:
        self.tally[key] = self.tally.get(key, 0) + n

    # -- garbage collector -----------------------------------------------
    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_t0 = self.clock()
        else:
            self.gc_pause_s += self.clock() - self._gc_t0
            self.gc_collections[info["generation"]] += 1

    def watch_gc(self) -> None:
        gc.callbacks.append(self._on_gc)

    def unwatch_gc(self) -> None:
        gc.callbacks.remove(self._on_gc)

    # -- output ------------------------------------------------------------
    def write_spans(self, path) -> None:
        """One JSON object per line: layer key, parent span index, start
        and end in microseconds from the first span."""
        t0 = self.span_start[0] if self.span_start else 0.0
        with open(path, "w") as out:
            out.write(json.dumps({"keys": self.keys,
                                  "spans": len(self.span_start),
                                  "dropped": self.spans_dropped}) + "\n")
            for i in range(len(self.span_start)):
                out.write(json.dumps(
                    [self.span_key[i], self.span_parent[i],
                     round((self.span_start[i] - t0) * 1e6, 3),
                     round((self.span_end[i] - t0) * 1e6, 3)]) + "\n")


def _timed_gen(meter: Meter, key: str, gen, done, args):
    """Drive ``gen``, timing each resume as one frame of ``key``."""
    value = exc = None
    while True:
        meter.enter(key)
        try:
            out = gen.send(value) if exc is None else gen.throw(exc)
        except StopIteration as stop:
            meter.leave()
            if done is not None:
                done(meter, args, stop.value, None)
            return stop.value
        except BaseException as error:
            meter.leave()
            if done is not None:
                done(meter, args, None, error)
            raise
        meter.leave()
        try:
            value = yield out
            exc = None
        except GeneratorExit:
            gen.close()
            raise
        except BaseException as error:  # thrown in by the kernel
            value, exc = None, error


def _wrap(meter: Meter, fn, key: str, timed: bool, done):
    def wrapper(*args, **kwargs):
        meter.count(key)
        if timed:
            meter.enter(key)
        try:
            result = fn(*args, **kwargs)
        except BaseException as error:
            if timed:
                meter.leave()
            if done is not None:
                done(meter, args, None, error)
            raise
        if timed:
            meter.leave()
        if isinstance(result, GeneratorType):
            wrapped = _timed_gen(meter, key, result, done, args)
            wrapped.__name__ = result.__name__
            wrapped.__qualname__ = result.__qualname__
            return wrapped
        if done is not None:
            done(meter, args, result, None)
        return result
    return functools.update_wrapper(wrapper, fn)


# -- done hooks: outcomes the layers report -----------------------------------
def _orb_done(meter, args, result, error):
    if error is not None:
        meter.add("orb.errors", 1)


def _pipeline_done(meter, args, result, error):
    ctx = args[1]
    error_type = ctx.attrs.get("error_type")
    if error is not None:
        error_type = type(error).__name__
    if error_type is not None:
        meter.add("pipeline.errors", 1)
        if error_type == "PolicyViolation":
            meter.add("pipeline.shed", 1)


def _poll_done(meter, args, result, error):
    if result is not None:
        meter.add("client.items", len(result))


def _push_done(meter, args, result, error):
    if result:
        meter.add("core.push_accepted", 1)


#: (module, class or None, attribute, key, timed, done hook)
ENTRY_POINTS = [
    ("repro.sim.kernel", "Simulator", "run", "sim", True, None),
    ("repro.sim.kernel", "Simulator", "spawn", "sim.spawn", False, None),
    # what the dispatch loop calls: process resumes and scheduled
    # callbacks, so that "sim" self time is the loop itself
    ("repro.sim.process", "Process", "_resume", "sim.proc", True, None),
    ("repro.sim.kernel", "_PooledCallback", "__call__", "sim.callback", True,
     None),
    ("repro.sim.kernel", "_ScheduledCall", "__call__", "sim.callback", True,
     None),
    ("repro.net.network", "Network", "send", "net.send", True, None),
    ("repro.wire.serialize", None, "freeze_size", "wire.size", True, None),
    ("repro.wire.serialize", None, "encoded_size", "wire.size", True, None),
    ("repro.wire.serialize", None, "encode", "wire.encode", True, None),
    ("repro.orb.core", "Orb", "invoke", "orb.invoke", True, _orb_done),
    ("repro.orb.core", "Orb", "invoke_oneway", "orb.oneway", True,
     _orb_done),
    ("repro.pipeline.core", "Pipeline", "execute", "pipeline", True,
     _pipeline_done),
    ("repro.client.portal", "DiscoverPortal", "poll", "client.poll", True,
     _poll_done),
    ("repro.core.server", "DiscoverServer", "on_app_update", "core.update",
     True, None),
    ("repro.core.server", "DiscoverServer", "client_login", "core.login",
     True, None),
    ("repro.core.server", "DiscoverServer", "on_peer_update",
     "federation.peer_update", True, None),
    ("repro.core.collaboration", "CollaborationManager", "broadcast_update",
     "core.broadcast", True, None),
    ("repro.core.collaboration", "CollaborationManager", "push_to_client",
     "core.push", False, _push_done),
    ("repro.directory.client", "DirectoryClient", "locate_app",
     "directory.locate", True, None),
    ("repro.directory.client", "DirectoryClient", "publish_app",
     "directory.publish", True, None),
    ("repro.storage.journal", "StateJournal", "append", "storage.append",
     True, None),
    ("repro.storage.journal", "StateJournal", "take_snapshot",
     "storage.snapshot", True, None),
    ("repro.health.monitor", "HealthMonitor", "tick", "health.tick", True,
     None),
    ("repro.metrics.collectors", "PipelineMetrics", "observe",
     "metrics.observe", True, None),
    ("repro.metrics.collectors", "FederationMetrics", "observe_staleness",
     "metrics.observe", True, None),
    ("repro.metrics.collectors", "DirectoryMetrics", "observe_read",
     "metrics.observe", True, None),
    ("repro.apps.synthetic", "SyntheticApp", "step", "steering.step", True,
     None),
    ("repro.apps.synthetic", "SyntheticApp", "update_payload",
     "steering.payload", True, None),
]

#: observability planes: every public method of these classes is one key
OBS_CLASSES = [
    ("repro.obs.tracer", "Tracer", "obs.tracer",
     ("start_span", "finish", "annotate", "record_span", "activate",
      "deactivate", "current_span", "current_context")),
    ("repro.obs.interceptor", "TracingInterceptor", "obs.tracer",
     ("before", "after", "on_error")),
    ("repro.obs.accounting", "RequestCostLedger", "obs.ledger",
     ("charge", "open_request", "close_request", "bind_trace",
      "account_frame_hop", "account_dropped")),
    ("repro.obs.accounting", "AccountingInterceptor", "obs.ledger",
     ("before", "after", "on_error")),
    ("repro.obs.timeseries", "TimeSeriesRegistry", "obs.ts",
     ("inc", "set_gauge", "observe")),
]


def install(meter: Meter) -> list:
    """Wrap every entry point; returns the names that were not found.

    Call after the workload modules are imported (so every module that
    imported a wire function by name is in ``sys.modules``) and before
    the deployment is built.
    """
    missing = []
    targets = list(ENTRY_POINTS)
    for module, cls, key, methods in OBS_CLASSES:
        targets.extend((module, cls, m, key, True, None) for m in methods)
    for module_name, cls_name, attr, key, timed, done in targets:
        module = importlib.import_module(module_name)
        owner = getattr(module, cls_name) if cls_name else module
        original = (owner.__dict__.get(attr) if cls_name
                    else getattr(module, attr, None))
        if not callable(original):
            missing.append(f"{module_name}.{cls_name or ''}.{attr}")
            continue
        wrapper = _wrap(meter, original, key, timed, done)
        if cls_name:
            # aliases on the same class (Simulator.process = spawn) too
            for name, value in list(vars(owner).items()):
                if value is original:
                    setattr(owner, name, wrapper)
            continue
        for mod in list(sys.modules.values()):
            if (getattr(mod, "__name__", "").startswith("repro")
                    and getattr(mod, attr, None) is original):
                setattr(mod, attr, wrapper)
    return missing


def snapshot(meter: Meter) -> dict:
    """What a traced worker reports for :func:`layer_metrics`."""
    return {"self_s": meter.self_s, "calls": meter.calls,
            "tally": meter.tally, "gc_gen2": meter.gc_collections[2],
            "gc_pause_s": meter.gc_pause_s,
            "spans": len(meter.span_start),
            "spans_dropped": meter.spans_dropped}


def layer_metrics(raw: dict, counts: dict, ref_untraced: float,
                  ref_traced: float) -> dict:
    """The per-layer metrics, ``name -> (value, unit)``: wrapper self
    times and counts from a traced worker's :func:`snapshot`, plus the
    program's own counters (``counts``) where the program keeps one."""
    s, n, t = raw["self_s"], raw["calls"], raw["tally"]

    def sec(*keys):
        return sum(s.get(k, 0.0) for k in keys)

    def ratio(num, den):
        return num / den if den else 0.0

    polls = n.get("client.poll", 0)
    pushes = n.get("core.push", 0)
    hits = counts.get("program.dir_stub_hits", 0)
    misses = counts.get("program.dir_stub_misses", 0)
    events = counts["sim.events"]
    return {
        "sim.events": (events, "count"),
        "sim.spawns": (n.get("sim.spawn", 0), "count"),
        "sim.self_s": (sec("sim"), "s"),
        "sim.us_per_event": (ratio(sec("sim") * 1e6, events), "us"),
        "sim.resumes": (n.get("sim.proc", 0), "count"),
        "sim.proc_s": (sec("sim.proc"), "s"),
        "sim.callback_s": (sec("sim.callback"), "s"),
        "net.frames": (n.get("net.send", 0), "count"),
        "net.send_s": (sec("net.send"), "s"),
        "net.wan_frames": (counts["net.wan_frames"], "count"),
        "net.wan_bytes": (counts["net.wan_bytes"], "bytes"),
        "net.lan_bytes": (counts["net.lan_bytes"], "bytes"),
        "net.dropped_frames": (counts["net.dropped_frames"], "count"),
        "wire.size_calls": (n.get("wire.size", 0), "count"),
        "wire.size_s": (sec("wire.size"), "s"),
        "wire.encode_calls": (n.get("wire.encode", 0), "count"),
        "orb.invokes": (n.get("orb.invoke", 0), "count"),
        "orb.oneways": (n.get("orb.oneway", 0), "count"),
        "orb.invoke_s": (sec("orb.invoke", "orb.oneway"), "s"),
        "orb.errors": (t.get("orb.errors", 0), "count"),
        "pipeline.requests": (n.get("pipeline", 0), "count"),
        "pipeline.self_s": (sec("pipeline"), "s"),
        "pipeline.errors": (t.get("pipeline.errors", 0), "count"),
        "pipeline.shed": (t.get("pipeline.shed", 0), "count"),
        "web.requests": (counts["web.requests"], "count"),
        "web.sessions_expired": (counts["program.sessions_expired"],
                                 "count"),
        "client.polls": (polls, "count"),
        "client.poll_s": (sec("client.poll"), "s"),
        "client.items_per_poll": (ratio(t.get("client.items", 0), polls),
                                  "items"),
        "core.logins": (n.get("core.login", 0), "count"),
        "core.login_s": (sec("core.login"), "s"),
        "core.updates": (n.get("core.update", 0), "count"),
        "core.update_s": (sec("core.update"), "s"),
        "core.broadcasts": (n.get("core.broadcast", 0), "count"),
        "core.broadcast_s": (sec("core.broadcast"), "s"),
        "core.pushes": (pushes, "count"),
        "core.push_accept_ratio": (
            ratio(t.get("core.push_accepted", 0), pushes), "ratio"),
        "federation.peer_updates": (n.get("federation.peer_update", 0),
                                    "count"),
        "federation.peer_update_s": (sec("federation.peer_update"), "s"),
        "federation.subscribes": (counts["program.fed_subscribes"],
                                  "count"),
        "federation.poll_failovers": (counts["program.fed_poll_failovers"],
                                      "count"),
        "federation.invalidations": (counts["program.fed_invalidations"],
                                     "count"),
        "directory.locates": (n.get("directory.locate", 0), "count"),
        "directory.locate_s": (sec("directory.locate"), "s"),
        "directory.publishes": (counts["program.dir_publishes"], "count"),
        "directory.stub_hit_ratio": (ratio(hits, hits + misses), "ratio"),
        "directory.read_failovers": (counts["program.dir_read_failovers"],
                                     "count"),
        "directory.stale_retries": (counts["program.dir_stale_retries"],
                                    "count"),
        "storage.appends": (counts["program.storage_appends"], "count"),
        "storage.append_s": (sec("storage.append"), "s"),
        "storage.snapshots": (counts["program.storage_snapshots"], "count"),
        "storage.snapshot_s": (sec("storage.snapshot"), "s"),
        "obs.spans": (counts.get("program.spans_recorded", 0), "count"),
        "obs.spans_dropped": (counts.get("program.spans_dropped", 0),
                              "count"),
        "obs.tracer_s": (sec("obs.tracer"), "s"),
        "obs.ledger_calls": (n.get("obs.ledger", 0), "count"),
        "obs.ledger_s": (sec("obs.ledger"), "s"),
        "obs.ts_writes": (n.get("obs.ts", 0), "count"),
        "obs.ts_s": (sec("obs.ts"), "s"),
        "health.ticks": (n.get("health.tick", 0), "count"),
        "health.tick_s": (sec("health.tick"), "s"),
        "metrics.observes": (n.get("metrics.observe", 0), "count"),
        "metrics.observe_s": (sec("metrics.observe"), "s"),
        "steering.steps": (n.get("steering.step", 0), "count"),
        "steering.step_s": (sec("steering.step", "steering.payload"), "s"),
        "runtime.gc_gen2": (raw["gc_gen2"], "count"),
        "runtime.gc_pause_s": (raw["gc_pause_s"], "s"),
        "trace.overhead_ratio": (ratio(ref_traced, ref_untraced), "ratio"),
    }
