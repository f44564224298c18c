#!/usr/bin/env python
"""Lint: architectural boundaries the refactors carved out must hold.

Ten checks, all AST-based:

1. **Pipeline boundary** — the three dispatch planes
   (``repro.web.container``, ``repro.orb.core``, ``repro.core.daemon``)
   route requests; cross-cutting concerns live in
   :mod:`repro.pipeline.interceptors`.  Importing ``repro.core.security``
   or ``repro.core.policies`` from a dispatch module re-inlines a concern
   the pipeline refactor pulled out.

2. **Federation boundary** — location/routing concerns live in
   :mod:`repro.federation`.  Referencing ``is_local_app`` / ``peer_stub``
   / ``proxy_stub`` anywhere else in ``src/repro`` re-inlines the
   local-vs-remote branching the federation refactor collapsed into
   ``router.resolve(app_id)``.

3. **Obs boundary** — only :mod:`repro.obs` may construct spans or read
   span internals; everything else goes through the ``Tracer`` API (the
   facade ``from repro.obs import ...`` is fine).  Importing an obs
   *submodule* (``repro.obs.span`` etc.) or naming ``Span`` /
   ``TraceContext`` / ``SpanNode`` outside the package couples callers
   to the span representation instead of the tracing API.

4. **Health boundary** — status folding lives in :mod:`repro.health`;
   callers consult the :class:`HealthMonitor` query API
   (``status_of`` / ``is_unhealthy_peer`` / ``note_*``), never the
   hysteresis machinery.  Importing a health *submodule*
   (``repro.health.model`` etc. — the facade ``from repro.health import
   HealthMonitor`` stays legal) or naming ``ComponentHealth`` /
   ``HealthModel`` outside the package re-inlines the status taxonomy.

5. **Directory boundary** — key→shard routing and app-id structure live
   in :mod:`repro.directory`.  Outside the package: no directory
   *submodule* imports (the facade ``from repro.directory import
   home_server_of`` stays legal), no ring/shard internals
   (``HashRing`` / ``shard_of`` / ``replicas_of`` / ...), and no
   ``.split("#")`` — parsing an app id anywhere else re-inlines the
   placement policy ``home_server_of`` made pluggable.

6. **Storage boundary** — WAL/snapshot internals live in
   :mod:`repro.storage`.  Outside the package: no storage *submodule*
   imports (the facade ``from repro.storage import StateJournal`` stays
   legal) and no naming of ``WriteAheadLog`` / ``WalRecord`` — planes
   journal through :class:`StateJournal` and recover through
   ``recover()``, never by reading the log representation.  Separately,
   ``repro.core`` must not ``open()`` files at all — durability is the
   storage backend's business, so direct file I/O from a core plane is a
   WAL bypass.

7. **Time-series boundary** — metric bucketing lives in
   :mod:`repro.obs.timeseries`.  Outside that one module, naming a
   bucket/series internal (``LogHistogram`` / ``TimeSeries``) couples
   emitters to the storage representation — they record through the
   :class:`TimeSeriesRegistry` facade (``inc`` / ``set_gauge`` /
   ``observe``) and read through ``query()``.

8. **Accounting boundary** — cost representation lives in
   :mod:`repro.obs.accounting`.  Outside that one module, naming
   ``CostVector`` / ``SpaceSaving`` couples a caller to the ledger's
   vector/sketch internals — callers charge through the
   :class:`RequestCostLedger` API (``scoped`` / ``charge`` /
   ``account_frame_hop``) and read through ``snapshot()`` /
   ``partition_by()`` / ``top()`` / ``as_dict()``.

9. **Server construction** — every server is built from a
   :class:`~repro.core.server.ServerConfig` on one construction path:
   ``DiscoverServer(...)`` is called only in ``repro.core.deployment``
   (build and restart share ``Collaboratory._start_server``) and
   ``repro.bench.fleet`` (``build_fleet``).  A server constructed
   anywhere else is a deployment whose settings no restart can
   reproduce.

10. **Numpy-free health tick** — the 0.5 s health tick runs on every
    server, so nothing it reaches may call into numpy (whose
    Python-level quantile path dominated the tick when it ran cold).
    No reference to ``np`` / ``numpy`` (name or import) anywhere in
    :mod:`repro.health`, :mod:`repro.obs` or :mod:`repro.pipeline`, nor
    inside the metrics functions the tick calls:
    ``Reservoir.percentile``, the ``_sorted_percentile`` helper it
    interpolates with, and ``PipelineMetrics.latency_p99``.

Usage: python tools/check_pipeline_boundary.py [repo_root]
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Optional

#: dispatch-plane modules, relative to the repo root
DISPATCH_MODULES = (
    "src/repro/web/container.py",
    "src/repro/orb/core.py",
    "src/repro/core/daemon.py",
)

#: modules only the pipeline (and the assembly layer) may import
FORBIDDEN = ("repro.core.security", "repro.core.policies")

#: names only repro.federation may define or touch — any use elsewhere is
#: local-vs-remote routing leaking back out of the federation layer
FEDERATION_ONLY_NAMES = frozenset(
    {"is_local_app", "peer_stub", "proxy_stub"})

#: the one package allowed to use those names, relative to the repo root
FEDERATION_PACKAGE = "src/repro/federation"

#: span internals only repro.obs may name — everyone else talks to the
#: Tracer (start_span / record_span / span()), never to raw spans
OBS_ONLY_NAMES = frozenset({"Span", "TraceContext", "SpanNode"})

#: the observability package, relative to the repo root
OBS_PACKAGE = "src/repro/obs"

#: hysteresis internals only repro.health may name — callers query the
#: HealthMonitor (status_of / is_unhealthy_peer), never fold statuses
HEALTH_ONLY_NAMES = frozenset({"ComponentHealth", "HealthModel"})

#: the health package, relative to the repo root
HEALTH_PACKAGE = "src/repro/health"

#: ring/shard internals only repro.directory may name — callers route
#: through DirectoryClient / DirectoryPlane / home_server_of
DIRECTORY_ONLY_NAMES = frozenset(
    {"HashRing", "DirectoryShardServant", "DIRECTORY_SHARD",
     "StaleRingEpoch", "shard_of", "replicas_of"})

#: the directory package, relative to the repo root
DIRECTORY_PACKAGE = "src/repro/directory"

#: the app-id separator — splitting on it outside repro.directory is
#: placement policy leaking out of the Placement abstraction
APP_ID_SEPARATOR = "#"

#: log-representation internals only repro.storage may name — planes
#: journal through StateJournal.append and rebuild through recover()
STORAGE_ONLY_NAMES = frozenset({"WriteAheadLog", "WalRecord"})

#: the durable-state package, relative to the repo root
STORAGE_PACKAGE = "src/repro/storage"

#: the core package — no direct file I/O allowed there at all
CORE_PACKAGE = "src/repro/core"

#: bucket/series internals only the time-series module may name —
#: emitters record via the TimeSeriesRegistry facade, readers query()
TIMESERIES_ONLY_NAMES = frozenset({"LogHistogram", "TimeSeries"})

#: the one module allowed to use those names, relative to the repo root
TIMESERIES_MODULE = "src/repro/obs/timeseries.py"

#: vector/sketch internals only the accounting module may name — callers
#: charge via the RequestCostLedger API and read via snapshot()/as_dict()
ACCOUNTING_ONLY_NAMES = frozenset({"CostVector", "SpaceSaving"})

#: the one module allowed to use those names, relative to the repo root
ACCOUNTING_MODULE = "src/repro/obs/accounting.py"

#: the only modules allowed to construct a DiscoverServer, relative to
#: the repo root
SERVER_BUILDER_MODULES = ("src/repro/core/deployment.py",
                          "src/repro/bench/fleet.py")

#: packages on the health tick path that must not reference numpy at all,
#: relative to the repo root
NUMPY_FREE_PACKAGES = ("src/repro/health", "src/repro/obs",
                       "src/repro/pipeline")

#: (module, class, method) the health tick calls outside those packages;
#: class None is a module-level function
NUMPY_FREE_METHODS = (
    ("src/repro/metrics/stats.py", "Reservoir", "percentile"),
    ("src/repro/metrics/stats.py", None, "_sorted_percentile"),
    ("src/repro/metrics/collectors.py", "PipelineMetrics", "latency_p99"),
)

#: the names numpy goes by
NUMPY_NAMES = frozenset({"np", "numpy"})


def forbidden_imports(path: Path) -> list:
    """(lineno, module) pairs for every forbidden import in ``path``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        for name in names:
            for banned in FORBIDDEN:
                if name == banned or name.startswith(banned + "."):
                    hits.append((node.lineno, name))
    return hits


def federation_leaks(path: Path) -> list:
    """(lineno, name) pairs for federation-only names used in ``path``.

    Matches attribute access (``server.peer_stub``), bare names, and
    function/method definitions — exact names only, so e.g.
    ``remote_proxy_stub`` (the registry's public resolver) stays legal.
    """
    tree = ast.parse(path.read_text(), filename=str(path))
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = node.name
        else:
            continue
        if name in FEDERATION_ONLY_NAMES:
            hits.append((node.lineno, name))
    return hits


def obs_leaks(path: Path) -> list:
    """(lineno, what) pairs for obs-internal use in ``path``.

    Two patterns leak the span representation out of :mod:`repro.obs`:
    importing an obs *submodule* (``repro.obs.span`` — the facade
    ``from repro.obs import Tracer`` stays legal), and naming a span
    internal (``Span`` / ``TraceContext`` / ``SpanNode``) directly.
    """
    tree = ast.parse(path.read_text(), filename=str(path))
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("repro.obs."):
                    hits.append((node.lineno,
                                 f"imports {alias.name}"))
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module.startswith("repro.obs."):
                hits.append((node.lineno, f"imports from {module}"))
        elif isinstance(node, (ast.Name, ast.Attribute)):
            name = node.id if isinstance(node, ast.Name) else node.attr
            if name in OBS_ONLY_NAMES:
                hits.append((node.lineno, f"uses {name!r}"))
    return hits


def health_leaks(path: Path) -> list:
    """(lineno, what) pairs for health-internal use in ``path``.

    Mirrors :func:`obs_leaks`: importing a health *submodule*
    (``repro.health.model`` — the facade ``from repro.health import
    HealthMonitor`` stays legal) or naming a hysteresis internal
    (``ComponentHealth`` / ``HealthModel``) couples callers to the
    status-folding machinery instead of the monitor's query API.
    """
    tree = ast.parse(path.read_text(), filename=str(path))
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("repro.health."):
                    hits.append((node.lineno,
                                 f"imports {alias.name}"))
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module.startswith("repro.health."):
                hits.append((node.lineno, f"imports from {module}"))
        elif isinstance(node, (ast.Name, ast.Attribute)):
            name = node.id if isinstance(node, ast.Name) else node.attr
            if name in HEALTH_ONLY_NAMES:
                hits.append((node.lineno, f"uses {name!r}"))
    return hits


def directory_leaks(path: Path) -> list:
    """(lineno, what) pairs for directory-internal use in ``path``.

    Three patterns leak placement/routing policy out of
    :mod:`repro.directory`: importing a directory *submodule*
    (``repro.directory.ring`` — the facade ``from repro.directory import
    home_server_of`` stays legal), naming a ring/shard internal
    (``HashRing`` / ``shard_of`` / ...), and calling ``.split("#")`` on
    anything — the app-id structure is :class:`PrefixPlacement`'s
    private business.
    """
    tree = ast.parse(path.read_text(), filename=str(path))
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("repro.directory."):
                    hits.append((node.lineno,
                                 f"imports {alias.name}"))
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module.startswith("repro.directory."):
                hits.append((node.lineno, f"imports from {module}"))
        elif isinstance(node, (ast.Name, ast.Attribute)):
            name = node.id if isinstance(node, ast.Name) else node.attr
            if name in DIRECTORY_ONLY_NAMES:
                hits.append((node.lineno, f"uses {name!r}"))
        elif (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "split"
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and node.args[0].value == APP_ID_SEPARATOR):
            hits.append((node.lineno, 'calls .split("#")'))
    return hits


def storage_leaks(path: Path) -> list:
    """(lineno, what) pairs for storage-internal use in ``path``.

    Mirrors :func:`obs_leaks`: importing a storage *submodule*
    (``repro.storage.wal`` — the facade ``from repro.storage import
    StateJournal`` stays legal) or naming a log internal
    (``WriteAheadLog`` / ``WalRecord``) couples callers to the log
    representation instead of the journal/recovery API.
    """
    tree = ast.parse(path.read_text(), filename=str(path))
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("repro.storage."):
                    hits.append((node.lineno,
                                 f"imports {alias.name}"))
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module.startswith("repro.storage."):
                hits.append((node.lineno, f"imports from {module}"))
        elif isinstance(node, (ast.Name, ast.Attribute)):
            name = node.id if isinstance(node, ast.Name) else node.attr
            if name in STORAGE_ONLY_NAMES:
                hits.append((node.lineno, f"uses {name!r}"))
    return hits


def timeseries_leaks(path: Path) -> list:
    """(lineno, what) pairs for time-series internals used in ``path``.

    Naming ``LogHistogram`` / ``TimeSeries`` outside
    ``repro/obs/timeseries.py`` couples a caller to the bucket/tier
    representation; emitters use the :class:`TimeSeriesRegistry` facade
    (exact names only, so ``TimeSeriesRegistry`` itself stays legal
    everywhere).
    """
    tree = ast.parse(path.read_text(), filename=str(path))
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Name, ast.Attribute)):
            name = node.id if isinstance(node, ast.Name) else node.attr
            if name in TIMESERIES_ONLY_NAMES:
                hits.append((node.lineno, f"uses {name!r}"))
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name in TIMESERIES_ONLY_NAMES:
                    hits.append((node.lineno, f"imports {alias.name}"))
    return hits


def accounting_leaks(path: Path) -> list:
    """(lineno, what) pairs for accounting internals used in ``path``.

    Mirrors :func:`timeseries_leaks`: naming ``CostVector`` /
    ``SpaceSaving`` outside ``repro/obs/accounting.py`` couples a caller
    to the cost-vector/sketch representation; callers use the
    :class:`RequestCostLedger` facade (exact names only, so
    ``RequestCostLedger`` itself stays legal everywhere).
    """
    tree = ast.parse(path.read_text(), filename=str(path))
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Name, ast.Attribute)):
            name = node.id if isinstance(node, ast.Name) else node.attr
            if name in ACCOUNTING_ONLY_NAMES:
                hits.append((node.lineno, f"uses {name!r}"))
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name in ACCOUNTING_ONLY_NAMES:
                    hits.append((node.lineno, f"imports {alias.name}"))
    return hits


def server_constructions(path: Path) -> list:
    """(lineno, what) pairs for every ``DiscoverServer(...)`` call in
    ``path`` (bare name or attribute, e.g. ``server.DiscoverServer``)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    hits = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = (func.id if isinstance(func, ast.Name)
                else func.attr if isinstance(func, ast.Attribute) else None)
        if name == "DiscoverServer":
            hits.append((node.lineno, "constructs DiscoverServer"))
    return hits


def numpy_refs(tree: ast.AST) -> list:
    """(lineno, what) pairs for every numpy reference under ``tree``:
    an ``import numpy`` / ``from numpy... import`` or a bare ``np`` /
    ``numpy`` name (``np.percentile`` is an attribute of one)."""
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
        elif isinstance(node, ast.Name) and node.id in NUMPY_NAMES:
            hits.append((node.lineno, f"uses {node.id!r}"))
            continue
        else:
            continue
        for module in modules:
            if module.split(".")[0] == "numpy":
                hits.append((node.lineno, f"imports {module}"))
    return hits


def numpy_method_refs(path: Path, cls: Optional[str], method: str) -> list:
    """:func:`numpy_refs` inside ``cls.method`` of ``path`` (a
    module-level function when ``cls`` is None); a missing method is
    itself a hit (the lint must not pass by a rename)."""
    body = ast.parse(path.read_text(), filename=str(path)).body
    if cls is not None:
        body = next((node.body for node in body
                     if isinstance(node, ast.ClassDef) and node.name == cls),
                    [])
    for item in body:
        if isinstance(item, ast.FunctionDef) and item.name == method:
            return numpy_refs(item)
    return [(1, "is missing")]


def core_file_io(path: Path) -> list:
    """(lineno, what) pairs for direct file I/O in a core module.

    A bare ``open(...)`` call (or ``io.open``) inside ``repro.core`` is a
    WAL bypass — durable bytes must go through a
    :class:`~repro.storage.StorageBackend`.
    """
    tree = ast.parse(path.read_text(), filename=str(path))
    hits = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open":
            hits.append((node.lineno, "calls open()"))
        elif (isinstance(func, ast.Attribute) and func.attr == "open"
                and isinstance(func.value, ast.Name)
                and func.value.id == "io"):
            hits.append((node.lineno, "calls io.open()"))
    return hits


def main(argv) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parents[1]
    failures = []
    for rel in DISPATCH_MODULES:
        path = root / rel
        if not path.exists():
            failures.append(f"{rel}: dispatch module missing")
            continue
        for lineno, name in forbidden_imports(path):
            failures.append(
                f"{rel}:{lineno}: imports {name} — security/policy code "
                f"must flow through repro.pipeline interceptors")
    fed_root = root / FEDERATION_PACKAGE
    obs_root = root / OBS_PACKAGE
    health_root = root / HEALTH_PACKAGE
    directory_root = root / DIRECTORY_PACKAGE
    storage_root = root / STORAGE_PACKAGE
    core_root = root / CORE_PACKAGE
    checked = 0
    obs_checked = 0
    health_checked = 0
    directory_checked = 0
    storage_checked = 0
    core_checked = 0
    timeseries_checked = 0
    accounting_checked = 0
    server_checked = 0
    numpy_free_roots = [root / rel for rel in NUMPY_FREE_PACKAGES]
    numpy_checked = 0
    for rel, cls, method in NUMPY_FREE_METHODS:
        name = f"{cls}.{method}" if cls else method
        for lineno, what in numpy_method_refs(root / rel, cls, method):
            failures.append(
                f"{rel}:{lineno}: {name} {what} — the health tick path "
                f"stays numpy-free")
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        rel = path.relative_to(root)
        if not (fed_root in path.parents or path.parent == fed_root):
            checked += 1
            for lineno, name in federation_leaks(path):
                failures.append(
                    f"{rel}:{lineno}: uses {name!r} — local-vs-remote "
                    f"routing must flow through repro.federation "
                    f"(router.resolve)")
        if not (obs_root in path.parents or path.parent == obs_root):
            obs_checked += 1
            for lineno, what in obs_leaks(path):
                failures.append(
                    f"{rel}:{lineno}: {what} — span internals stay in "
                    f"repro.obs; use the Tracer API via the facade")
        if not (health_root in path.parents or path.parent == health_root):
            health_checked += 1
            for lineno, what in health_leaks(path):
                failures.append(
                    f"{rel}:{lineno}: {what} — status folding stays in "
                    f"repro.health; use the HealthMonitor query API")
        if not (directory_root in path.parents
                or path.parent == directory_root):
            directory_checked += 1
            for lineno, what in directory_leaks(path):
                failures.append(
                    f"{rel}:{lineno}: {what} — ring/placement internals "
                    f"stay in repro.directory; use DirectoryClient / "
                    f"home_server_of")
        if not (storage_root in path.parents
                or path.parent == storage_root):
            storage_checked += 1
            for lineno, what in storage_leaks(path):
                failures.append(
                    f"{rel}:{lineno}: {what} — WAL/snapshot internals "
                    f"stay in repro.storage; journal through "
                    f"StateJournal and recover()")
        if str(rel) != TIMESERIES_MODULE:
            timeseries_checked += 1
            for lineno, what in timeseries_leaks(path):
                failures.append(
                    f"{rel}:{lineno}: {what} — bucket/series internals "
                    f"stay in repro.obs.timeseries; emitters use the "
                    f"TimeSeriesRegistry facade")
        if str(rel) != ACCOUNTING_MODULE:
            accounting_checked += 1
            for lineno, what in accounting_leaks(path):
                failures.append(
                    f"{rel}:{lineno}: {what} — cost-vector/sketch "
                    f"internals stay in repro.obs.accounting; callers "
                    f"use the RequestCostLedger facade")
        if str(rel) not in SERVER_BUILDER_MODULES:
            server_checked += 1
            for lineno, what in server_constructions(path):
                failures.append(
                    f"{rel}:{lineno}: {what} — servers come from a "
                    f"ServerConfig via build_collaboratory / build_fleet")
        if any(pkg in path.parents for pkg in numpy_free_roots):
            numpy_checked += 1
            tree = ast.parse(path.read_text(), filename=str(path))
            for lineno, what in numpy_refs(tree):
                failures.append(
                    f"{rel}:{lineno}: {what} — the health tick path "
                    f"(repro.health / repro.obs / repro.pipeline) stays "
                    f"numpy-free")
        if core_root in path.parents or path.parent == core_root:
            core_checked += 1
            for lineno, what in core_file_io(path):
                failures.append(
                    f"{rel}:{lineno}: {what} — no direct file I/O in "
                    f"repro.core; durable bytes go through a "
                    f"repro.storage backend")
    if failures:
        print("pipeline boundary violations:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print(f"pipeline boundary OK ({len(DISPATCH_MODULES)} dispatch modules "
          f"clean); federation boundary OK ({checked} modules clean); "
          f"obs boundary OK ({obs_checked} modules clean); "
          f"health boundary OK ({health_checked} modules clean); "
          f"directory boundary OK ({directory_checked} modules clean); "
          f"storage boundary OK ({storage_checked} modules clean, "
          f"{core_checked} core modules I/O-free); "
          f"time-series boundary OK ({timeseries_checked} modules clean); "
          f"accounting boundary OK ({accounting_checked} modules clean); "
          f"server construction OK ({server_checked} modules clean); "
          f"numpy-free health tick OK ({numpy_checked} modules and "
          f"{len(NUMPY_FREE_METHODS)} methods clean)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
