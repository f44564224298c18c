"""repro — reproduction of the DISCOVER computational-collaboratory
middleware (Mann & Parashar, "Middleware Support for Global Access to
Integrated Computational Collaboratories", HPDC 2001).

Layer map (bottom-up):

- :mod:`repro.sim` — deterministic discrete-event kernel (virtual time).
- :mod:`repro.wire` — serialization + typed messages.
- :mod:`repro.net` — simulated WAN: hosts, links, routing, cost model.
- :mod:`repro.orb` — mini-CORBA: ORB, naming service, trader service.
- :mod:`repro.web` — HTTP + servlet container + polling client.
- :mod:`repro.steering` — application-side control network and lifecycle.
- :mod:`repro.apps` — demonstration scientific applications.
- :mod:`repro.core` — the DISCOVER middleware: servers, proxies, security,
  locking, collaboration, archival, peer-to-peer integration.
- :mod:`repro.client` — the portal API clients drive.
- :mod:`repro.metrics` / :mod:`repro.bench` — measurement + experiments.

Quick start::

    from repro import build_single_server
    from repro.apps import SyntheticApp

    collab = build_single_server()
    collab.run_bootstrap()
    app = collab.add_app(0, SyntheticApp, "demo", acl={"alice": "write"})
    portal = collab.add_portal(0)

    def scenario(sim):
        yield from portal.login("alice")
        session = yield from portal.open(app.app_id)
        yield from session.acquire_lock()
        yield from session.set_param("gain", 2.5)

    collab.sim.run(until=collab.sim.spawn(scenario(collab.sim)))
"""

from repro.client import AppSession, DiscoverPortal, PortalError
from repro.core import (
    DiscoverServer,
    LockError,
    SecurityError,
    ServerConfig,
)
from repro.core.deployment import (
    Collaboratory,
    build_collaboratory,
    build_single_server,
)
from repro.net import CostModel, Network, TrafficTrace
from repro.net.costs import LinkSpec
from repro.orb import NamingService, Orb, TraderService
from repro.sim import Simulator
from repro.steering import AppConfig, SteerableApplication

__version__ = "1.0.0"

__all__ = [
    "AppConfig",
    "AppSession",
    "Collaboratory",
    "CostModel",
    "DiscoverPortal",
    "DiscoverServer",
    "LinkSpec",
    "LockError",
    "NamingService",
    "Network",
    "Orb",
    "PortalError",
    "SecurityError",
    "ServerConfig",
    "Simulator",
    "SteerableApplication",
    "TraderService",
    "TrafficTrace",
    "build_collaboratory",
    "build_single_server",
    "__version__",
]
