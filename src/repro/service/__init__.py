"""Simulation-as-a-service: a persistent sweep daemon plus its client.

The daemon (:class:`ServiceServer`, ``python -m repro.service serve``)
owns one persistent :class:`~repro.experiments.pool.SweepEngine` — warm
process pool and trace memos — and fronts the
content-addressed result cache for any number of concurrent clients
over a line-delimited-JSON protocol (:mod:`repro.service.protocol`).
The client side (:class:`ServiceClient`, :class:`RemoteEngine`) is what
``run_all --server`` and ``dse --server`` route through.

Full protocol reference and operational guidance: ``docs/service.md``.
"""

from .client import RemoteEngine, ServiceClient, probe
from .protocol import (
    DEFAULT_PORT,
    PROTOCOL_VERSION,
    ProtocolError,
    ServiceError,
    parse_address,
)
from .server import ServiceServer, serve

__all__ = [
    "DEFAULT_PORT",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "RemoteEngine",
    "ServiceClient",
    "ServiceError",
    "ServiceServer",
    "parse_address",
    "probe",
    "serve",
]
