"""ringform: deterministic ring-swarm simulation and analysis.

A ring of robots whose vertex robots fix a polygon and head one chain
each: chain-size estimation (``estimation``), the polygon formation law
driven by its estimates (``formation``), and the spectral toolkit behind
both (``spectral``), on shared states and checks (``core``), with sweeps
and scenario reports (``harness``) and the command line (``cli``).
Import each name from its module.
"""

__version__ = "0.1.0"
