"""Discrete-event network simulator.

A compact but complete event-driven simulator: nodes own ports, ports
pair up over full-duplex links with bandwidth, propagation delay and
finite drop-tail queues, and a global :class:`Simulator` advances
simulated time.  Hosts implement a small ARP/IPv4/ICMP/UDP stack so the
demo use cases run end-to-end exactly as they would on a testbed.

This is the stand-in for the paper's physical testbed (Mininet + real
hosts): byte-accurate frames traverse the same switching code whether
they come from a traffic generator or a host stack.
"""

from repro.netsim.capture import Capture, CaptureEntry
from repro.netsim.faults import FaultInjector
from repro.netsim.host import Host, PingResult
from repro.netsim.link import Link, LinkStats
from repro.netsim.node import Node, Port
from repro.netsim.sharded import ShardSimulator, ShardSyncError
from repro.netsim.simulator import Event, Simulator

__all__ = [
    "Simulator",
    "Event",
    "ShardSimulator",
    "ShardSyncError",
    "Node",
    "Port",
    "Link",
    "LinkStats",
    "FaultInjector",
    "Host",
    "PingResult",
    "Capture",
    "CaptureEntry",
]
