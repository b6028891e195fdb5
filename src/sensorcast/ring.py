"""Concentric-ring network geometry and hop-count accounting.

Nodes sit on rings around a sink; every message originating at ring d is
relayed inward one ring at a time, costing d transmissions.  All counts
here are exact integers.
"""

from __future__ import annotations

from dataclasses import dataclass

from .series import check_count

__all__ = [
    "RingNetwork",
    "nodes_in_ring",
    "total_nodes",
    "total_transmissions",
    "approx_transmissions_paper",
    "network_savings",
]


@dataclass(frozen=True)
class RingNetwork:
    """``branches`` nodes join per ring step; ``depth`` rings surround the sink."""

    branches: int
    depth: int

    def __post_init__(self) -> None:
        for name in ("branches", "depth"):
            object.__setattr__(self, name, check_count(name, getattr(self, name)))


def nodes_in_ring(net: RingNetwork, d: int) -> int:
    """Node count of ring ``d``; ring 0 is the sink itself and holds none."""
    if not (0 <= d <= net.depth):
        raise ValueError(f"ring index {d} outside [0, {net.depth}]")
    if d == 0:
        return 0
    return net.branches * (2 * d - 1)


def total_nodes(net: RingNetwork) -> int:
    """Sum of all ring populations; telescopes to branches * depth**2."""
    return net.branches * net.depth ** 2


def total_transmissions(net: RingNetwork) -> int:
    """Exact transmissions for one report from every node.

    A node on ring d costs d hops, so the total is
    sum_d branches * d * (2d - 1), which closes to
    branches * depth (depth + 1)(4 depth - 1) / 6.
    """
    c, depth = net.branches, net.depth
    return c * depth * (depth + 1) * (4 * depth - 1) // 6


def approx_transmissions_paper(net: RingNetwork) -> float:
    """Published closed form (2/3) C D^3 - (1/2) C D^2.

    Kept for reference only: it does not reproduce the exact per-hop sum
    (C=5, D=3 gives 67.5 against the true 110).  Use
    :func:`total_transmissions` for real accounting.
    """
    c, depth = net.branches, net.depth
    return (2.0 / 3.0) * c * depth ** 3 - 0.5 * c * depth ** 2


def network_savings(net: RingNetwork, saved_fraction: float) -> int:
    """Whole transmissions avoided when ``saved_fraction`` percent of
    reports are suppressed network-wide; fractional hops round down."""
    if not (0.0 <= saved_fraction <= 100.0):
        raise ValueError(f"saved_fraction must lie in [0, 100], got {saved_fraction}")
    return int(total_transmissions(net) * saved_fraction / 100.0)
