"""Ring interaction graph, polygon vertex bookkeeping, and the ring cut.

Robots sit on a cycle and sense only their two ring neighbours.  A polygon
is prescribed by a small set of vertex robots plus the desired displacement
between consecutive vertices; cutting the ring at the vertices yields one
open chain per polygon edge.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

CLOSURE_TOL = 1e-9  # metres, absorbs decimal round-off in hand-written r*


@dataclass(frozen=True)
class RingTopology:
    """Cycle graph on ``n_total`` robots; indices are residues mod n_total."""

    n_total: int

    def __post_init__(self):
        if self.n_total < 3:
            raise ValueError(f"ring needs at least 3 robots, got {self.n_total}")

    def neighbors(self, i: int) -> tuple[int, int]:
        n = self.n_total
        return ((i - 1) % n, (i + 1) % n)


@dataclass(frozen=True, eq=False)
class PolygonSpec:
    """Vertex robot indices plus desired vertex-to-vertex displacements.

    ``r_star[i]`` is the target displacement from vertex i to vertex i+1
    (cyclically), in metres.  A physically realisable polygon closes:
    the displacements sum to zero.
    """

    vertex_set: tuple[int, ...]
    r_star: np.ndarray

    def __post_init__(self):
        vertices = tuple(int(v) for v in self.vertex_set)
        object.__setattr__(self, "vertex_set", vertices)
        if len(vertices) < 3:
            raise ValueError("polygon needs at least 3 vertex robots")
        if any(b <= a for a, b in zip(vertices, vertices[1:])):
            raise ValueError("vertex_set must be strictly increasing")
        if vertices[0] < 0:
            raise ValueError("vertex indices must be non-negative")
        r = np.array(self.r_star, dtype=float)
        r.setflags(write=False)
        object.__setattr__(self, "r_star", r)
        if r.shape != (len(vertices), 2):
            raise ValueError(
                f"r_star must have shape ({len(vertices)}, 2), got {r.shape}"
            )

    @property
    def m(self) -> int:
        return len(self.vertex_set)


@dataclass(frozen=True)
class ChainSegment:
    """One cut segment: everything after ``anchor`` up to and including
    ``terminal`` on a ring of ``n_total`` robots.  ``cardinality`` robots
    move; the anchor belongs to the previous segment."""

    segment_id: int
    anchor: int
    terminal: int
    cardinality: int
    n_total: int

    @property
    def members(self) -> tuple[int, ...]:
        """The moving robots in ring order, built when read: a segment
        costs O(1) memory whatever its size."""
        return tuple((self.anchor + t) % self.n_total for t in range(1, self.cardinality + 1))


def validate_polygon_closure(spec: PolygonSpec, tol: float = CLOSURE_TOL) -> bool:
    """True iff the desired displacements sum to zero per component."""
    return bool(np.all(np.abs(spec.r_star.sum(axis=0)) <= tol))


def cut_ring(ring: RingTopology, spec: PolygonSpec) -> list[ChainSegment]:
    """Decompose the ring into one chain per polygon edge.

    Segment i runs from vertex i (exclusive) to vertex i+1 (inclusive),
    wrapping modulo n_total; the wrapping segment is the last one.  Every
    robot appears in exactly one segment.  O(m) in time and memory: no
    segment lists its members until they are read.
    """
    n = ring.n_total
    vertices = spec.vertex_set
    # PolygonSpec keeps vertex_set strictly increasing from >= 0, so the
    # last index bounds them all: no duplicates, none negative, m <= n.
    if vertices[-1] >= n:
        raise ValueError(f"vertex indices out of range [0, {n})")

    segments = []
    for i, anchor in enumerate(vertices):
        terminal = vertices[(i + 1) % spec.m]
        segments.append(
            ChainSegment(
                segment_id=i,
                anchor=anchor,
                terminal=terminal,
                cardinality=(terminal - anchor) % n,
                n_total=n,
            )
        )
    return segments
