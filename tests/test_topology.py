import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringform.topology import (
    PolygonSpec,
    RingTopology,
    cut_ring,
    validate_polygon_closure,
)

HEX_R = np.array([[-4.0, -8], [-8, 0], [-4, 8], [4, 8], [8, 0], [4, -8]])
TRI_R = np.array([[1.0, -2.0], [2.0, 2.0], [-3.0, 0.0]])


def test_ring_requires_three_robots():
    with pytest.raises(ValueError):
        RingTopology(2)
    assert RingTopology(3).neighbors(0) == (2, 1)
    assert RingTopology(7).neighbors(6) == (5, 0)


def test_triangle_cut_cardinalities():
    ring = RingTopology(7)
    spec = PolygonSpec(vertex_set=(0, 2, 5), r_star=TRI_R)
    segments = cut_ring(ring, spec)
    assert [s.cardinality for s in segments] == [2, 3, 2]
    assert segments[0].members == (1, 2)
    assert segments[1].members == (3, 4, 5)
    assert segments[2].members == (6, 0)  # wrapping segment is the last one


def test_hexagon_cut_six_chains_of_twenty():
    ring = RingTopology(120)
    spec = PolygonSpec(vertex_set=(1, 21, 41, 61, 81, 101), r_star=HEX_R)
    segments = cut_ring(ring, spec)
    assert [s.cardinality for s in segments] == [20] * 6
    assert segments[-1].members[-1] == 1  # closes back at the first vertex


def test_all_vertex_ring():
    ring = RingTopology(3)
    spec = PolygonSpec(
        vertex_set=(0, 1, 2), r_star=np.array([[1.0, 0], [0, 1], [-1, -1]])
    )
    assert [s.cardinality for s in cut_ring(ring, spec)] == [1, 1, 1]


def test_segment_last_member_is_terminal():
    ring = RingTopology(10)
    spec = PolygonSpec(
        vertex_set=(0, 3, 7), r_star=np.array([[1.0, 0], [0, 1], [-1, -1]])
    )
    for seg in cut_ring(ring, spec):
        assert seg.members[-1] == seg.terminal
        assert len(seg.members) == seg.cardinality


def test_cut_rejects_bad_vertex_sets():
    ring = RingTopology(7)
    r3 = np.array([[1.0, 0], [0, 1], [-1, -1]])
    with pytest.raises(ValueError):
        PolygonSpec(vertex_set=(0, 2), r_star=r3[:2])  # m < 3
    with pytest.raises(ValueError):
        PolygonSpec(vertex_set=(0, 2, 2), r_star=r3)  # duplicate
    with pytest.raises(ValueError):
        cut_ring(ring, PolygonSpec(vertex_set=(0, 2, 9), r_star=r3))  # range
    with pytest.raises(ValueError):
        cut_ring(
            RingTopology(3),
            PolygonSpec(vertex_set=(0, 1, 2, 3),
                        r_star=np.array([[1.0, 0], [0, 1], [-1, 0], [0, -1]])),
        )  # m > n_total


def test_closure_examples():
    hexagon = PolygonSpec(vertex_set=(1, 21, 41, 61, 81, 101), r_star=HEX_R)
    assert validate_polygon_closure(hexagon)
    triangle = PolygonSpec(vertex_set=(0, 2, 5), r_star=TRI_R)
    assert validate_polygon_closure(triangle)
    open_spec = PolygonSpec(
        vertex_set=(0, 1, 2), r_star=np.array([[1.0, 0], [0, 1], [0, 0]])
    )
    assert not validate_polygon_closure(open_spec)


def test_closure_tolerance_absorbs_roundoff():
    r = np.array([[0.1, 0.2], [0.3, -0.1], [-0.4, -0.1]])
    spec = PolygonSpec(vertex_set=(0, 1, 2), r_star=r + 1e-12)
    assert validate_polygon_closure(spec)
    spec = PolygonSpec(vertex_set=(0, 1, 2), r_star=r + 1e-8)
    assert not validate_polygon_closure(spec)


def test_cut_is_deterministic():
    ring = RingTopology(120)
    spec = PolygonSpec(vertex_set=(1, 21, 41, 61, 81, 101), r_star=HEX_R)
    assert cut_ring(ring, spec) == cut_ring(ring, spec)


def test_cut_of_a_huge_ring_lists_no_members():
    # A 1e14-robot ring is cut in O(m): the wrapping segment's members
    # would fill the host's memory if they were built with the cut.
    n = 10 ** 14
    segments = cut_ring(RingTopology(n), PolygonSpec(vertex_set=(0, 1, 2), r_star=TRI_R))
    assert [seg.cardinality for seg in segments] == [1, 1, n - 2]
    assert [seg.members for seg in segments[:2]] == [(1,), (2,)]


@st.composite
def ring_and_vertices(draw):
    n = draw(st.integers(min_value=3, max_value=60))
    m = draw(st.integers(min_value=3, max_value=n))
    vertices = tuple(sorted(draw(
        st.sets(st.integers(min_value=0, max_value=n - 1), min_size=m, max_size=m)
    )))
    return n, vertices


@settings(max_examples=60, deadline=None)
@given(ring_and_vertices())
def test_segments_partition_the_ring(data):
    n, vertices = data
    m = len(vertices)
    r = np.zeros((m, 2))
    r[:-1] = np.arange(1, m).reshape(-1, 1) * [1.0, -0.5]
    r[-1] = -r[:-1].sum(axis=0)
    spec = PolygonSpec(vertex_set=vertices, r_star=r)
    segments = cut_ring(RingTopology(n), spec)
    # cardinalities match the index gaps and cover the whole ring
    for seg in segments:
        assert seg.cardinality == (seg.terminal - seg.anchor) % n
    assert sum(seg.cardinality for seg in segments) == n
    everyone = [robot for seg in segments for robot in seg.members]
    assert sorted(everyone) == list(range(n))
