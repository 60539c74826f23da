"""The ring cut ``FormationConfig`` makes: chain sizes, members, rejections."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringform.core import ParameterError
from ringform.formation import FormationConfig
from ringform.spectral import EstimationParams

HEX_R = np.array([[-4.0, -8], [-8, 0], [-4, 8], [4, 8], [8, 0], [4, -8]])
TRI_R = np.array([[1.0, -2.0], [2.0, 2.0], [-3.0, 0.0]])
R3 = np.array([[1.0, 0], [0, 1], [-1, -1]])
PARAMS = EstimationParams(alpha=0.3, dt=0.2)


def ring(n_total, vertex_set, r_star=R3, sigma=1):
    return FormationConfig(n_total, vertex_set, r_star, PARAMS, sigma)


def members(config):
    return [config.members(i).tolist() for i in range(len(config.n_s))]


def test_triangle_cut_cardinalities():
    config = ring(7, (0, 2, 5), TRI_R)
    assert config.n_s == (2, 3, 2)
    assert members(config) == [[1, 2], [3, 4, 5], [6, 0]]  # wrapping chain is the last one


def test_hexagon_cut_six_chains_of_twenty():
    config = ring(120, (1, 21, 41, 61, 81, 101), HEX_R)
    assert config.n_s == (20,) * 6
    assert config.members(5)[-1] == 1  # closes back at the first vertex


def test_all_vertex_ring():
    assert ring(3, (0, 1, 2)).n_s == (1, 1, 1)


def test_segment_last_member_is_terminal():
    config = ring(10, (0, 3, 7))
    for i, n in enumerate(config.n_s):
        chain = config.members(i)
        assert chain[-1] == config.vertex_set[(i + 1) % 3]
        assert len(chain) == n


@pytest.mark.parametrize("n_total,vertex_set,r_star,sigma,message", [
    (2, (0, 1, 2), R3, 1, "n_total: a ring needs at least 3 robots, got 2"),
    (7, (0, 2), R3[:2], 1, "vertex_set: polygon needs at least 3 vertex robots"),
    (7, (0, 2, 2), R3, 1, "vertex_set: must be strictly increasing"),
    (7, (0, 5, 2), R3, 1, "vertex_set: must be strictly increasing"),
    (7, (-1, 2, 5), R3, 1, "vertex_set: vertex indices out of range [0, 7)"),
    (7, (0, 2, 5), R3[:2], 1, "r_star: must have shape (3, 2), got (2, 2)"),
    (7, (0, 2, 5), R3, 3, "sigma: must be 1 or 2, got 3"),
    (7, (0, 2, 5), [[1.0, 0], [0, 1], [0, 0]], 1,
     "r_star: polygon does not close; sum of displacements is (1.000e+00, 1.000e+00)"),
    (7, (0, 2, 9), R3, 1, "vertex_set: vertex indices out of range [0, 7)"),
    (3, (0, 1, 2, 3), [[1.0, 0], [0, 1], [-1, 0], [0, -1]], 1,
     "vertex_set: vertex indices out of range [0, 3)"),  # more vertices than robots
    (2, (0, 1, 5), R3, 3, "n_total: a ring needs at least 3 robots, got 2"),
    (7, (9, 2), R3, 3, "vertex_set: vertex indices out of range [0, 7)"),
], ids=["ring", "few-vertices", "duplicate", "unsorted", "negative", "r-shape", "sigma",
        "open", "range", "m-past-n", "ring-first", "range-first"])
def test_bad_rings_are_rejected(n_total, vertex_set, r_star, sigma, message):
    # A ParameterError names the parameter: the ring size, then every index,
    # before the set's other faults, the polygon and sigma.
    with pytest.raises(ParameterError) as err:
        ring(n_total, vertex_set, r_star, sigma)
    assert isinstance(err.value, ValueError)
    assert str(err.value) == message
    assert message.startswith(f"{err.value.name}: ")


def test_closure_examples():
    assert ring(120, (1, 21, 41, 61, 81, 101), HEX_R).n_s == (20,) * 6
    assert ring(7, (0, 2, 5), TRI_R).n_s == (2, 3, 2)
    for bad in ([[1.0, 0], [0, 1], [0, 0]], [[np.nan, 0], [0, 1], [0, -1]]):
        with pytest.raises(ParameterError, match="^r_star: polygon does not close"):
            ring(7, (0, 2, 5), bad)


def test_closure_tol_absorbs_roundoff():
    r = np.array([[0.1, 0.2], [0.3, -0.1], [-0.4, -0.1]])
    assert ring(3, (0, 1, 2), r + 1e-12).n_s == (1, 1, 1)
    with pytest.raises(ValueError, match="does not close"):
        ring(3, (0, 1, 2), r + 1e-8)


def test_cut_is_deterministic():
    a, b = (ring(120, (1, 21, 41, 61, 81, 101), HEX_R) for _ in range(2))
    assert a.n_s == b.n_s
    assert members(a) == members(b)
    assert a.l_star.tobytes() == b.l_star.tobytes()
    assert a.vertices.tobytes() == b.vertices.tobytes()


def test_cut_of_a_huge_ring_lists_no_members():
    # A 1e14-robot ring is cut in O(m): the wrapping chain's members
    # would fill the host's memory if they were built with the cut.
    n = 10 ** 14
    config = ring(n, (0, 1, 2), TRI_R)
    assert config.n_s == (1, 1, n - 2)
    assert [config.members(i).tolist() for i in (0, 1)] == [[1], [2]]


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
    config = ring(n, vertices, r)
    # chain sizes match the index gaps and cover the whole ring
    for i, size in enumerate(config.n_s):
        assert size == (vertices[(i + 1) % m] - vertices[i]) % n
    assert sum(config.n_s) == n
    everyone = [robot for chain in members(config) for robot in chain]
    assert sorted(everyone) == list(range(n))
