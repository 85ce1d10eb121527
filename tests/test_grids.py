import json
import pickle
import tracemalloc
from multiprocessing.reduction import ForkingPickler

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tripwell import GridFunction
from tripwell.errors import GridError
from tripwell.grids import SAVE_CHUNK, Grid, integrate_slopes


def sample_profile(n=41, seed=0):
    rng = np.random.default_rng(seed)
    x = np.sort(np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, n - 2)]))
    v = np.sin(np.pi * x) * rng.normal(size=n)
    v[0] = v[-1] = 0.0
    return x, v


def test_gridfunction_leaves_the_callers_arrays_alone():
    x, v = sample_profile()
    v[0] = 1e-14
    x_before, v_before = x.copy(), v.copy()
    u = GridFunction(x, v)
    assert u.values[0] == 0.0
    assert np.array_equal(v, v_before) and v[0] == 1e-14
    assert np.array_equal(x, x_before)
    assert not np.shares_memory(u.values, v)
    assert not np.shares_memory(u.nodes, x)


def test_gridfunction_arrays_are_read_only():
    x, v = sample_profile()
    u = GridFunction(x, v)
    for arr in (u.nodes, u.values, u.cell_widths(), u.slopes(), u.midpoints()):
        with pytest.raises(ValueError):
            arr[1] = 0.5


def test_cached_geometry_is_computed_once_and_exact():
    x, v = sample_profile()
    u = GridFunction(x, v)
    for method in (u.cell_widths, u.slopes, u.midpoints):
        first = method()
        assert method() is first
        assert not first.flags.writeable
    assert np.array_equal(u.cell_widths(), np.diff(x))
    assert np.array_equal(u.slopes(), np.diff(u.values) / np.diff(x))
    assert np.array_equal(u.midpoints(), 0.5 * (x[:-1] + x[1:]))
    h = np.diff(x)
    grid = u.grid
    assert grid.width_pairs is grid.width_pairs
    assert np.array_equal(grid.width_pairs, h[:-1] + h[1:])
    xi = x[1:-1]
    w = np.concatenate([[0.5 * (xi[1] - xi[0])], 0.5 * (xi[2:] - xi[:-2]),
                        [0.5 * (xi[-1] - xi[-2])]])
    assert grid.interior_weights is grid.interior_weights
    assert np.array_equal(grid.interior_weights, w)
    assert not (grid.width_pairs.flags.writeable or grid.interior_weights.flags.writeable)


def test_profiles_compare_by_identity():
    x, v = sample_profile()
    u = GridFunction(x, v)
    assert u == u
    assert u != u.with_values(u.values)
    assert u != GridFunction(x, v)


@pytest.mark.parametrize("dumps", [
    pickle.dumps, lambda obj: bytes(ForkingPickler.dumps(obj, 4))], ids=["pickle", "forking"])
def test_pickle_round_trip_keeps_arrays_read_only(dumps):
    x, v = sample_profile()
    u = GridFunction(x, v, eps=0.07, meta={"kind": "test"})
    u.slopes()
    u.midpoints()
    data = dumps(u)
    w = pickle.loads(data)
    assert np.array_equal(w.nodes, u.nodes) and np.array_equal(w.values, u.values)
    assert (w.eps, w.meta) == (0.07, {"kind": "test"})
    for arr in (w.nodes, w.values, w.cell_widths(), w.slopes(), w.midpoints()):
        assert not arr.flags.writeable
    assert w.nodes is w.grid.nodes
    # the pickle carries nodes and values, not the cached geometry
    assert len(data) < 3 * u.nodes.nbytes
    g = pickle.loads(dumps(u.grid))
    assert np.array_equal(g.nodes, u.nodes) and not g.nodes.flags.writeable


def test_with_values_shares_the_grid():
    x, v = sample_profile()
    u = GridFunction(x, v)
    w = u.with_values(2.0 * v)
    assert w.grid is u.grid and w.nodes is u.nodes
    assert w.cell_widths() is u.cell_widths()
    assert np.array_equal(w.slopes(), 2.0 * np.diff(v) / np.diff(x))
    assert GridFunction(u.grid, v).midpoints() is u.midpoints()


def test_grid_validates_its_nodes():
    with pytest.raises(GridError, match="strictly increasing"):
        Grid([0.0, 0.5, 0.5, 1.0])
    with pytest.raises(GridError, match="at least 3"):
        Grid([0.0, 1.0])
    with pytest.raises(GridError, match="equal length"):
        GridFunction(np.linspace(0.0, 1.0, 5), np.zeros(4))


def test_gridfunction_rejects_nan_infinite_or_negative_eps():
    x, v = sample_profile()
    for eps in (np.nan, np.inf, -0.07):
        with pytest.raises(GridError, match="eps must be finite and non-negative"):
            GridFunction(x, v, eps=eps)
        with pytest.raises(GridError, match="eps must be finite and non-negative"):
            GridFunction.from_dict({"nodes": x.tolist(), "values": v.tolist(), "eps": eps})
    assert GridFunction(x, v, eps=0.0).eps == 0.0


def test_integrate_slopes_copies_the_callers_nodes_and_keeps_a_given_grid():
    x, _ = sample_profile()
    w = np.cos(2.0 * np.pi * x)
    x_before, w_before = x.copy(), w.copy()
    u = integrate_slopes(x, w, eps=0.1)
    assert np.array_equal(x, x_before) and np.array_equal(w, w_before)
    assert not (np.shares_memory(u.nodes, x) or np.shares_memory(u.values, w))
    assert not (u.nodes.flags.writeable or u.values.flags.writeable)
    assert u.values[0] == 0.0 and u.values[-1] == 0.0
    v = integrate_slopes(u.grid, w, eps=0.1)
    assert v.grid is u.grid and np.array_equal(v.values, u.values)
    with pytest.raises(GridError, match="eps must be finite and non-negative"):
        integrate_slopes(x, w, eps=np.nan)


JSON_LEAVES = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
NESTED_META = st.dictionaries(
    st.text(max_size=6),
    st.recursive(JSON_LEAVES, lambda inner: (st.lists(inner, max_size=4)
                                             | st.dictionaries(st.text(max_size=6), inner,
                                                               max_size=4)),
                 max_leaves=12),
    max_size=5)
SPECIAL_VALUES = (-0.0, 5e-324, 1e-5, 1e16)


@settings(max_examples=30, deadline=None)
@given(n=st.sampled_from([3, SAVE_CHUNK - 1, SAVE_CHUNK, SAVE_CHUNK + 1, 2 * SAVE_CHUNK + 3]),
       seed=st.integers(0, 2**32 - 1),
       scale=st.sampled_from([1e-5, 1.0, 1e16]),
       eps=st.sampled_from([0.0, 0.05, 5e-324]) | st.floats(0.0, 1.0),
       meta=NESTED_META)
def test_save_writes_the_json_of_to_dict(tmp_path_factory, n, seed, scale, eps, meta):
    rng = np.random.default_rng(seed)
    x = np.cumsum(rng.uniform(0.5, 1.5, n)) * scale
    v = rng.standard_normal(n) * 10.0 ** rng.integers(-330, 300, n)
    v[rng.integers(0, n, 8)] = rng.choice(SPECIAL_VALUES, 8)
    v[0], v[-1] = rng.choice([0.0, -0.0], 2)
    u = GridFunction(x, v, eps=eps, meta=meta)
    path = tmp_path_factory.getbasetemp() / "save.json"
    u.save(path)
    assert path.read_text(encoding="utf-8") == json.dumps(u.to_dict()) + "\n"


def test_save_streams_the_profile(three_well_005, tmp_path):
    # building the whole text at once peaked at 9.4 MB on this 54,935-node
    # profile; the chunked writer stays near one chunk
    path = tmp_path / "p.json"
    tracemalloc.start()
    try:
        three_well_005.save(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(three_well_005) > 50_000
    assert peak < 2 * 2**20
    assert path.read_text(encoding="utf-8") == json.dumps(three_well_005.to_dict()) + "\n"
