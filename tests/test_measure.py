import dataclasses
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twoweight.grid import Cube, make_grid, whitney
from twoweight.measure import (
    Measure,
    average,
    common_points,
    dump_measure,
    load_measure,
    mass,
)

from oracles import atoms_in


def std_grid(dim=1, M=3):
    bits = [[0] * M for _ in range(dim)]
    return make_grid(dim, M, 0, {"kind": "beta", "bits": bits})


def test_empty_measure_mass_zero():
    mu = Measure.from_atoms(1, 3, [])
    q = std_grid().cube(0, (0,))
    assert mass(q, mu) == 0.0


def test_half_open_membership():
    # single atom at 1/2, mass 3
    mu = Measure.from_atoms(1, 3, [((4,), 3.0)])
    g = std_grid()
    assert mass(g.cube(0, (0,)), mu) == 3.0
    assert mass(g.cube(1, (1,)), mu) == 3.0   # [1/2, 1)
    assert mass(g.cube(1, (0,)), mu) == 0.0   # [0, 1/2)


def test_additivity_over_children():
    rng = np.random.default_rng(0)
    pts = rng.integers(0, 8, size=(40, 1))
    mu = Measure.from_atoms(1, 3, [((int(p[0]),), float(m))
                                   for p, m in zip(pts, rng.random(40) + .1)])
    g = std_grid()
    for level in range(0, 3):
        for q in g.cubes_at_level(level):
            kids = q.children()
            assert mass(q, mu) == pytest.approx(
                sum(mass(c, mu) for c in kids), abs=1e-12)


def test_single_atom_average():
    mu = Measure.from_atoms(1, 3, [((3,), 2.0)])
    q = std_grid().cube(0, (0,))
    assert average(q, mu, np.array([7.0])) == 7.0


def test_two_atom_average():
    # atoms of masses 1 and 3 at 0 and 1/2, inside [0, 1) and apart below
    mu = Measure.from_atoms(1, 1, [((0,), 1.0), ((1,), 3.0)])
    g = std_grid(M=1)
    f = np.array([2.0, 6.0])
    assert average(g.cube(0, (0,)), mu, f) == 5.0
    assert average(g.cube(1, (1,)), mu, f) == 6.0


def test_constant_average():
    mu = Measure.from_atoms(1, 2, [((0,), 1.0), ((1,), 2.0), ((3,), 0.5)])
    q = std_grid(M=2).cube(0, (0,))
    assert average(q, mu, np.full(3, 4.0)) == pytest.approx(4.0)


def test_zero_mass_flagged():
    mu = Measure.from_atoms(1, 3, [((7,), 1.0)])
    q = std_grid().cube(2, (0,))  # [0, 1/4)
    assert average(q, mu, np.array([5.0])) == 0.0


def test_common_points():
    s = Measure.from_atoms(1, 2, [((0,), 1.0), ((2,), 1.0)])
    w = Measure.from_atoms(1, 2, [((2,), 5.0), ((3,), 1.0)])
    assert common_points(s, w) == frozenset({(2,)})
    assert common_points(s, s) == frozenset({(0,), (2,)})
    d = Measure.from_atoms(1, 2, [((1,), 1.0)])
    assert common_points(s, d) == frozenset()


def test_cube_of_a_coarser_grid_is_rescaled_to_the_measure():
    # 16 unit atoms at k/16 and the cube [1/2, 1) of a resolution-3 grid:
    # the cube holds the atoms k = 8..15, whatever its own lattice
    mu = Measure.from_atoms(1, 4, [((k,), 1.0) for k in range(16)])
    q = std_grid(M=3).cube(1, (1,))
    assert mass(q, mu) == 8.0
    assert average(q, mu, np.arange(16.0)) == 11.5
    assert np.array_equal(mu.in_cube(q), np.arange(16) >= 8)


def test_duplicate_atoms_merge():
    mu = Measure.from_atoms(1, 2, [((1,), 1.0), ((1,), 2.5)])
    assert mu.natoms == 1
    assert mu.total_mass == pytest.approx(3.5)


def test_roundtrip_bit_exact():
    text = json.dumps({
        "dim": 2, "resolution": 3,
        "atoms": [{"num": [1, 5], "mass": "0.1"},
                  {"num": [0, 0], "mass": "2.75"}],
    })
    mu = load_measure(text)
    again = load_measure(dump_measure(mu))
    assert again.mass_strs == mu.mass_strs == ("2.75", "0.1")
    assert np.array_equal(again.points, mu.points)


def test_load_rejects_missing_fields():
    with pytest.raises(ValueError):
        load_measure(json.dumps({"dim": 1, "atoms": []}))
    with pytest.raises(ValueError):
        load_measure("{not json")


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 15), st.floats(0.01, 10)),
                min_size=1, max_size=30))
def test_mass_matches_direct_filter(atoms):
    mu = Measure.from_atoms(1, 4, [((a,), m) for a, m in atoms])
    lo, hi = (3,), (11,)
    direct = sum(m for a, m in atoms if 3 <= a < 11)
    assert mass((lo, hi), mu) == pytest.approx(direct)


def test_cube_finer_than_the_lattice_holds_only_its_own_points():
    # atoms at 0 and 1/2 on the lattice 2^-1, cubes of the lattice 2^-2
    # and 2^-3: each holds an atom only where that atom lies inside it
    mu = Measure.from_atoms(1, 1, [((0,), 1.0), ((1,), 2.0)])
    assert mass(Cube(2, (0,), 1, 2, None), mu) == 1.0   # [0, 1/4)
    assert mass(Cube(2, (1,), 1, 2, None), mu) == 0.0   # [1/4, 1/2)
    assert mass(Cube(2, (2,), 1, 2, None), mu) == 2.0   # [1/2, 3/4)
    assert mass(Cube(2, (3,), 1, 2, None), mu) == 0.0   # [3/4, 1)
    assert mass(Cube(3, (2,), 4, 1, None), mu) == 2.0   # [1/4, 3/4)
    assert mass(Cube(3, (5,), 4, 1, None), mu) == 0.0   # [5/8, 9/8)
    assert not mu.in_cube(Cube(2, (1,), 1, 2, None)).any()


def _grid_cubes(g):
    """Grid, augmented, child and Whitney cubes of a grid."""
    cubes = list(g.cubes()) + list(g.augmented_cubes())
    top = g.cube(g.N, (0,) * g.dim)
    chosen, residual = whitney(top)
    return cubes + top.children() + chosen + residual


@settings(max_examples=60, deadline=None)
@given(dim=st.sampled_from([1, 2]), mu_res=st.integers(0, 5),
       grid_m=st.integers(1, 4), kind=st.sampled_from(["beta", "gamma",
                                                        "random"]),
       natoms=st.integers(0, 25), seed=st.integers(0, 2 ** 16))
@example(dim=2, mu_res=3, grid_m=2, kind="beta", natoms=0, seed=0)
@example(dim=1, mu_res=0, grid_m=4, kind="gamma", natoms=3, seed=1)
@example(dim=2, mu_res=1, grid_m=3, kind="random", natoms=25, seed=2)
def test_atoms_index_matches_the_scan(dim, mu_res, grid_m, kind, natoms,
                                      seed):
    rng = np.random.default_rng(seed)
    side = 2 ** mu_res
    pts = rng.integers(-side, 2 * side, size=(natoms, dim))
    mu = Measure.from_atoms(dim, mu_res, [(p, 1.0 + k)
                                          for k, p in enumerate(pts)])
    if kind == "beta":
        param = {"kind": "beta", "bits": rng.integers(
            0, 2, size=(dim, grid_m + 1)).tolist()}
    elif kind == "gamma":
        param = {"kind": "gamma",
                 "g": rng.integers(0, 2 ** (grid_m + 1), size=dim).tolist()}
    else:
        param = {"kind": "random", "seed": seed}
    g = make_grid(dim, grid_m, -1, param)
    for q in _grid_cubes(g):
        want = atoms_in(mu, q)
        got = mu.atoms(q)
        assert np.array_equal(got, np.flatnonzero(want))
        assert np.all(np.diff(got) > 0)
        assert np.array_equal(mu.in_cube(q), want)


def test_measure_built_directly_round_trips():
    mu = Measure(2, 3, np.array([[1, 5], [0, 0]]), np.array([0.1, 2.75]))
    again = load_measure(dump_measure(mu))
    assert np.array_equal(again.masses, [2.75, 0.1])
    assert again.mass_strs == ("2.75", "0.1")


def test_scaled_and_subset_measures_round_trip():
    mu = load_measure(json.dumps({
        "dim": 1, "resolution": 2,
        "atoms": [{"num": [1], "mass": "0.1"}, {"num": [3], "mass": "3"}]}))
    big = mu.scaled(3.0)
    assert big.mass_strs == (repr(0.1 * 3.0), "9.0")
    assert np.array_equal(load_measure(dump_measure(big)).masses,
                          big.masses)
    assert mu.subset([False, True]).mass_strs == ("3",)
    bare = Measure(1, 2, mu.points, mu.masses)
    assert bare.subset([True, False]).mass_strs == ()
    assert bare.scaled(3.0).mass_strs == ()
    for m in (bare.subset([True, False]), bare.scaled(3.0)):
        assert np.array_equal(load_measure(dump_measure(m)).masses,
                              m.masses)


def test_measures_compare_by_identity():
    mu = Measure.from_atoms(1, 3, [((1,), 0.5), ((4,), 1.5)])
    doubled = dataclasses.replace(mu, masses=2 * mu.masses)
    assert (doubled == mu) is False
    assert mu == mu and len({mu, doubled, mu}) == 2
