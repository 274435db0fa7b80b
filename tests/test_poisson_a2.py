import math

import numpy as np
import pytest

from twoweight.grid import make_grid
from twoweight.harness import generate_pair
from twoweight.measure import Measure, mass
from twoweight.poisson_a2 import (
    a2_constants,
    enumerate_cubes,
    halfspace_poisson,
    poisson,
)

import oracles


def std_grid(dim=1, M=4, N=0):
    bits = [[0] * (M - N) for _ in range(dim)]
    return make_grid(dim, M, N, {"kind": "beta", "bits": bits})


def random_measure(rng, dim=1, M=4, natoms=12):
    pts = rng.integers(0, 2 ** M, size=(natoms, dim))
    return Measure.from_atoms(dim, M, [
        (tuple(int(x) for x in p), float(m))
        for p, m in zip(pts, rng.random(natoms) + 0.05)])


# ---------------------------------------------------------------- poisson

def test_standard_atom_at_center():
    g = std_grid(M=3)
    q = g.cube(1, (0,))  # [0, 1/2), center 1/4, quarter-unit 8
    mu = Measure.from_atoms(1, 3, [((2,), 5.0)])  # atom at 1/4
    for alpha in (0.0, 0.3):
        got = poisson("standard", q, mu, alpha)
        assert got == pytest.approx(5.0 * 0.5 ** (alpha - 1))


def test_upper_doubling_standard_at_most_two():
    # uniform unit-density lattice measure: |Q|_mu = l(Q) for every dyadic Q.
    # The standard bound 2 is the Lebesgue value; for atoms of mass h at
    # the points k*h the exact supremum over dyadic cubes is 2*pi^2/3 - 9/2,
    # reached by side-2h cubes centred at an atom as M grows (2.019 at M=7).
    M = 6
    mu = Measure.from_atoms(1, M, [((k,), 2.0 ** -M) for k in range(2 ** M)])
    g = std_grid(M=M)
    for q in g.cubes():
        assert mass(q, mu) == pytest.approx(q.sidelength)
        assert poisson("standard", q, mu, 0.0) <= 2 * math.pi ** 2 / 3 - 4.5 \
            + 1e-9
        assert poisson("reproducing", q, mu, 0.0) <= 4.0


def test_standard_below_reproducing_in_1d():
    # in one dimension the kernel ratio is (l/(l+d))^alpha <= 1
    rng = np.random.default_rng(5)
    g = std_grid(M=4)
    cubes = list(g.cubes())
    for _ in range(50):
        mu = random_measure(rng)
        q = cubes[rng.integers(len(cubes))]
        alpha = float(rng.random() * 0.9)
        assert poisson("standard", q, mu, alpha) \
            <= poisson("reproducing", q, mu, alpha) + 1e-12


def test_small_kind_needs_delta():
    g = std_grid(M=3)
    mu = Measure.from_atoms(1, 3, [((1,), 1.0)])
    with pytest.raises(ValueError):
        poisson("small", g.cube(0, (0,)), mu, 0.0)
    v = poisson("small", g.cube(0, (0,)), mu, 0.0, delta=0.5)
    assert v > 0


def test_poisson_decay_under_goodness():
    # J inside I, measure outside I: P(J, mu)/P(I, mu) decays like
    # (l(J)/l(I))^(1 - eps(n+1-alpha)) up to a modest constant
    g = std_grid(M=8)
    i_cube = g.cube(1, (0,))      # [0, 1/2)
    mu = Measure.from_atoms(1, 8, [((200,), 1.0), ((255,), 2.0)])  # in I^c
    alpha, eps = 0.0, 0.5
    for level in (4, 5, 6):
        j = g.cube(level, (1,))
        ratio = poisson("standard", j, mu, alpha) \
            / poisson("standard", i_cube, mu, alpha)
        bound = (j.sidelength / i_cube.sidelength) ** (1 - eps * (2 - alpha))
        assert ratio <= 100 * bound


def test_poisson_equivalence_away_from_support():
    # for J' inside J and mu supported off 3J, P(J',mu)/l(J') is within a
    # fixed factor of P(J,mu)/l(J)
    g = std_grid(M=6)
    j = g.cube(3, (2,))  # [1/4, 3/8); 3J = [1/8, 1/2)
    mu = Measure.from_atoms(1, 6, [((40,), 1.0), ((63,), 3.0)])  # off 3J
    alpha = 0.25
    c = 2.5 ** (2 - alpha)
    base = poisson("standard", j, mu, alpha) / j.sidelength
    for jp in (g.cube(4, (4,)), g.cube(5, (9,)), g.cube(6, (18,))):
        assert j.contains_cube(jp)
        r = (poisson("standard", jp, mu, alpha) / jp.sidelength) / base
        assert 1 / c <= r <= c


# ---------------------------------------------------------------- half space

def test_forward_single_atom_closed_form():
    mu = Measure.from_atoms(1, 3, [((2,), 7.0)])  # y = 1/4
    x, t, alpha, n = 0.5, 0.125, 0.3, 1
    got = halfspace_poisson("forward", alpha=alpha, n=n, x=[x], t=t, rho=mu)
    want = 7.0 * t / (t * t + 0.25 ** 2) ** ((n + 1 - alpha) / 2)
    assert got == pytest.approx(want)


def test_forward_rejects_bad_t():
    mu = Measure.from_atoms(1, 3, [((2,), 1.0)])
    with pytest.raises(ValueError):
        halfspace_poisson("forward", alpha=0.0, n=1, x=[0.0], t=0.0, rho=mu)


def test_dual_empty_is_zero():
    assert halfspace_poisson("dual", alpha=0.0, n=1, x=[0.0],
                             upper_atoms=([], [], [])) == 0.0


def test_dual_single_atom():
    got = halfspace_poisson("dual", alpha=0.5, n=1, x=[0.0],
                            upper_atoms=([[1.0]], [0.5], [2.0]))
    want = 2.0 * 0.25 / (0.25 + 1.0) ** 0.75
    assert got == pytest.approx(want)


def test_forward_comparable_to_standard_poisson():
    # evaluated at (center, sidelength) the half-space kernel matches the
    # standard Poisson integral within the factor 2^((n+1-alpha)/2)
    rng = np.random.default_rng(11)
    g = std_grid(M=5)
    cubes = list(g.cubes())
    worst = 1.0
    for _ in range(30):
        mu = random_measure(rng, M=5)
        q = cubes[rng.integers(len(cubes))]
        alpha = float(rng.random() * 0.9)
        fwd = halfspace_poisson("forward", alpha=alpha, n=1,
                                x=q.center(), t=q.sidelength, rho=mu)
        std = poisson("standard", q, mu, alpha)
        ratio = fwd / std
        cap = 2 ** ((2 - alpha) / 2)
        assert 1 - 1e-12 <= ratio <= cap + 1e-12
        worst = max(worst, ratio)
    assert worst > 1.0


# ---------------------------------------------------------------- a2 report

def test_common_atom_divergence_flag():
    mu = Measure.from_atoms(1, 4, [((5,), 1.0)])
    g = std_grid(M=4)
    rep = a2_constants(mu, mu, [g], 0.0)
    assert rep.classicalA2_diverges
    assert rep.punct == 0.0 and rep.punct_star == 0.0
    # the recorded classical value is the finest-cube quotient
    assert rep.classicalA2 == pytest.approx(1.0 / (2.0 ** -4) ** 2)


def test_disjoint_atoms_brute_force():
    sigma = Measure.from_atoms(1, 3, [((0,), 1.0)])
    omega = Measure.from_atoms(1, 3, [((7,), 1.0)])
    g = std_grid(M=3)
    rep = a2_constants(sigma, omega, [g], 0.0)
    best = 0.0
    for q in enumerate_cubes([g], sigma, omega):
        qw = mass(q, omega)
        if qw == 0.0:
            continue
        lo = q.lo[0]
        hi = lo + q.side
        if lo <= 0 < hi:
            hole = 0.0  # sigma atom inside Q
        else:
            ell = q.sidelength
            d = abs((lo + hi) / 2 / 8 - 0.0)
            hole = (ell / (ell + d) ** 2) ** 1  # reproducing, n=1, alpha=0
        best = max(best, hole * qw / q.sidelength)
    assert rep.calA2 == pytest.approx(best)
    assert not rep.classicalA2_diverges


def test_homogeneity_degree_two():
    rng = np.random.default_rng(3)
    sigma = random_measure(rng, M=4, natoms=8)
    omega = random_measure(rng, M=4, natoms=8)
    g = std_grid(M=4)
    rep1 = a2_constants(sigma, omega, [g], 0.25)
    rep3 = a2_constants(sigma.scaled(3.0), omega.scaled(3.0), [g], 0.25)
    for key in ("calA2", "calA2_star", "classicalA2", "punct",
                "punct_star", "energyA2", "energyA2_star"):
        assert getattr(rep3, key) == pytest.approx(
            9.0 * getattr(rep1, key), rel=1e-12)
    assert rep3.aggregate == pytest.approx(9.0 * rep1.aggregate)


def test_aggregate_is_sum_of_four():
    rng = np.random.default_rng(8)
    sigma = random_measure(rng, M=4)
    omega = random_measure(rng, M=4)
    rep = a2_constants(sigma, omega, [std_grid(M=4)], 0.0)
    assert rep.aggregate == pytest.approx(
        rep.calA2 + rep.calA2_star + rep.punct + rep.punct_star)


def test_energy_a2_controlled_by_punctured():
    # with plain projections the second moment around the barycenter is
    # at most n l(Q)^2 times the punctured mass, so the ratio is <= n <= 8
    rng = np.random.default_rng(21)
    for dim, M in ((1, 4), (2, 3)):
        for trial in range(6):
            sigma = random_measure(rng, dim=dim, M=M, natoms=10)
            omega = random_measure(rng, dim=dim, M=M, natoms=10)
            g = make_grid(dim, M, 0, {"kind": "random", "seed": trial})
            rep = a2_constants(sigma, omega, [g], 0.0)
            if rep.punct > 0:
                assert rep.energyA2 <= 8 * rep.punct + 1e-12
            if rep.punct_star > 0:
                assert rep.energyA2_star <= 8 * rep.punct_star + 1e-12


def test_witnesses_recorded():
    rng = np.random.default_rng(1)
    sigma = random_measure(rng, M=3)
    omega = random_measure(rng, M=3)
    rep = a2_constants(sigma, omega, [std_grid(M=3)], 0.0)
    d = rep.as_dict()
    assert "calA2" in d["witnesses"]
    assert d["aggregate"] >= d["calA2"]


@pytest.mark.parametrize("augmented", [True, False])
@pytest.mark.parametrize("alpha", [0.0, 0.5])
@pytest.mark.parametrize("dim,generator", [(1, "random_atomic"),
                                           (1, "common_atoms"),
                                           (2, "random_atomic"),
                                           (2, "common_atoms"),
                                           (1, "empty_sigma"),
                                           (2, "empty_sigma")])
def test_a2_constants_match_the_restricted_measure_oracle(dim, generator,
                                                          alpha, augmented):
    # the holes add up the atoms of the slices around each cube, the
    # oracle restricts the measure for each: the same terms in another
    # order
    m = 4 if dim == 1 else 3
    empty = generator == "empty_sigma"
    sigma, omega = generate_pair("random_atomic" if empty else generator,
                                 {"dim": dim, "resolution": m, "natoms": 12},
                                 5)
    if empty:
        sigma = Measure.from_atoms(dim, m, [])
    grids = [make_grid(dim, m, -1, {"kind": "random", "seed": 3}),
             make_grid(dim, m, 0, {"kind": "gamma", "g": [1] * dim})]
    got = a2_constants(sigma, omega, grids, alpha)
    want = oracles.a2_constants(sigma, omega, grids, alpha, augmented)
    if augmented:
        assert oracles.close(got.as_dict(), want.as_dict())
    else:
        # each constant is a supremum, and the grid cubes alone are a
        # sub-family of the enumerated cubes (up to the oracle's order of
        # summation)
        for key, val in want.as_dict().items():
            if key != "witnesses":
                assert val <= got.as_dict()[key] * (1 + 1e-12), key
    assert (got.calA2 > 0.0 and got.calA2_star > 0.0) == bool(sigma.natoms)
