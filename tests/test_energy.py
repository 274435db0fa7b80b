import math

import numpy as np
import pytest

from twoweight.bfamily import make_family
from twoweight.corona import cz_stopping
from twoweight.energy import (
    functional_energy_context,
    functional_energy_estimate,
    functional_energy_lhs,
    halfspace_testing,
    monotonicity_check,
    mu_bar_from_corona,
    strong_energy,
    whitney_energy,
)
from twoweight.grid import make_grid
from twoweight.harness import generate_pair
from twoweight.measure import Measure
from twoweight.poisson_a2 import a2_constants, enumerate_cubes, poisson
from twoweight.singular import make_kernel

import oracles


def std_grid(dim=1, M=3):
    return make_grid(dim, M, 0, {"kind": "beta", "bits": [[0] * M] * dim})


def lattice_measure(rng, dim=1, M=3):
    pts = [(k,) if dim == 1 else (k % 2 ** M, k // 2 ** M)
           for k in range(2 ** (dim * M))]
    return Measure.from_atoms(dim, M, [(p, float(m)) for p, m in
                                       zip(pts, rng.random(len(pts)) + 0.2)])


def random_pair(seed, dim=1, M=4, natoms=10):
    rng = np.random.default_rng(seed)
    side = 2 ** M
    def draw():
        pts = rng.choice(side ** dim, size=natoms, replace=False)
        coords = [((int(k),) if dim == 1 else (int(k) % side, int(k) // side))
                  for k in pts]
        return Measure.from_atoms(dim, M, [(p, float(m)) for p, m in
                                           zip(coords,
                                               rng.random(natoms) + 0.1)])
    return draw(), draw()


# ------------------------------------------------------------ strong energy

def test_strong_energy_single_omega_atom_is_zero():
    rng = np.random.default_rng(0)
    sigma = lattice_measure(rng)
    omega = Measure.from_atoms(1, 3, [((2,), 1.0)])
    rep = strong_energy(sigma, omega, [std_grid()], 0.0, depth=None)
    assert rep.strong == 0.0
    assert rep.aggregate == rep.strong_star


def test_strong_energy_equal_weight_bound():
    # sigma = omega modelling Lebesgue measure (atom mass = sidelength of
    # the finest tile): the squared constant stays near 1/3 across
    # resolutions (measured 0.063, 0.104, 0.149, 0.188, 0.224 for M = 2..6)
    # instead of blowing up with the atom count.
    for m in (3, 5):
        w = 2.0 ** -m
        mu = Measure.from_atoms(1, m, [((k,), w) for k in range(2 ** m)])
        rep = strong_energy(mu, mu, [std_grid(M=m)], 0.0, depth=None)
        assert 0.0 < rep.strong ** 2 <= 0.5
        assert rep.strong == pytest.approx(rep.strong_star)


def test_strong_energy_monotone_in_depth():
    g = [std_grid(M=4)]
    for seed in range(20):
        sigma, omega = random_pair(seed)
        vals = [strong_energy(sigma, omega, g, 0.0, depth=d).strong
                for d in (1, 2, 3)]
        assert vals[0] <= vals[1] + 1e-15
        assert vals[1] <= vals[2] + 1e-15


def test_strong_energy_rejects_bad_depth():
    sigma, omega = random_pair(0)
    with pytest.raises(ValueError, match="depth"):
        strong_energy(sigma, omega, [std_grid(M=4)], 0.0, depth=0)


def test_strong_energy_witness_consistent():
    sigma, omega = random_pair(3)
    rep = strong_energy(sigma, omega, [std_grid(M=4)], 0.0, depth=2)
    if rep.strong > 0.0:
        assert rep.strong_witness is not None
        assert rep.strong_partition
        for piece in rep.strong_partition:
            assert rep.strong_witness.contains_cube(piece)


# ------------------------------------------------------------ whitney energy

def test_whitney_variant_ordering():
    for seed in range(6):
        sigma, omega = random_pair(seed)
        g = [std_grid(M=4)]
        w = whitney_energy(sigma, omega, g, 0.0, 2.0,
                           ("hole", "partial", "plug"), depth=2)
        hole, part, plug = (w[name][0] for name in ("hole", "partial",
                                                     "plug"))
        assert hole <= part + 1e-12
        assert part <= plug + 1e-12


def test_whitney_controlled_by_strong():
    # The hole variant never exceeds a small multiple of the strong
    # energy; the factor 4 was measured over this seeded batch.
    g = [std_grid(M=4)]
    for seed in range(8):
        sigma, omega = random_pair(seed)
        strong = strong_energy(sigma, omega, g, 0.0, depth=None).strong
        hole, _ = whitney_energy(sigma, omega, g, 0.0, 2.0, ("hole",),
                                 depth=None)["hole"]
        assert hole <= 4.0 * strong + 1e-12


def test_whitney_plug_vs_partial_plus_a2():
    g = [std_grid(M=4)]
    budget = 100.0
    for seed in range(8):
        sigma, omega = random_pair(seed)
        a2 = a2_constants(sigma, omega, g, 0.0)
        w = whitney_energy(sigma, omega, g, 0.0, 2.0, ("partial", "plug"),
                           depth=2)
        part, plug = w["partial"][0], w["plug"][0]
        assert plug ** 2 <= budget * (part ** 2 + a2.energyA2)


def test_whitney_rejects_bad_gamma():
    sigma, omega = random_pair(0)
    for gamma in (1.0, 5.5, 0.0):
        with pytest.raises(ValueError, match="gamma"):
            whitney_energy(sigma, omega, [std_grid(M=4)], 0.0, gamma,
                           ("hole",))
    for variant in (("banana",), ("hole", "banana")):
        with pytest.raises(ValueError, match="variant"):
            whitney_energy(sigma, omega, [std_grid(M=4)], 0.0, 2.0, variant)


# ------------------------------------------------- one-pass energy oracles
# The array code adds the oracle's terms in another order: it must
# reproduce the per-variant and per-direction loops of oracles.py to
# 1e-12 relative, with the same witnesses and partitions, except in the
# cases named in TIES, where the oracle's two best candidates lie within
# 1e-12 of each other and either may win.

# case -> the two witnesses of a near tie; none has been met so far
TIES: dict = {}


def oracle_pair(dim, kind, seed):
    m = 4 if dim == 1 else 3
    if kind == "common_atoms":
        return generate_pair("common_atoms",
                             {"dim": dim, "resolution": m, "natoms": 10},
                             seed)
    sigma, omega = random_pair(seed, dim=dim, M=m, natoms=10)
    empty = Measure.from_atoms(dim, m, [])
    return {"empty_sigma": (empty, omega),
            "empty_omega": (sigma, empty)}.get(kind, (sigma, omega))


def same_witness(case, got, want):
    assert got == want or case in TIES, case


ORACLE_CASES = [(1, 0.0, 2.0, "random"), (1, 0.5, 2.5, "common_atoms"),
                (2, 0.0, 2.5, "random"), (2, 0.5, 2.0, "common_atoms"),
                (1, 0.5, 2.0, "empty_sigma"), (2, 0.0, 2.5, "empty_omega")]


@pytest.mark.parametrize("depth", [1, 2, None])
@pytest.mark.parametrize("dim,alpha,gamma,kind", ORACLE_CASES)
def test_whitney_one_pass_matches_per_variant_oracle(dim, alpha, gamma,
                                                     kind, depth):
    sigma, omega = oracle_pair(dim, kind, 7)
    g = [std_grid(dim=dim, M=sigma.resolution)]
    names = ("hole", "partial", "plug")
    got = whitney_energy(sigma, omega, g, alpha, gamma, names, depth=depth)
    assert list(got) == list(names)
    for name in names:
        val, wit = oracles.whitney_energy(sigma, omega, g, alpha, gamma,
                                          name, depth)
        assert math.isclose(got[name][0], val, rel_tol=1e-12, abs_tol=0.0)
        same_witness(f"whitney-{name}-{dim}-{kind}-{depth}", got[name][1],
                     wit)
        assert whitney_energy(sigma, omega, g, alpha, gamma, (name,),
                              depth=depth) == {name: got[name]}
    assert (got["plug"][0] > 0.0) == ("empty" not in kind)


@pytest.mark.parametrize("depth", [1, 2, None])
@pytest.mark.parametrize("dim,alpha,gamma,kind", ORACLE_CASES)
def test_strong_one_pass_matches_oracle(dim, alpha, gamma, kind, depth):
    sigma, omega = oracle_pair(dim, kind, 8)
    g = [std_grid(dim=dim, M=sigma.resolution)]
    case = f"strong-{dim}-{kind}-{depth}"
    rep = strong_energy(sigma, omega, g, alpha, depth)
    cubes = list(enumerate_cubes(g, sigma, omega))
    s, w, parts = oracles.strong_energy(sigma, omega, cubes, alpha, depth)
    s2, w2, _ = oracles.strong_energy(omega, sigma, cubes, alpha, depth)
    assert math.isclose(rep.strong, s, rel_tol=1e-12, abs_tol=0.0)
    assert math.isclose(rep.strong_star, s2, rel_tol=1e-12, abs_tol=0.0)
    same_witness(case, (rep.strong_witness, rep.strong_partition),
                 (w, parts))
    same_witness(case + "-star", rep.strong_star_witness, w2)
    assert (rep.strong > 0.0) == ("empty" not in kind)


# ------------------------------------------------- batched energy terms
# The batched calls add every piece's atoms, and every piece's Whitney
# cells, in the order of the per-group loops of oracles.py, so the
# per-top ratios are equal, not close.

BATCH_GRIDS = {
    "beta": lambda dim, m: [std_grid(dim=dim, M=m)],
    "gamma": lambda dim, m: [make_grid(dim, m, 0, {
        "kind": "gamma", "g": [2 ** m // 3 + 1] * dim})],
    "random": lambda dim, m: [make_grid(dim, m, -1,
                                        {"kind": "random", "seed": 5})],
    "two": lambda dim, m: BATCH_GRIDS["beta"](dim, m)
    + BATCH_GRIDS["gamma"](dim, m),
}


@pytest.mark.parametrize("grid", sorted(BATCH_GRIDS))
@pytest.mark.parametrize("dim,kind", [(1, "random"), (1, "common_atoms"),
                                      (2, "random"), (2, "common_atoms"),
                                      (1, "empty_sigma"), (2, "empty_omega")])
def test_batched_energy_terms_are_the_per_group_loop(dim, kind, grid):
    import twoweight.energy as energy_mod
    from twoweight.levels import tops
    sigma, omega = oracle_pair(dim, kind, 9)
    grids = BATCH_GRIDS[grid](dim, sigma.resolution)
    tp = sigma.tops(grids, omega)
    assert sigma.tops(grids, omega) is tp and tp.aug.any()
    # the shared tops are the enumerated cubes that hold an atom
    cubes = tops(grids, sigma, omega)
    keep = np.array([(oracles.atoms_in(sigma, q).any()
                      or oracles.atoms_in(omega, q).any())
                     for q in enumerate_cubes(grids, sigma, omega)])
    assert not keep.all()
    for x, y in zip(cubes, (tp.gi, tp.lev, tp.aug, tp.lo)):
        assert x[keep].tolist() == y.tolist()
    directions = [lambda g: (sigma.levels(g), omega.levels(g)),
                  lambda g: (omega.levels(g), sigma.levels(g))]
    names = ("hole", "partial", "plug")
    for alpha in (0.0, 0.5):
        for depth in (1, 2, None):
            for k, tables in enumerate(directions):
                got, parts = energy_mod._strong_ratios(tp, grids, k, alpha,
                                                       depth)
                want, want_parts = oracles.strong_groups(grids, cubes,
                                                         tables, alpha, depth)
                assert got.tolist() == want[keep].tolist()
                assert not want[~keep].any()
                i = int(np.argmax(got))
                assert (parts(i) if got[i] > 0 else []) == want_parts
                assert (got > 0).any() == ("empty" not in kind)
            got = energy_mod._whitney_ratios(tp, grids, alpha, 2.5, names,
                                             depth)
            want = oracles.whitney_groups(grids, cubes, directions[0], alpha,
                                          2.5, names, depth)
            assert got.tolist() == want[:, keep].tolist()
            assert not want[:, ~keep].any()
            assert (got > 0).any() == ("empty" not in kind)


def test_the_hole_checks_every_whitney_side():
    # a dilate off the quarter lattice is refused whichever cells hold
    # omega-moment, as when each level's template was dilated
    sigma, omega = oracle_pair(2, "random", 9)
    with pytest.raises(ValueError, match="dilate 1.25 of side 1"):
        whitney_energy(sigma, omega, [std_grid(dim=2, M=3)], 0.0, 1.25,
                       ("partial", "hole"), depth=1)
    assert whitney_energy(sigma, omega, [std_grid(dim=2, M=3)], 0.0, 1.25,
                          ("partial",), depth=1)["partial"][0] > 0


# ------------------------------------------------------------ monotonicity

def _mono_setup(seed, psi=None, kind="unit"):
    rng = np.random.default_rng(seed)
    omega = lattice_measure(rng, M=4)
    g = std_grid(M=4)
    root = g.cube(0, (0,))
    fam = make_family(kind, omega, g, root, seed=seed)
    j = g.cube(3, (3,))  # [3/8, 4/8), with 2J inside the root
    mu = Measure.from_atoms(1, 4, [((16 + k,), float(rng.random() + 0.1))
                                   for k in range(4)])
    dens = rng.standard_normal(mu.natoms)
    if psi is None:
        psi = rng.standard_normal(omega.natoms)
    ker = make_kernel(1, 0.0)
    return ker, root, j, mu, dens, psi, fam


def test_monotonicity_zero_measure():
    ker, root, j, mu, _, psi, fam = _mono_setup(0)
    out = monotonicity_check(ker, root, j, mu, np.zeros(mu.natoms), psi, fam)
    assert out["lhs"] == 0.0 and out["ratio"] == 0.0


def test_monotonicity_constant_psi_unit_family():
    ker, root, j, mu, dens, _, fam = _mono_setup(1)
    out = monotonicity_check(ker, root, j, mu, dens,
                             np.ones(fam.mu.natoms), fam)
    assert out["lhs"] == pytest.approx(0.0, abs=1e-12)


def test_monotonicity_rejects_support_violation():
    ker, root, j, _, _, psi, fam = _mono_setup(2)
    inside = Measure.from_atoms(1, 4, [((1,), 1.0)])
    with pytest.raises(ValueError, match="outside"):
        monotonicity_check(ker, root, j, inside, np.ones(1), psi, fam)


def test_monotonicity_rejects_bad_separation():
    ker, root, _, mu, dens, psi, fam = _mono_setup(3)
    g = std_grid(M=4)
    edge = g.cube(1, (0,))  # 2*[0,1/2) leaves the root
    with pytest.raises(ValueError, match="inside"):
        monotonicity_check(ker, root, edge, mu, dens, psi, fam)


def test_monotonicity_ratio_budget():
    worst = 0.0
    for seed in range(40):
        kind = "unit" if seed % 2 == 0 else "random"
        ker, root, j, mu, dens, psi, fam = _mono_setup(seed, kind=kind)
        out = monotonicity_check(ker, root, j, mu, dens, psi, fam)
        assert math.isfinite(out["ratio"]) or out["star"] == 0.0
        if math.isfinite(out["ratio"]):
            worst = max(worst, out["ratio"])
        assert out["pivotal"] <= 100.0
    assert worst <= 100.0


# ------------------------------------------------------------ small Poisson

def test_small_poisson_gain_with_depth():
    # A cube s levels down sees the (1+delta)-Poisson integral of a far
    # measure shrink by 2^(-s*delta*(1-eps)) relative to the standard one.
    delta, eps = 1.0, 0.5
    nu = Measure.from_atoms(1, 6, [((80,), 1.0)])  # x = 1.25, outside [0,1)
    g = std_grid(M=6)
    for s in range(1, 7):
        j = g.cube(s, (0,))
        ratio = poisson("small", j, nu, 0.0, delta=delta) \
            / poisson("standard", j, nu, 0.0)
        assert ratio <= 2.0 * 2.0 ** (-s * delta * (1 - eps))


# ------------------------------------------------------------ functional energy

def _corona_setup(seed, M=6):
    rng = np.random.default_rng(seed)
    sigma = lattice_measure(rng, M=M)
    omega = lattice_measure(rng, M=M)
    gd = std_grid(M=M)
    gg = make_grid(1, M, 0, {"kind": "gamma", "g": (23,)})
    root = gd.cube(0, (0,))
    f = rng.pareto(2.0, sigma.natoms) + 0.1
    corona = cz_stopping(sigma, f, root, 2.0)
    fam_omega = make_family("unit", omega, gg, gg.cube(0, (0,)))
    return sigma, omega, corona, gg, fam_omega


def test_functional_energy_zero_h():
    sigma, omega, corona, gg, fam = _corona_setup(0)
    ctx = functional_energy_context(corona, gg, fam, 0.9, 0.0)
    assert functional_energy_lhs(np.zeros(sigma.natoms), ctx, sigma,
                                 0.0) == 0.0


def test_functional_energy_empty_context():
    sigma, _, corona, _, _ = _corona_setup(1)
    assert functional_energy_lhs(np.ones(sigma.natoms), [], sigma, 0.0) == 0.0


def test_functional_energy_estimate_budget():
    budget = 100.0
    for seed in range(4):
        sigma, omega, corona, gg, fam = _corona_setup(seed)
        ctx = functional_energy_context(corona, gg, fam, 0.9, 0.0)
        assert any(q > 0.0 for _, q in ctx)
        est = functional_energy_estimate(ctx, sigma, 0.0,
                                         corona.root, seed=seed)
        grids = [corona.root.grid, gg]
        a2 = a2_constants(sigma, omega, grids, 0.0)
        e2 = strong_energy(sigma, omega, grids, 0.0, depth=2).aggregate
        cap = e2 + math.sqrt(a2.calA2) + math.sqrt(a2.calA2_star) \
            + math.sqrt(a2.punct)
        assert est["value"] <= budget * cap
        assert est["dictionary_size"] > 0


# ------------------------------------------------------------ half space

def test_halfspace_empty_mu_bar():
    sigma, _, corona, _, _ = _corona_setup(2)
    _, mu_bar = mu_bar_from_corona([])
    out = halfspace_testing(corona.root, mu_bar, sigma, 0.0,
                            {"e2": 1.0, "calA2": 1.0, "calA2_star": 1.0,
                             "punct": 0.0})
    assert out["forward_lhs"] == 0.0 and out["backward_lhs"] == 0.0


def test_halfspace_recount_identity():
    sigma, omega, corona, gg, fam = _corona_setup(3)
    ctx = functional_energy_context(corona, gg, fam, 0.9, 0.0)
    mu, mu_bar = mu_bar_from_corona(ctx)
    total = sum(q for _, q in ctx)
    assert total > 0.0
    assert mu_bar.second_coordinate_sq_integral(corona.root) \
        == pytest.approx(total, rel=1e-12)
    assert mu.total == pytest.approx(total, rel=1e-12)


def test_halfspace_ratios_within_budget():
    budget = 1e3
    for seed in range(4):
        sigma, omega, corona, gg, fam = _corona_setup(seed)
        ctx = functional_energy_context(corona, gg, fam, 0.9, 0.0)
        _, mu_bar = mu_bar_from_corona(ctx)
        grids = [corona.root.grid, gg]
        a2 = a2_constants(sigma, omega, grids, 0.0)
        e2 = strong_energy(sigma, omega, grids, 0.0, depth=2).aggregate
        out = halfspace_testing(corona.root, mu_bar, sigma, 0.0,
                                {"e2": e2, "calA2": a2.calA2,
                                 "calA2_star": a2.calA2_star,
                                 "punct": a2.punct})
        for key in ("forward_ratio", "backward_ratio"):
            if out[key] is not None:
                assert out[key] <= budget
