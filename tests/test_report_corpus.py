"""Frozen report corpus: SHA-256 pins of `format_report` for fixed configs.

A pin changes only together with a CHANGES.md entry that names the report
keys that moved, by how much, and why.  A second table holds the key
scalars of every pin, compared at 1e-12 relative, so that a change of
summation order (which moves a digest) can be told apart from a change
of value (which moves a scalar too).  Every config stays far below the
kernel's SVD cutoff, so the digests do not depend on the BLAS thread
count (checked with OPENBLAS_NUM_THREADS=1 and 2).
"""

import hashlib
import math

import pytest

from twoweight.harness import RunConfig, _scalar_rows, format_report, \
    verify_theorem

# pair.json has sigma at resolution 3 and omega at resolution 4, masses
# as decimal strings: the file generator and the rescaling to a common
# lattice enter the report, the masses only as the floats they parse to.
# empty_sigma.json has no sigma atom, which skips the testing constants
# and the coronas.
PAIR_FILES = {"pair.json": """{
 "sigma": {"dim": 1, "resolution": 3, "atoms": [
  {"num": [0], "mass": "0.5"}, {"num": [3], "mass": "0.25"},
  {"num": [5], "mass": "1.5"}, {"num": [6], "mass": "0.125"}]},
 "omega": {"dim": 1, "resolution": 4, "atoms": [
  {"num": [1], "mass": "0.75"}, {"num": [6], "mass": "2"},
  {"num": [7], "mass": "0.3"}, {"num": [11], "mass": "1.25"},
  {"num": [14], "mass": "0.6"}]}
}
""", "empty_sigma.json": """{
 "sigma": {"dim": 1, "resolution": 3, "atoms": []},
 "omega": {"dim": 1, "resolution": 3, "atoms": [
  {"num": [2], "mass": "0.5"}, {"num": [5], "mass": "1.5"}]}
}
"""}

CORPUS = {
    "d1_random_atomic_unit": (
        dict(dim=1, resolution=4, seed=0),
        "38aad6a58f810be7ebd22a5f2a801f0c065c7f3c4c561adf1bf3b8b1322ee23c"),
    "d1_common_atoms_random_family": (
        dict(dim=1, resolution=4, seed=1, generator="common_atoms",
             family_kind="random"),
        "1c88c169c49567fed4a170da364561429e1a2bc0604e6b01075d498c248d24eb"),
    "d1_doubling_like_alpha": (
        dict(dim=1, resolution=3, seed=2, alpha=0.5,
             generator="doubling_like"),
        "7ab2f690f77c2eaede06c271684b8ab1a3b65cf2feedaa2156a8c7549ad72fbb"),
    "d1_cantor_like": (
        dict(dim=1, resolution=4, seed=3, generator="cantor_like"),
        "c1030b002f8a095189eebf373dbf98e0a6c8f2abe45a5e3de5beba83f1d97696"),
    "d1_file_pair": (
        dict(dim=1, resolution=4, seed=4, generator="file",
             generator_params={"path": "pair.json"}),
        "e24970308cccffa41dca50b653df007e96751a53898977265a3b788c110958d4"),
    "d1_file_empty_sigma": (
        dict(dim=1, resolution=3, generator="file",
             generator_params={"path": "empty_sigma.json"}),
        "105923a98e1229fe5c43f8e8f2f15b4413c23b42e582b58725dc492d455ec09c"),
    # the half-space ratios reach about 1e-5 here, above the budget, so
    # both half-space checks fail (exit 2 from the CLI)
    "d1_failing_halfspace_budget": (
        dict(dim=1, resolution=7, natoms=100, seed=1, budget_ratio=1e-6),
        "cabe7e2125256dc980d9ed4066a9519ef286c1b0562b3ccdf32c48088c03a225"),
    "d2_random_atomic_random_family": (
        dict(dim=2, resolution=3, seed=1, family_kind="random"),
        "d561d30dbc955eb505d7e00913c82e2407b0f67753787ab969b3f5779b843106"),
    "d2_common_atoms_alpha": (
        dict(dim=2, resolution=3, seed=3, alpha=0.5,
             generator="common_atoms"),
        "83a2c6b18635613943582c263a14b39c95ac94d74a47d563c81e3bc734450563"),
    "d2_doubling_like": (
        dict(dim=2, resolution=2, seed=1, generator="doubling_like"),
        "95ba8cdf96093e404201339db5585ec691fdf874c2ead5abeb0eb674e56d5bc6"),
    # the verify_2d benchmark size: deep bodies and 85-piece subpartitions
    "d2_res4_hundred_atoms": (
        dict(dim=2, resolution=4, natoms=100, seed=1),
        "deac096702d183379e2c8475689ee9225fe6e4fab28947b5fe0b253ca0b8e8a1"),
    # omega has no atom in gg.cube(0, 0), the one root the gamma-grid
    # family had before it covered omega (the CLI exited 1 on both)
    "d2_res3_seed0_omega_off_the_first_root": (
        dict(dim=2, resolution=3, seed=0),
        "52a667b905c0dd096e87ba241ba1ec9e71ea52a0185cd57130358869ba130de8"),
    "d2_res3_seed2_omega_off_the_first_root": (
        dict(dim=2, resolution=3, seed=2),
        "c4de5b457c3c790aeb32309a6bc0a738f4323613009a6b309e925c6ce93f93f6"),
    "d1_global_family": (
        dict(dim=1, resolution=5, seed=2, family_kind="global"),
        "27bf002c454d19bdaa3dce8cac8098fafea9df3afc20a12b99b954c47e645ad1"),
}


def report_digest(kwargs: dict) -> tuple:
    report = verify_theorem(RunConfig(**kwargs))
    failed = sorted(c["name"] for c in report["checks"] if not c["pass"])
    text = format_report(report)
    return hashlib.sha256(text.encode()).hexdigest(), failed


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_report_matches_pin(name, tmp_path, monkeypatch):
    kwargs, pin = CORPUS[name]
    monkeypatch.chdir(tmp_path)
    for file_name, text in PAIR_FILES.items():
        (tmp_path / file_name).write_text(text)
    digest, _ = report_digest(kwargs)
    assert digest == pin


def test_corpus_holds_a_failing_check():
    kwargs, _ = CORPUS["d1_failing_halfspace_budget"]
    _, failed = report_digest(kwargs)
    assert failed == ["halfspace_backward_ratio", "halfspace_forward_ratio"]


# The scalars of SCALARS, in this order, as `_scalar_rows` names them.
SCALAR_KEYS = (
    "a2.calA2", "a2.calA2_star", "a2.classicalA2", "a2.punct",
    "a2.punct_star", "a2.energyA2", "a2.energyA2_star", "energy.strong",
    "energy.strong_star", "energy.whitney.hole", "energy.whitney.partial",
    "energy.whitney.plug", "testing.forward", "testing.dual", "testing.norm",
    "functional_energy.value", "halfspace.forward_lhs",
    "halfspace.backward_lhs", "coronas.cz.carleson",
    "coronas.energy.carleson",
)

SCALARS = {
    'd1_cantor_like': (
        5.317082867861422, 9.352481733434114, 16.0, 4.0, 4.0, 0.5, 0.5625,
        0.3472222222222222, 0.4775107628622582, 0.125, 0.125,
        0.3472222222222222, 4.0, 4.47213595499958, 4.932151527890254, 0.0, 0.0,
        0.0, 1.0, 1.0,),
    'd1_common_atoms_random_family': (
        292.5002232407124, 208.06589925570424, 394.81367752898825,
        143.6131349820697, 107.81872236817117, 18.612946736737072,
        17.20919473986965, 3.604837475960635, 3.597311186805964,
        0.8483905415444807, 1.5708164148823376, 3.2828577866091906,
        30.649481510371736, 26.922409155547342, 33.547405387764584, 0.0, 0.0,
        0.0, 1.076525160751515, 1.0,),
    'd1_doubling_like_alpha': (
        3.3520083661226567, 3.5184683394729794, 9.800396907472669,
        8.522251418224608, 8.453819323482124, 0.8073729553259561,
        0.7803099726248282, 0.6848616958899995, 0.6812468343882297,
        0.13731351992981877, 0.25931325450202347, 0.478799774221434,
        2.8754426440930914, 2.752052536614851, 3.581580944154507, 0.0, 0.0,
        0.0, 1.0, 1.0,),
    'd1_failing_halfspace_budget': (
        15433.226336605401, 15471.808880929371, 18835.690798706943,
        8048.150006208623, 8580.80488483814, 1079.2360007972181,
        1084.8416398731233, 30.73816400357446, 27.227334695076806,
        9.91286658122145, 15.71577906809991, 26.622456050613206,
        152.3468418218648, 164.3186751993377, 264.66228477779197,
        0.9712554171384484, 153.38932065169465, 0.0013463045332653854,
        1.1824956503610042, 1.0,),
    'd1_file_empty_sigma': (
        0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
        0.0, 0.0, 0.0, 0.0, 0.0, 0.0,),
    'd1_file_pair': (
        97.49526890203813, 258.4006746500253, 128.0, 120.0, 120.0,
        2.128961267605634, 1.1437499999999998, 0.9338214685962557,
        0.6622299943230263, 0.3706499244025652, 0.3706499244025652,
        0.542247111625975, 21.908902300206645, 21.908902300206645,
        24.218444766509283, 0.0, 0.0, 0.0, 1.0, 1.0,),
    'd1_global_family': (
        541.8690802623404, 374.3627699992176, 866.2654432444795,
        186.23871205416356, 128.53493526706586, 24.232773574164586,
        21.82688250431943, 4.237344123517963, 4.023326546453654,
        1.3978971900302548, 1.715311909634153, 3.494902800025213,
        28.29552502632216, 24.559385896481377, 38.74402955859747, 0.0, 0.0,
        0.0, 1.0, 1.0,),
    'd1_random_atomic_unit': (
        180.60215645510175, 200.02075068587556, 147.46362918698318,
        60.677945574679825, 42.34064953092558, 6.260259423974514,
        5.108811716513759, 2.327636384173025, 2.2357359714059593,
        0.490052549266797, 1.0139238191699038, 2.0812855759702984,
        16.050951618498456, 18.761465896835176, 26.024091891436697, 0.0, 0.0,
        0.0, 1.1312976032563868, 1.0,),
    'd2_common_atoms_alpha': (
        245.76567190425064, 203.3002228192039, 908.4823376156784,
        258.52902132524764, 324.82051225788064, 52.82380021178547,
        65.35746997556856, 3.5610597200397933, 3.520821449464489,
        0.645823702945827, 1.1695496981970794, 1.9397828109237765,
        25.502033292814296, 16.668401208600077, 28.231318423505993, 0.0, 0.0,
        0.0, 1.0536888762071601, 1.0,),
    'd2_doubling_like': (
        0.7177912614204163, 0.727041023270837, 1.4873833439089,
        1.1783877381707577, 1.1795311689035717, 0.1948260081402382,
        0.19828858406186084, 0.31831547464895554, 0.32119366031961366, 0.0,
        0.0, 0.0, 2.149193189102926, 2.148593206148305, 3.257505909335387, 0.0,
        0.0, 0.0, 1.0629520173697269, 1.0,),
    'd2_random_atomic_random_family': (
        488.61593436592767, 424.75132107402317, 949.6886119923872,
        491.8654466587377, 491.8654466587377, 30.619841749111067,
        35.72921642904301, 5.504923342041594, 3.6368976583841777,
        0.8558882429050381, 1.142496395970482, 2.7740557999233553,
        68.17602521962309, 78.27461029814246, 64.87907095453303, 0.0, 0.0, 0.0,
        1.1197873938776992, 1.0,),
    'd2_res3_seed0_omega_off_the_first_root': (
        181.1261896948492, 306.2425278403093, 1551.784364172418,
        219.62235772381987, 219.62235772381987, 20.329520508628832,
        22.76397206900225, 2.7629618252908155, 2.3379367123106487,
        0.505061604765856, 0.7188160772713535, 0.9022172399551426,
        35.42059942493053, 25.245698587539756, 41.68183928815937, 0.0, 0.0,
        0.0, 1.1258243882045544, 1.0,),
    'd2_res3_seed2_omega_off_the_first_root': (
        410.5461142955745, 892.6788789733544, 1782.4402733543961,
        379.1735906328778, 379.1735906328778, 47.3824793277211,
        36.07190520753443, 5.526123011330085, 3.781549406962584,
        0.7855815733009414, 1.8308563416873043, 1.8308563416873043,
        58.864775315785565, 58.864775315785565, 65.16862332744658, 0.0, 0.0,
        0.0, 1.0, 1.0,),
    'd2_res4_hundred_atoms': (
        23125.008334264967, 24609.602334445168, 75342.76319482777,
        18428.46338444287, 18142.01216834798, 3293.235445067713,
        3105.4860306685973, 31.06088198027053, 30.359886090472344,
        10.6198867165952, 16.416799029557616, 22.25711048187819,
        299.94912652831044, 254.5754426740741, 405.9949459799658, 0.0, 0.0,
        0.0, 1.1531726831480729, 1.0,),
}


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_report_scalars_match_the_table(name, tmp_path, monkeypatch):
    kwargs, _ = CORPUS[name]
    monkeypatch.chdir(tmp_path)
    for file_name, text in PAIR_FILES.items():
        (tmp_path / file_name).write_text(text)
    rows = dict(_scalar_rows(verify_theorem(RunConfig(**kwargs))))
    got = [float(rows.get(key, "0")) for key in SCALAR_KEYS]
    moved = [(key, g, w) for key, g, w in zip(SCALAR_KEYS, got,
                                               SCALARS[name])
             if not math.isclose(g, w, rel_tol=1e-12, abs_tol=0.0)]
    assert moved == []
