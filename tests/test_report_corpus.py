"""Frozen report corpus: SHA-256 pins of `format_report` for fixed configs.

A pin changes only together with a CHANGES.md entry that names the report
keys that moved, by how much, and why.  Every config stays far below the
kernel's SVD cutoff, so the digests do not depend on the BLAS thread
count (checked with OPENBLAS_NUM_THREADS=1 and 2).
"""

import hashlib

import pytest

from twoweight.harness import RunConfig, format_report, verify_theorem

# pair.json has sigma at resolution 3 and omega at resolution 4, masses
# as decimal strings: the file generator, the rescaling to a common
# lattice and the exact mass strings all enter the report.
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
        "bb67055ce60ed410f051f882c44a3cbc7d5588bd7f8635173f6987068eaf138c"),
    "d1_common_atoms_random_family": (
        dict(dim=1, resolution=4, seed=1, generator="common_atoms",
             family_kind="random"),
        "cfd91ccdcb83c393058cbd28d3efdba95b54e93bfb08883488fd257a7194a7f8"),
    "d1_doubling_like_alpha": (
        dict(dim=1, resolution=3, seed=2, alpha=0.5,
             generator="doubling_like"),
        "6337f92a1627fc698663e6dd0c5ca2c9629bc9c19d6b7306c06aefec8599ad3e"),
    "d1_cantor_like": (
        dict(dim=1, resolution=4, seed=3, generator="cantor_like"),
        "c1030b002f8a095189eebf373dbf98e0a6c8f2abe45a5e3de5beba83f1d97696"),
    "d1_file_pair": (
        dict(dim=1, resolution=4, seed=4, generator="file",
             generator_params={"path": "pair.json"}),
        "76c6b5ab5bdccc9cdcfe24c192398cb618294277a28ea37b9d0e6bedade36674"),
    "d1_file_empty_sigma": (
        dict(dim=1, resolution=3, generator="file",
             generator_params={"path": "empty_sigma.json"}),
        "105923a98e1229fe5c43f8e8f2f15b4413c23b42e582b58725dc492d455ec09c"),
    # the half-space ratios reach about 1e-5 here, above the budget, so
    # both half-space checks fail (exit 2 from the CLI)
    "d1_failing_halfspace_budget": (
        dict(dim=1, resolution=7, natoms=100, seed=1, budget_ratio=1e-6),
        "62693e1ec948c6bf409ef0016f48645e979b5433fa56e41114b59f218012dcf8"),
    "d2_random_atomic_random_family": (
        dict(dim=2, resolution=3, seed=1, family_kind="random"),
        "19dfb9b70a8333f75f2f57445c2a67358d4993fb64e7017a07da8680eb4f7f7a"),
    "d2_common_atoms_alpha": (
        dict(dim=2, resolution=3, seed=3, alpha=0.5,
             generator="common_atoms"),
        "6677fee11c08c04c00066671fa0619f9028d650243d5e41be659a402427eab9a"),
    "d2_doubling_like": (
        dict(dim=2, resolution=2, seed=1, generator="doubling_like"),
        "33a6c2112a580faeb24d52b5ff4df87aed1d813ec49698e563927f1406a09704"),
    # the verify_2d benchmark size: deep bodies and 85-piece subpartitions
    "d2_res4_hundred_atoms": (
        dict(dim=2, resolution=4, natoms=100, seed=1),
        "d972bb4d63ed13a6dcf82393e2f6b4a973cd801274c2799c226fdb1b32132208"),
    "d1_global_family": (
        dict(dim=1, resolution=5, seed=2, family_kind="global"),
        "47cb4d84f1213b839e32de126a6c57ba6233dbddeb044f0ae0db9931a7fcd167"),
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
