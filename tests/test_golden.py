"""Byte-identical CLI output: the fast entries of bench/golden.json, run through kakeya.cli.main.

The golden file holds SHA-256 values of construct output files and of
certify/bound stdout.  Every construct of the ladder is checked here:
the F_p rungs (q=5, 7, 11, 13 at n=3 and q=7 at n=4) byte-check the
padding, which counts a line's points by looking them up, and the real
rungs (ngon N=9, 11 at n=3) the bucketed point identity and the filtered
real incidence.  PINNED adds values kept here only: ngon N=6 at n=4 (its
file and its `verify --r 1` stdout), the one real rung whose lifting goes
two steps deep and whose lines, with pivots (0, 1) and (0, 4), share the
most first-column strips of the real incidence, ngon N=13 at n=3, conic
q=11 at n=4 (1,331 lines and 5,026 points, which byte-checks the JSON
writer and the exact padding at size), the stdout of `verify --r 1`, and
the stdout of certify on the three largest matrices (420x231 at conic
q=7 n=2 r=3, 530x220 at q=5 n=3 r=2 and 1350x560 at q=7 n=3 r=2, which
byte-check the packed F_p kernel and the constraint rows at size).
RATIONAL pins the lifted file of the conic seed read over Q (q=5 at
n=3, q=7 at n=4), as save_kakeya writes it for construct, which
byte-checks the closed-form lift and the record writer over Q.  FAILING
pins the stdout of `verify --r 1` on three files that fail, which
byte-checks the witnesses and the measured counts of the failure paths.
"""

import hashlib
import json
import os
import sys

import pytest

import kakeya
from kakeya.cli import main
from kakeya.construction import assemble, save_kakeya
from test_construction import _rational_seed

BENCH = os.path.join(os.path.dirname(__file__), os.pardir, "bench")
GOLDEN = os.path.join(BENCH, "golden.json")
CONSTRUCTS = {
    "construct conic q=5 n=2": ["--seed", "conic", "--q", "5", "--dim", "2"],
    "construct conic q=5 n=3": ["--seed", "conic", "--q", "5", "--dim", "3"],
    "construct conic q=7 n=2": ["--seed", "conic", "--q", "7", "--dim", "2"],
    "construct conic q=7 n=3": ["--seed", "conic", "--q", "7", "--dim", "3"],
    "construct conic q=7 n=4": ["--seed", "conic", "--q", "7", "--dim", "4"],
    "construct conic q=11 n=3": ["--seed", "conic", "--q", "11", "--dim", "3"],
    "construct conic q=11 n=4": ["--seed", "conic", "--q", "11", "--dim", "4"],
    "construct conic q=13 n=3": ["--seed", "conic", "--q", "13", "--dim", "3"],
    "construct ngon N=9 n=3": ["--seed", "ngon", "--N", "9", "--dim", "3"],
    "construct ngon N=11 n=3": ["--seed", "ngon", "--N", "11", "--dim", "3"],
    "construct ngon N=6 n=4": ["--seed", "ngon", "--N", "6", "--dim", "4"],
    "construct ngon N=13 n=3": ["--seed", "ngon", "--N", "13", "--dim", "3"],
}
PINNED = {
    "construct ngon N=6 n=4": "39be8a1b5c283c6fb93d8589726f522419075be2fbfc595b8b5cec372a054b9d",
    "verify r=1 conic q=7 n=4": "5286463d53968a8fb36dcc154fe55e5c560120c1588fbf7a237421fafd87f20e",
    "verify r=1 ngon N=6 n=4": "42951a6c0b386e6d6fc503b2c47212109bff4c210356389e4b5ed461c868aa00",
    "verify r=1 ngon N=9 n=3": "6a61fa4ac4ee72894d56bd06883ef447943430756b4c44e7c90bc7cd9c5ab67e",
    "construct ngon N=13 n=3": "6d619da8aa88e88020acbbfa3f439fecef9b46f9bf5cf1b32fe7c45c20578ee2",
    "verify r=1 ngon N=11 n=3": "3b5b774376d121d4a20ec675bf56e4a4a786160eae22f05202278d83cddd13fb",
    "verify r=1 ngon N=13 n=3": "5ce8534a9633a72f2e26b5ffea8ccde60338318b802bbeded3985b331de34d72",
    "certify conic q=7 n=2 r=3": "f4eb8a08866f7f81630d967cd64922da0d80d5ae9682b1500178d85f741fee8d",
    "certify conic q=5 n=3 r=2": "930f60363eaa9f0560ed84a2feb058428a04cee2f17e954959fd99031305295d",
    "construct conic q=11 n=4": "bdfaf8849ae15313e7243de5a7e05f48cec5765dba80dd32dc6af27ceb73f44e",
    "certify conic q=7 n=3 r=2": "088b110ae8899108db20debed08e64e4c3b087c7abec1c775aff2debb6e77cd1",
}
RATIONAL = {
    (5, 3): "5aad6065ec5efa8758de29dbd1abecbd1c8fb6079e5a16d2f985aa802d41a942",
    (7, 4): "3c95847609bbcd2684454e633592ac40b3251e381210e07309ce8f092fed2c07",
}
# the stdout of `verify --r 1` on files that fail: the bench's moved-point and duplicate-point
# controls (conic q=5 n=3, seed 1), and conic q=5 n=3 without its last (completion) line and
# its first padding point, outside the bound's hypothesis on both counts
FAILING = {
    "moved": "6910ac269b9e2c63c22ed5e9cbd15a40801d3c3978afcb82ebc699c0ef0a0810",
    "duplicate": "8ff169975451c1baad0fa46edce3eaa3cc2193d9a1f6205abbf1e37681a179b3",
    "outside the hypothesis": "866df00c365892a68c24aca588883fc6bfaec9cc34292e4752bbf15d7cce9c42",
}
CERTIFIES = [(5, 2, 1), (5, 2, 2), (5, 3, 1), (7, 2, 1), (7, 2, 2), (7, 2, 3), (5, 3, 2), (7, 3, 2)]
BOUNDS = [(7, 3), (13, 3), (7, 4), (16, 4)]


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return {**json.load(fh)["sha256"], **PINNED}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(CONSTRUCTS))
def test_construct_file_matches_golden(name, golden, tmp_path, capsys):
    out = tmp_path / "k.json"
    assert main(["construct", *CONSTRUCTS[name], "--out", str(out)]) == 0
    capsys.readouterr()
    assert _sha(out.read_bytes()) == golden[name]


@pytest.mark.parametrize("name", ["conic q=7 n=4", "ngon N=6 n=4", "ngon N=9 n=3", "ngon N=11 n=3", "ngon N=13 n=3"])
def test_verify_stdout_matches_golden(name, golden, tmp_path, capsys):
    path = tmp_path / "k.json"
    assert main(["construct", *CONSTRUCTS[f"construct {name}"], "--out", str(path)]) == 0
    capsys.readouterr()
    assert main(["verify", str(path), "--r", "1"]) == 0
    assert _sha(capsys.readouterr().out.encode()) == golden[f"verify r=1 {name}"]


def _failing_file(name, work) -> str:
    if name != "outside the hypothesis":
        sys.path.insert(0, BENCH)
        try:
            import workloads
        finally:
            sys.path.remove(BENCH)
        workloads._tamper(kakeya, str(work), 1)
        return str(work / f"{name}.json")
    path = work / "k.json"
    K = assemble(kakeya.dual_conic_seed(5), 3)
    del K.lines[-1]
    del K.points[next(i for i, kp in enumerate(K.points) if kp.provenance["kind"] == "padding")]
    save_kakeya(K, str(path))
    return str(path)


@pytest.mark.parametrize("name", sorted(FAILING))
def test_verify_stdout_of_a_failing_file_matches_pin(name, tmp_path, capsys):
    assert main(["verify", _failing_file(name, tmp_path), "--r", "1"]) == 1
    assert _sha(capsys.readouterr().out.encode()) == FAILING[name]


@pytest.mark.parametrize("q,n,r", CERTIFIES)
def test_certify_stdout_matches_golden(q, n, r, golden, tmp_path, capsys):
    path = tmp_path / "k.json"
    assert main(["construct", "--seed", "conic", "--q", str(q), "--dim", str(n), "--out", str(path)]) == 0
    capsys.readouterr()
    assert main(["certify", str(path), "--r", str(r)]) == 0
    assert _sha(capsys.readouterr().out.encode()) == golden[f"certify conic q={q} n={n} r={r}"]


@pytest.mark.parametrize("N,n", BOUNDS)
def test_bound_stdout_matches_golden(N, n, golden, capsys):
    assert main(["bound", "--N", str(N), "--dim", str(n), "--optimize"]) == 0
    assert _sha(capsys.readouterr().out.encode()) == golden[f"bound N={N} n={n} optimize"]


@pytest.mark.parametrize("q,n", sorted(RATIONAL))
def test_rational_lift_matches_pin(q, n, tmp_path):
    path = tmp_path / "k.json"
    save_kakeya(assemble(_rational_seed(q), n), str(path))
    assert _sha(path.read_bytes()) == RATIONAL[q, n]
