"""Mutated construction and seed files through the CLI: every outcome is an exit code, never a traceback.

The construction files are a conic lift over F_5 and over Q (the F_5 seed read as rationals) and a
regular 7-gon lift over the reals, all at n = 3; the seed file is the conic seed over F_5.

Each mutant makes one or two edits at a random place in a valid file: it
replaces a value, deletes or duplicates a list entry, drops a key, steps
an int by one or wraps a value in a list.  Whatever the file then holds,
`main` must return 0, 1 or 2; a refusal (2) prints one `error:` line and
nothing on stdout, and a verdict (0 or 1) prints JSON.  The random
stream is seeded, so every run makes the same mutants.

The real file is also perturbed numerically: one coordinate moves by
a small multiple of the tolerance, across the line where two values
stop counting as equal, or is rescaled by a power of ten.

The header of an F_p file is fuzzed apart from its records: every
combination of a few dimensions n (up to 1800), grid sizes N and primes,
with no lines or with one line through one point, goes through `verify`
and `certify`, where a large n makes big integers and deep tuples.
"""

import json
import math
import random
from collections import Counter
from itertools import product

import pytest

from kakeya.cli import main
from kakeya.construction import assemble, kakeya_to_json
from kakeya.seeds import dual_conic_seed, regular_ngon_seed, seed_from_json, seed_to_json

_VALUES = ['"x"', '"1/0"', '"nan"', '""', '"7"', '"-1"', "3", "null", "[]", "{}", "true"]  # as JSON text


def _edit(doc, rng: random.Random) -> str:
    """Make one edit in doc, at a slot reached by walking down from the root; describe it."""
    node, path = doc, []
    while True:
        key = rng.choice(list(node) if type(node) is dict else range(len(node)))
        path.append(key)
        child = node[key]
        if type(child) not in (dict, list) or not child or rng.random() < 0.3:
            break
        node = child
    kinds = ["replace", "wrap"] + (["delete", "duplicate"] if type(node) is list else ["drop"])
    if type(child) is int:
        kinds.append("step")
    kind = rng.choice(kinds)
    if kind == "replace":
        node[key] = json.loads(rng.choice(_VALUES))
    elif kind == "wrap":
        node[key] = [child]
    elif kind == "duplicate":
        node.insert(key, json.loads(json.dumps(child)))
    elif kind == "step":
        node[key] = child + rng.choice((-1, 1))
    else:  # delete a list entry or drop a key
        del node[key]
    return f"{kind} at {path}"


def _mutants(doc, count: int, rng: random.Random):
    text = json.dumps(doc)
    for _ in range(count):
        mutant = json.loads(text)
        edits = [_edit(mutant, rng) for _ in range(rng.randint(1, 2))]
        yield mutant, edits


def _outcome(capsys, argv, edits) -> int:
    code = main(argv)
    out, err = capsys.readouterr()
    assert code in (0, 1, 2), (argv[0], edits, code)
    if code == 2:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, (argv[0], edits, out, err)
    else:
        json.loads(out)
    return code


def _rational_conic(q: int):
    """The conic seed over F_q with its coordinates read as rationals."""
    doc = seed_to_json(dual_conic_seed(q))
    doc["field"] = {"kind": "rational"}
    return seed_from_json(doc)


_DOCS = {
    "construction": lambda: kakeya_to_json(assemble(dual_conic_seed(5), 3)),
    "seed": lambda: seed_to_json(dual_conic_seed(5)),
    "rational construction": lambda: kakeya_to_json(assemble(_rational_conic(5), 3)),
    "real construction": lambda: kakeya_to_json(assemble(regular_ngon_seed(7), 3)),
}


@pytest.mark.parametrize(
    "kind, count, commands",
    [
        ("construction", 300, [["verify", "{path}", "--r", "1"], ["certify", "{path}", "--r", "1"]]),
        ("seed", 200, [["seed-report", "{path}"], ["construct", "--seed", "file:{path}", "--dim", "3", "--out", "{out}"]]),
        ("rational construction", 100, [["verify", "{path}", "--r", "1"]]),
        ("real construction", 100, [["verify", "{path}", "--r", "1"]]),
    ],
)
def test_mutated_files_give_an_exit_code(tmp_path, capsys, kind, count, commands):
    doc = _DOCS[kind]()
    path, out = tmp_path / "mutant.json", tmp_path / "k.json"
    codes = Counter()
    for mutant, edits in _mutants(doc, count, random.Random(19)):
        path.write_text(json.dumps(mutant))
        for command in commands:
            argv = [a.format(path=path, out=out) for a in command]
            codes[argv[0], _outcome(capsys, argv, edits)] += 1
    # the mutants reach both the loaders' refusals and the verdicts behind them
    for command in commands:
        assert codes[command[0], 2] and codes[command[0], 0] + codes[command[0], 1], codes


def _coordinate_slots(doc) -> list:
    """(list, index) of every coordinate string of a construction document."""
    rows = list(doc["grid"])
    for line in doc["lines"]:
        rows += line["basis"] + [line["direction"]]
    rows += [point["coords"] for point in doc["points"]]
    return [(row, k) for row in rows for k in range(len(row))]


def test_real_coordinates_moved_around_tol_give_an_exit_code(tmp_path, capsys):
    doc = _DOCS["real construction"]()
    tol = doc["field"]["tol"]
    text, path = json.dumps(doc), tmp_path / "mutant.json"
    rng = random.Random(23)
    codes = Counter()
    for _ in range(120):
        mutant = json.loads(text)
        row, k = rng.choice(_coordinate_slots(mutant))
        x = float(row[k])
        if rng.random() < 0.6:
            shift = rng.choice((-1, 1)) * rng.choice((0.5, 1, 2, 10)) * tol
            y, edit = x + shift, f"{row[k]} moved by {shift}"
        else:
            e = rng.choice((-300, -12, -9, -1, 1, 9, 12, 300))
            y, edit = x * 10.0**e, f"{row[k]} scaled by 1e{e}"
        assert math.isfinite(y), edit
        row[k] = repr(y)
        path.write_text(json.dumps(mutant))
        for command in ("verify", "certify"):
            codes[command, _outcome(capsys, [command, str(path), "--r", "1"], [edit])] += 1
    # the moves reach both verdicts (half a tol can already break an incidence); certify refuses the reals
    assert codes["verify", 0] and codes["verify", 1] and codes["certify", 2] == 120, codes


def _header(p: int, n: int, N: int, line: bool) -> dict:
    """An F_p file of n - 1 grid axes 0, ..., N - 1; with line, its one line is the x_0 axis, through its one point, the origin."""
    doc = {"field": {"kind": "prime", "p": p}, "n": n, "N": N, "grid": [[str(i) for i in range(N)]] * (n - 1), "lines": [], "points": []}
    if line:
        unit = [["1" if i == k else "0" for i in range(n + 1)] for k in (0, n)]
        doc["lines"] = [{"basis": unit, "direction": unit[0]}]
        doc["points"] = [{"coords": unit[1], "provenance": {"kind": "padding", "line": 0, "lam": 0}}]
    return doc


def test_fuzzed_headers_give_an_exit_code(tmp_path, capsys):
    path = tmp_path / "header.json"
    codes = Counter()
    for n, N, p, line in product((1, 2, 3, 40, 1100, 1800), range(1, 5), (2, 3, 5), (False, True)):
        path.write_text(json.dumps(_header(p, n, N, line)))
        for command in (["verify"], ["verify", "--r", "1"], ["certify", "--r", "1"]):
            argv = [command[0], str(path), *command[1:]]
            codes[command[0], _outcome(capsys, argv, [f"p={p} n={n} N={N} line={line}"])] += 1
    # both commands reach a verdict and a refusal; verify refuses a leading term beyond the float range
    assert all(codes[command, 2] and codes[command, 0] + codes[command, 1] for command in ("verify", "certify")), codes
