import argparse
import ast
import hashlib
import json
import os
import random
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from decimal import Decimal
from http import HTTPStatus
from io import StringIO
from json.encoder import encode_basestring_ascii
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gf2hyper
from gf2hyper import (
    Gf2Matrix,
    Gf2Vector,
    NilpotentOperator,
    Subspace,
    classify,
    counterexample,
    format_matrix,
    format_subspace,
    parse_matrix,
    parse_subspace,
    ulm_form_condition,
    ulm_sequence,
    validate_nilpotent,
)
from gf2hyper.cli import (
    AnalysisDocument,
    LatticeCensusDocument,
    _COMMANDS,
    _dest,
    _dumps,
    _members,
    _node_digest,
    _parse_args,
    build_analysis,
    build_parser,
    main,
)
from gf2hyper.classify import MOVED_BY_F, MOVED_BY_UNIT, _hyperinvariant_lattice, _stable_lattice
from gf2hyper.commutant import automorphism_group_order
from gf2hyper.errors import ParseError
from gf2hyper.gf2 import SUBSPACE_ENUM_CAP
from gf2hyper import shoda, verify
from gf2hyper.verify import census, jordan_operator, partitions

from gf2hyper.nilpotent import jordan_matrix

from conftest import (
    PACKED_ROWS,
    contains_subspace,
    covering_edges_by_triple_scan,
    cyclic_subspace,
    first_exit_by_matrices,
    json_tree,
    random_invertible,
)

GOLDEN = "4 4\n0 0 0 0\n0 0 0 0\n0 1 0 0\n0 0 1 0\n"
GOLDEN_X = "2 4\n1 0 1 0\n0 0 0 1\n"


@pytest.fixture
def golden_file(tmp_path):
    p = tmp_path / "golden.txt"
    p.write_text(GOLDEN)
    return str(p)


@pytest.fixture
def x_file(tmp_path):
    p = tmp_path / "x.txt"
    p.write_text(GOLDEN_X)
    return str(p)


def test_analyze_human(golden_file, capsys):
    assert main(["analyze", golden_file]) == 0
    out = capsys.readouterr().out
    assert "elementary divisors: 1 3" in out
    assert "ulm sequence: 1 0 1" in out
    assert "commutant dimension: 6" in out
    assert "automorphisms: 16 (group-order formula)" in out
    assert "EXIST (block sizes 1 < 3)" in out


def test_analyze_json_fields(golden_file, capsys):
    assert main(["analyze", golden_file, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["elementary_divisors"] == [1, 3]
    assert doc["ulm_sequence"] == [1, 0, 1]
    assert doc["commutant_dimension"] == 6
    assert doc["automorphism_count"] == 16
    assert doc["shoda_holds"] is True
    assert doc["shoda_witness"]["a_rho"] == 1
    assert doc["shoda_witness"]["a_tau"] == 3
    assert doc["shoda_witness"]["z"] == [1, 0, 1, 0]


def test_analyze_zero_operator(tmp_path, capsys):
    p = tmp_path / "zero.txt"
    p.write_text("2 2\n0 0\n0 0\n")
    assert main(["analyze", str(p), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["elementary_divisors"] == [1, 1]
    assert doc["shoda_holds"] is False
    assert doc["shoda_witness"] is None


def test_analyze_census_counts(golden_file, capsys):
    assert main(["analyze", golden_file, "--census", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    census = doc["lattice_census"]
    assert census["hyperinvariant"] == 6
    assert census["characteristic"] == census["hyperinvariant"] + census[
        "characteristic_not_hyperinvariant"
    ]
    assert census["characteristic_not_hyperinvariant"] >= 1


def test_analyze_census_matches_verify_census(conjugate):
    rng = random.Random(31)
    for n in range(1, 6):
        for sizes in partitions(n):
            data = census(sizes)
            char = len(data.characteristic)
            hyper = len(data.hyperinvariant)
            expected = LatticeCensusDocument(len(data.invariant), char, hyper, char - hyper)
            for f in (jordan_operator(sizes), conjugate(sizes, rng)):
                assert build_analysis(f, census=True).lattice_census == expected, sizes


def test_analyze_census_counts_without_holding_the_subspaces():
    # (1^7) has 29,212 invariant subspaces; they are counted as they are lifted
    f = jordan_operator((1,) * 7)
    tracemalloc.start()
    try:
        doc = build_analysis(f, census=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert doc.lattice_census.invariant == 29212
    assert peak < 1 << 20


def test_analyze_exit_codes(tmp_path, capsys):
    ident = tmp_path / "ident.txt"
    ident.write_text("2 2\n1 0\n0 1\n")
    assert main(["analyze", str(ident)]) == 3
    bad = tmp_path / "bad.txt"
    bad.write_text("2 2\n0 0\n")
    assert main(["analyze", str(bad)]) == 2
    assert main(["analyze", str(tmp_path / "missing.txt")]) == 2
    rect = tmp_path / "rect.txt"
    rect.write_text("1 2\n0 0\n")
    assert main(["analyze", str(rect)]) == 3


def test_non_utf8_file_exits_2(golden_file, tmp_path, capsys):
    p = tmp_path / "binary.txt"
    p.write_bytes(b"\xff\xfe\x00")
    # not UTF-8: an error line and exit 2, no traceback
    assert main(["analyze", str(p)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert main(["classify", golden_file, str(p)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_analysis_document_roundtrip(conjugate):
    rng = random.Random(41)
    witnesses = set()
    for n in range(1, 7):
        for sizes in partitions(n):
            for f in (jordan_operator(sizes), conjugate(sizes, rng)):
                for census in (False, True):
                    doc = build_analysis(f, census=census)
                    assert AnalysisDocument.from_json(doc.to_json()) == doc, sizes
                    witnesses.add(doc.shoda_witness is None)
    assert witnesses == {False, True}


DROP = object()
# (path, value): the analysis document of (1,3) with the value at the path
# replaced, added, or dropped
MALFORMED_DOCUMENTS = {
    "missing-key": (("ulm_sequence",), DROP),
    "extra-key": (("comment",), "x"),
    "extra-census-key": (("lattice_census", "extra"), 0),
    "empty-census": (("lattice_census",), {}),
    "empty-witness": (("shoda_witness",), {}),
    "bool-for-int": (("nilpotency_index",), True),
    "string-for-int": (("elementary_divisors", 0), "1"),
    "matrix-coordinate-2": (("matrix", "rows", 0, 0), 2),
    "vector-coordinate-2": (("shoda_witness", "z", 1), 2),
    "float-coordinate": (("shoda_witness", "y_span", "basis", 0, 0), 1.0),
    "basis-row-of-the-wrong-length": (("shoda_witness", "y_span", "basis", 0), [1, 0, 1]),
    "zero-width-vector": (("shoda_witness", "z"), []),
    "matrix-not-an-object": (("matrix",), [1]),
    "missing-n_cols": (("matrix", "n_cols"), DROP),
    "int-for-list": (("ulm_sequence",), 1),
}


@pytest.mark.parametrize("path, value", MALFORMED_DOCUMENTS.values(), ids=MALFORMED_DOCUMENTS)
def test_analysis_document_rejects_what_analyze_did_not_write(path, value):
    obj = json.loads(build_analysis(jordan_operator((1, 3)), census=True).to_json())
    *head, last = path
    target = obj
    for key in head:
        target = target[key]
    if value is DROP:
        del target[last]
    else:
        target[last] = value
    with pytest.raises(ParseError):
        AnalysisDocument.from_obj(obj)
    with pytest.raises(ParseError):
        AnalysisDocument.from_json(json.dumps(obj))


@pytest.mark.parametrize("text", ["", "{", '{"matrix": ', "[]", "null", "3"])
def test_analysis_document_rejects_text_that_is_no_document(text):
    with pytest.raises(ParseError):
        AnalysisDocument.from_json(text)


@pytest.mark.parametrize("rows", [[[0, 1]], [[0, 1, 0, 0, 1, 1]], [[0, 1, 0, 0, 1], [1]]])
def test_analysis_document_rejects_rows_of_the_wrong_length(rows):
    obj = json.loads(build_analysis(jordan_operator((1, 3))).to_json())
    obj["matrix"] = {"n_rows": len(rows), "n_cols": 5, "rows": rows}
    with pytest.raises(ParseError):
        AnalysisDocument.from_obj(obj)


def test_classify_command(golden_file, x_file, capsys):
    assert main(["classify", golden_file, x_file]) == 0
    out = capsys.readouterr().out
    assert "invariant=true marked=false characteristic=true hyperinvariant=false" in out
    assert "hyperinvariance witness" in out


def test_classify_json(golden_file, x_file, capsys):
    assert main(["classify", golden_file, x_file, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["invariant"] and doc["characteristic"]
    assert not doc["marked"] and not doc["hyperinvariant"]
    assert doc["characteristic_complete"] is True
    witness = doc["hyperinvariance_witness"]
    assert witness["matrix"]["rows"][0] == [1, 0, 0, 0]
    assert witness["vector"] == [1, 0, 1, 0]


def test_classify_kernel_all_true(golden_file, tmp_path, capsys):
    kernel = tmp_path / "kernel.txt"
    kernel.write_text("2 4\n1 0 0 0\n0 0 0 1\n")
    assert main(["classify", golden_file, str(kernel)]) == 0
    out = capsys.readouterr().out
    assert "invariant=true marked=true characteristic=true hyperinvariant=true" in out


def test_classify_non_invariant(golden_file, tmp_path, capsys):
    s = tmp_path / "e2.txt"
    s.write_text("1 4\n0 1 0 0\n")
    assert main(["classify", golden_file, str(s)]) == 0
    out = capsys.readouterr().out
    assert "invariant=false" in out


def test_classify_zero_subspace_file(golden_file, tmp_path, capsys):
    p = tmp_path / "zero.txt"
    p.write_text("0 4\n")
    assert main(["classify", golden_file, str(p)]) == 0
    out = capsys.readouterr().out
    assert out == "invariant=true marked=true characteristic=true hyperinvariant=true\n"


def test_huge_row_count_is_rejected_before_allocating(golden_file, tmp_path, capsys):
    p = tmp_path / "huge.txt"
    p.write_text("99999999999 4\n1 0 0 0\n")
    tracemalloc.start()
    try:
        code = main(["classify", golden_file, str(p)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    assert "expected 99999999999 rows, found 1" in capsys.readouterr().err
    assert peak < 1 << 20


@pytest.mark.parametrize(
    "text",
    ["1 4\n1 0 0 0 junk\n", "1 4 # c\n1 0 0 0\n"],
    ids=["stray-token", "header-comment"],
)
def test_malformed_subspace_file_exits_2(golden_file, tmp_path, text, capsys):
    p = tmp_path / "bad.txt"
    p.write_text(text)
    assert main(["classify", golden_file, str(p)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_classify_dimension_mismatch(golden_file, tmp_path, capsys):
    s = tmp_path / "wrong.txt"
    s.write_text("1 3\n1 0 0\n")
    assert main(["classify", golden_file, str(s)]) == 4


def test_counterexample_golden(golden_file, capsys):
    assert main(["counterexample", golden_file]) == 0
    out = capsys.readouterr().out
    data_lines = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert data_lines[0] == "2 4"
    span = parse_subspace("\n".join(data_lines))
    assert span == parse_subspace(GOLDEN_X)
    assert "# block sizes: r=1 s=3" in out


def test_counterexample_none(tmp_path, capsys):
    p = tmp_path / "n4.txt"
    p.write_text("4 4\n0 0 0 0\n1 0 0 0\n0 1 0 0\n0 0 1 0\n")
    assert main(["counterexample", str(p)]) == 0
    assert capsys.readouterr().out.strip() == "NONE"


def test_counterexample_output_classifies_back(tmp_path, capsys):
    # one block of size 1 and one of size 4
    p = tmp_path / "op.txt"
    p.write_text("5 5\n0 0 0 0 0\n0 0 0 0 0\n0 1 0 0 0\n0 0 1 0 0\n0 0 0 1 0\n")
    assert main(["counterexample", str(p)]) == 0
    out = capsys.readouterr().out
    span_file = tmp_path / "span.txt"
    span_file.write_text(out)
    assert main(["classify", str(p), str(span_file)]) == 0
    verdict = capsys.readouterr().out
    assert "characteristic=true hyperinvariant=false" in verdict


@pytest.mark.parametrize("sizes", [(1, 3, 5, 7, 9), (4, 6, 8, 10)])
def test_classify_and_analyze_print_what_the_matrix_scan_gives(sizes, tmp_path, monkeypatch, capsys):
    # the shift-and-mask scan against the matrix scan, patched in, on seeded
    # conjugates: the same verdicts, witness maps and vectors, byte for byte
    rng = random.Random(sum(sizes))
    p = random_invertible(rng, sum(sizes))
    f = validate_nilpotent(p @ jordan_matrix(sizes) @ p.inverse())
    orbits = [cyclic_subspace(f, Gf2Vector(rng.getrandbits(f.dim), f.dim)) for _ in range(3)]
    subspaces = [
        counterexample(f)[0],  # moved by a projection only
        *orbits,  # moved by a unit
        orbits[0].sum(orbits[1]),
        f.kernel_chain[2],  # hyperinvariant
        Subspace.span_bits([rng.getrandbits(f.dim) for _ in range(3)], f.dim),  # moved by f
    ]
    matrix = tmp_path / "f.txt"
    matrix.write_text(format_matrix(f.mat))
    runs = [["analyze", str(matrix), "--json"]]
    for k, s in enumerate(subspaces):
        path = tmp_path / f"s{k}.txt"
        path.write_text(format_subspace(s))
        runs.append(["classify", str(matrix), str(path), "--json"])

    def stdout():
        outs = []
        for argv in runs:
            assert main(argv) == 0
            outs.append(capsys.readouterr().out)
        return outs

    shift_and_mask = stdout()
    for name in ("gf2hyper.classify", "gf2hyper.shoda"):
        monkeypatch.setattr(sys.modules[name], "_first_exit", first_exit_by_matrices)
    assert stdout() == shift_and_mask
    witnesses = [json.loads(out) for out in shift_and_mask[1:]]
    kinds = {
        (w["invariant"], w["characteristic"], w["hyperinvariant"]) for w in witnesses
    }
    assert {(False, False, False), (True, False, False), (True, True, False), (True, True, True)} <= kinds


def test_lattice_json(golden_file, capsys):
    assert main(["lattice", golden_file, "--which", "hinv", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["nodes"]) == 6
    dims = sorted(node["dim"] for node in doc["nodes"])
    assert dims == [0, 1, 2, 2, 3, 4]
    assert len(doc["edges"]) == 6  # chain with one diamond


def test_lattice_edges_are_covering_only(golden_file, capsys):
    assert main(["lattice", golden_file, "--which", "chinv", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    nodes = [parse_subspace(_subspace_text(n)) for n in doc["nodes"]]
    edges = {tuple(e) for e in doc["edges"]}
    x = parse_subspace(GOLDEN_X)
    assert x in nodes
    for i, j in edges:
        assert contains_subspace(nodes[j], nodes[i]) and nodes[i] != nodes[j]
        for k in range(len(nodes)):
            if k in (i, j):
                continue
            strictly_between = (
                contains_subspace(nodes[k], nodes[i])
                and contains_subspace(nodes[j], nodes[k])
                and nodes[k] != nodes[i]
                and nodes[k] != nodes[j]
            )
            assert not strictly_between
    # the published example covers the one-dimensional image of f^2
    e4_line = min((n for n in nodes if n.dim == 1), key=lambda s: s.rows)
    assert (nodes.index(e4_line), nodes.index(x)) in edges


def test_covering_edges_match_the_triple_scan(conjugate):
    # the cover walk for inv and chinv, the shift-tuple rule for hinv
    rng = random.Random(37)
    for n in range(1, 8):
        for sizes in partitions(n):
            for f in (jordan_operator(sizes), conjugate(sizes, rng)):
                lattices = {"hinv": _hyperinvariant_lattice(f)}
                if n <= 5:
                    lattices["inv"] = _stable_lattice(f, MOVED_BY_F)
                    lattices["chinv"] = _stable_lattice(f, MOVED_BY_UNIT)
                for which, (nodes, edges) in lattices.items():
                    assert list(edges) == covering_edges_by_triple_scan(nodes), (sizes, which)


def _subspace_text(node):
    rows = node["basis"]
    lines = [f"{len(rows)} {node['ambient_dim']}"]
    lines += [" ".join(map(str, r)) for r in rows]
    return "\n".join(lines)


def test_lattice_dot_output(golden_file, capsys):
    assert main(["lattice", golden_file, "--which", "hinv", "--dot"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph lattice {")
    assert out.rstrip().endswith("}")
    assert out.count("->") == 6
    assert out.count("label=") == 6


# sha256 of the stdout of each JSON command, taken before the JSON codec was
# rewritten field by field: the layout of every document is part of the CLI
# contract, so a change to it must show here.  The two conjugate documents with
# a linking vector z were re-taken when the generator tuple became the lifted
# Jordan basis, which moved z and nothing else
PINNED_JSON_STDOUT = {
    "analyze golden.txt --census --json": "fb0a51eb94152b72650347db34ccabf20f8494da6ef456321ba98a7ac81c4c3a",
    "counterexample golden.txt --json": "46a70f497f3cba8a20e99bdcf7bb9489ee81a428b087d8f9b3dcbb467c70a861",
    "classify golden.txt golden.y.txt --json": "8a9089b8926c2ca8dd6c38b80cd83d81abac6bff454db5f02ed162eb728f5ad4",
    "classify golden.txt golden.line.txt --json": "b8ebec2a02c30f54ea720adb0f06dc062e76c351c6ed7f2104873019f665b6f8",
    "lattice golden.txt --which hinv --json": "4c983e54a55e5db4ad820aa7b61bc241ef4f1023eb50155b9720470d69e0a6ce",
    "lattice golden.txt --which chinv --json": "650a091d2953383751c7c18e05d16a8773918812a78aebfca7ca2d01a3a486f5",
    "lattice golden.txt --which inv --json": "6f7cba226a40f16267e0b1e51dd459803dee925246561dab82f88c9009584db8",
    "analyze conjugate-1-2-4.txt --census --json": "b672a3c736064bb44011aba46048e6baed846bf8a382920c9c6d5c815afdd7df",
    "counterexample conjugate-1-2-4.txt --json": "9ec75bff176b16387b3630242f5d668966991c50bbf6f790dc22c96e60e41ff1",
    "classify conjugate-1-2-4.txt conjugate-1-2-4.y.txt --json": "e54c5cdac7239fc13eb4241fb56b00e23d4c468e99932e46cf3c7f2411c7d2e9",
    "classify conjugate-1-2-4.txt conjugate-1-2-4.line.txt --json": "d43711e44aca58fba698139337d8d76af3d70e6e35395f7aa8bfb331b523e80e",
    "lattice conjugate-1-2-4.txt --which hinv --json": "383201860fff21fc49c6e36842985d37cfe85320caf31c48c4dba4ad20d9c702",
    "lattice conjugate-1-2-4.txt --which chinv --json": "7e0b9f7a7bace5a9853b46cefe70917d0e0ee3f04b3163ca26dc85fa64223cb3",
    "lattice conjugate-1-2-4.txt --which inv --json": "7492567af3cd7d2edefd1f389db656911160d4eb827dafb88f57b6acaf2bf041",
}


def _stdout_of_every_command_but_verify(tmp_path, capsys):
    """A function giving the stdout of every command but verify, on the golden
    operator and a seeded conjugate of (1,2,4), each asserted to exit 0."""
    p = random_invertible(random.Random(15), 7)
    operators = {"golden": parse_matrix(GOLDEN), "conjugate": p @ jordan_matrix([1, 2, 4]) @ p.inverse()}
    argvs = []
    for name, m in operators.items():
        path = tmp_path / f"{name}.txt"
        path.write_text(format_matrix(m))
        y = tmp_path / f"{name}.y.txt"
        y.write_text(format_subspace(counterexample(validate_nilpotent(m))[0]))
        line = tmp_path / f"{name}.line.txt"
        line.write_text(format_subspace(Subspace.span_bits([2], m.n_cols)))
        argvs += [["analyze", path], ["analyze", path, "--json"], ["counterexample", path]]
        argvs += [["analyze", path, "--census", "--json"]]
        argvs += [["classify", path, s, *json] for s in (y, line) for json in ([], ["--json"])]
        argvs += [["lattice", path, "--which", which] for which in ("hinv", "inv", "chinv")]

    def stdout():
        outs = []
        for argv in argvs:
            assert main(list(map(str, argv))) == 0, argv
            outs.append(capsys.readouterr().out)
        return outs

    return stdout


def test_no_command_but_verify_builds_the_kernel_chain(tmp_path, monkeypatch, capsys):
    # the block structure is read off the generator tuple: with Ker f^j unreadable,
    # every command but verify still exits 0 with the stdout it gives unpatched
    stdout = _stdout_of_every_command_but_verify(tmp_path, capsys)
    unpatched = stdout()

    def unreadable(f):
        raise AssertionError("the kernel chain was built outside verify")

    monkeypatch.setattr(NilpotentOperator, "kernel_chain", property(unreadable))
    assert stdout() == unpatched
    with pytest.raises(AssertionError, match="outside verify"):
        validate_nilpotent(parse_matrix(GOLDEN)).kernel_chain


def test_no_command_but_verify_builds_the_image_chain(tmp_path, monkeypatch, capsys):
    # the walk's echelon levels answer lifts, heights and level sizes: with the
    # canonical Im f^j unreadable, every command but verify gives the same stdout
    stdout = _stdout_of_every_command_but_verify(tmp_path, capsys)
    unpatched = stdout()

    def unreadable(f):
        raise AssertionError("the image chain was built outside verify")

    monkeypatch.setattr(NilpotentOperator, "image_chain", property(unreadable))
    assert stdout() == unpatched
    with pytest.raises(AssertionError, match="outside verify"):
        validate_nilpotent(parse_matrix(GOLDEN)).image_chain


def test_lattice_hinv_refuses_more_nodes_than_the_cap(tmp_path, monkeypatch, capsys):
    # Jordan (1,2,...,25) has 2^25 monotone shift tuples, one node each: counted,
    # refused with exit 5 and one error line, and no node built
    def unbuilt(f):
        raise AssertionError("the hyperinvariant lattice was built")

    monkeypatch.setattr(sys.modules["gf2hyper.classify"], "_hyperinvariant_lattice", unbuilt)
    monkeypatch.setattr(sys.modules["gf2hyper.cli"], "_hyperinvariant_lattice", unbuilt)
    path = tmp_path / "f.txt"
    path.write_text(format_matrix(jordan_matrix(range(1, 26))))
    for argv in ([], ["--json"], ["--dot"]):
        assert main(["lattice", str(path), "--which", "hinv", *argv]) == 5
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: the hyperinvariant lattice has {1 << 25} nodes, above the cap of {SUBSPACE_ENUM_CAP}\n"


def test_json_stdout_is_pinned(tmp_path, capsys):
    p = random_invertible(random.Random(15), 7)
    operators = {
        "golden": GOLDEN,
        "conjugate-1-2-4": format_matrix(p @ jordan_matrix([1, 2, 4]) @ p.inverse()),
    }
    digests = {}
    for name, text in operators.items():
        m = tmp_path / f"{name}.txt"
        m.write_text(text)
        assert main(["counterexample", str(m)]) == 0
        y = tmp_path / f"{name}.y.txt"
        y.write_text(capsys.readouterr().out)
        n = int(text.split()[0])
        line = tmp_path / f"{name}.line.txt"
        line.write_text(f"1 {n}\n0 1" + " 0" * (n - 2))
        argvs = [
            ["analyze", m, "--census", "--json"],
            ["counterexample", m, "--json"],
            ["classify", m, y, "--json"],
            ["classify", m, line, "--json"],
        ] + [["lattice", m, "--which", which, "--json"] for which in ("hinv", "chinv", "inv")]
        for argv in argvs:
            assert main(list(map(str, argv))) == 0
            key = " ".join(str(a).replace(str(tmp_path) + "/", "") for a in argv)
            digests[key] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digests == PINNED_JSON_STDOUT


# sha256 of `lattice --which hinv --json` on seeded conjugates of two shapes of
# the lattice benchmark workload, taken while every row was still formatted
# afresh: each node's basis repeats rows of the nodes it covers
PINNED_LATTICE_STDOUT = {
    (2, 4, 6, 8): "f43351a3b32ab8eba4505ec608155342b37c9d320dffde683174d1494bde300f",
    (1, 3, 5, 7): "06d0523d19268df2ba35228db6db6ac7aab7e996ff0164be6f1bb6f0bcc4d9fb",
}


def test_lattice_json_stdout_is_pinned_at_benchmark_sizes(conjugate, tmp_path, capsys):
    rng = random.Random(33)
    m = tmp_path / "f.txt"
    for sizes, digest in PINNED_LATTICE_STDOUT.items():
        m.write_text(format_matrix(conjugate(sizes, rng).mat))
        assert main(["lattice", str(m), "--which", "hinv", "--json"]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest, sizes


# sha256 of `analyze --json` and `classify --json` on seeded conjugates of the two
# `large` shapes with the most image levels, index 16 and 13, each classifying the
# sum of the f-orbits of two random vectors; taken while every level of the image
# walk was still reduced to RREF
PINNED_LARGE_STDOUT = {
    ((1, 2, 4, 8, 16), "analyze"): "940eada2764cd2cebca16cec6ea66b8eae512df2c719e758e485af259d95a02e",
    ((1, 2, 4, 8, 16), "classify"): "23cd23fca25b7b36a3289a12d2540af4163281add4fa0a2976e372067e580a98",
    ((1, 1, 2, 3, 5, 8, 13), "analyze"): "eb86575138db230c78be537004295c548c973eb2bf4f0dc6e57613eda1b27913",
    ((1, 1, 2, 3, 5, 8, 13), "classify"): "3f3e7cf286cf8c9943a870b4100cf7959afdfacec7d921e1a91a74ae3ba5dba5",
}


def test_analyze_and_classify_json_stdout_is_pinned_at_large_sizes(conjugate, tmp_path, capsys):
    rng = random.Random(36)
    digests = {}
    for sizes in dict.fromkeys(sizes for sizes, _ in PINNED_LARGE_STDOUT):
        f = conjugate(sizes, rng)
        orbits = Subspace.zero(f.dim)
        for _ in range(2):
            orbits = orbits.sum(cyclic_subspace(f, Gf2Vector(rng.getrandbits(f.dim), f.dim)))
        m, s = tmp_path / "f.txt", tmp_path / "s.txt"
        m.write_text(format_matrix(f.mat))
        s.write_text(format_subspace(orbits))
        for command, argv in (("analyze", [m]), ("classify", [m, s])):
            assert main([command, *map(str, argv), "--json"]) == 0
            digests[sizes, command] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digests == PINNED_LARGE_STDOUT


JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(-(2**512), 2**512)
    | st.floats()
    | st.text()
)
# lists of ints with a bool or a null among them keep the stdlib's form
INT_LISTS = st.lists(st.integers(0, 1)) | st.lists(st.integers() | st.booleans() | st.none())
JSON_TREES = st.recursive(
    JSON_SCALARS | INT_LISTS,
    lambda children: st.lists(children) | st.lists(children).map(tuple)
    | st.dictionaries(st.text(), children),
    max_leaves=30,
)


@given(JSON_TREES)
@example({})
@example([])
@example({"a": {}, "b": [], "c": [[], {}]})
@example([[[]], [{}]])
@example([True, 1])
@example([1, None, 0])
@example([-7, 2**200, -(10**4000)])
@example({"é\n\"\\\u2028\x00": ["ключ\t", "\ud83d\ude00"]})
# exact ints and strs are written before the stdlib path: the value mix of the
# classify document, and an IntEnum member, which is an int but no exact one
@example({"ok": True, "witness": None, "dim": 0, "z": -(2**70), "t": 0.5, "s": "é\"\u2028"})
@example(HTTPStatus.OK)
@settings(max_examples=200, deadline=None)
def test_dumps_writes_what_the_stdlib_writes(obj):
    assert _dumps(obj) == json.dumps(obj, indent=2)


@given(st.text(st.characters(exclude_categories=())))
@example('"')
@example("\\")
@example("\x00\x1f\x7f\n\t")
@example("é\u2028ключ\U0001f600")
@example("\ud800")
@example("a\udfffb")
@settings(max_examples=300, deadline=None)
def test_dumps_key_encoder_is_what_json_dumps_calls(key):
    # _dumps writes each dict key with this encoder; json.dumps(key) is the oracle
    assert encode_basestring_ascii(key) == json.dumps(key)


@given(PACKED_ROWS)
@example((1, []))
@example((1, [1, 0]))
@example((64, [(1 << 64) - 1]))
@example((65, []))
@example((130, [1 << 129, 1, 0]))
@settings(max_examples=200, deadline=None)
def test_dumps_writes_packed_values_as_the_coordinate_oracle(case):
    width, rows = case
    m = Gf2Matrix(tuple(rows), width)
    s = Subspace.span_bits(rows, width)
    values = [m, s, {"s": s, "pair": (m, [s])}, *(Gf2Vector(r, width) for r in rows)]
    for value in values:
        assert _dumps(value) == json.dumps(json_tree(value), indent=2)


@given(st.integers(1, 70), st.integers(1, 70), st.data())
@settings(max_examples=100, deadline=None)
def test_dumps_keys_each_row_text_by_width_and_depth(width, extra, data):
    # one row int at two widths and at two depths, in one document written twice
    # in a row: a row's text may be copied only at the width and depth it was
    # written at, and each call starts its own memo
    row = data.draw(st.integers(0, (1 << width) - 1))
    narrow, wide = Gf2Matrix((row, row), width), Gf2Matrix((row,), width + extra)
    doc = {"narrow": narrow, "wide": wide, "deeper": [{"wide": wide, "narrow": narrow}], "again": narrow}
    expected = json.dumps(json_tree(doc), indent=2)
    assert _dumps(doc) == expected
    assert _dumps(doc) == expected


@given(st.sampled_from([sizes for n in range(1, 8) for sizes in partitions(n)]), st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_dumps_writes_documents_as_the_coordinate_oracle(sizes, seed):
    # the analysis document and the classify, counterexample and lattice
    # objects of a seeded conjugate, as the --json commands build them
    rng = random.Random(seed)
    n = sum(sizes)
    p = random_invertible(rng, n)
    f = validate_nilpotent(p @ jordan_matrix(sizes) @ p.inverse())
    found = counterexample(f)
    if found and rng.random() < 0.5:
        s = found[0]
    else:
        s = Subspace.span_bits([rng.getrandbits(n) for _ in range(rng.randrange(n + 1))], n)
    report = classify(f, s)
    verdicts = ("invariant", "marked", "characteristic", "hyperinvariant")
    witnesses = ("invariance_witness", "characteristic_witness", "hyperinvariance_witness")
    nodes, edges = _hyperinvariant_lattice(f)

    def lattice(members):
        rows = [{"id": _node_digest(x), "dim": x.dim, **members(x)} for x in nodes]
        return {"which": "hinv", "nodes": rows, "edges": edges}

    documents = [
        build_analysis(f, census=n <= 5),
        {"counterexample": found[1] if found else None},
        {"subspace": s, **{k: getattr(report, k) for k in verdicts + witnesses}},
    ]
    for doc in documents:
        assert _dumps(doc) == json.dumps(json_tree(doc), indent=2), sizes
    assert _dumps(lattice(_members)) == json.dumps(lattice(json_tree), indent=2), sizes


# the shapes of the lattice benchmark workload (n up to 20), and a shape at n = 33
LATTICE_WORKLOAD_SHAPES = (
    (1, 2, 3, 4),
    (1, 3, 4, 6),
    (1, 2, 4, 7),
    (1, 3, 5, 7),
    (2, 3, 4, 5, 6),
    (2, 3, 5, 8),
    (2, 4, 6, 8),
)
LARGE_SHAPE = (1, 1, 2, 3, 5, 8, 13)


def test_json_stdout_is_the_stdlib_form_at_benchmark_sizes(conjugate, tmp_path, capsys):
    rng = random.Random(22)

    def write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    argvs = [
        ["lattice", write(f"{i}.txt", format_matrix(conjugate(sizes, rng).mat)), "--which", "hinv", "--json"]
        for i, sizes in enumerate(LATTICE_WORKLOAD_SHAPES)
    ]
    f = conjugate(LARGE_SHAPE, rng)
    big = write("big.txt", format_matrix(f.mat))
    rows = [rng.getrandbits(f.dim) for _ in range(3)]
    spans = [counterexample(f)[0], Subspace.span_bits(rows, f.dim)]
    argvs.append(["analyze", big, "--json"])
    argvs += [["classify", big, write(f"s{i}.txt", format_subspace(s)), "--json"] for i, s in enumerate(spans)]
    for argv in argvs:
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out == json.dumps(json.loads(out), indent=2) + "\n", argv


class _Pieces:
    """A stdout that keeps each piece written to it."""

    def __init__(self):
        self.pieces = []

    def write(self, text):
        self.pieces.append(text)
        return len(text)

    def flush(self):
        pass


def test_lattice_json_is_streamed_in_pieces_of_at_most_one_node(conjugate, tmp_path, monkeypatch):
    # the document is written as it is walked, so stdout never takes more than
    # one node's text at a time, and the pieces make the stdlib's form
    rng = random.Random(37)
    for sizes in LATTICE_WORKLOAD_SHAPES + ((1, 3, 5, 7, 9),):
        path = tmp_path / "f.txt"
        path.write_text(format_matrix(conjugate(sizes, rng).mat))
        out = _Pieces()
        monkeypatch.setattr(sys, "stdout", out)
        assert main(["lattice", str(path), "--which", "hinv", "--json"]) == 0
        monkeypatch.undo()
        text = "".join(out.pieces)
        assert text == json.dumps(json.loads(text), indent=2) + "\n", sizes
        nodes = json.loads(text)["nodes"]
        # a node's text as it stands in the document, two levels deep
        longest = max(len(json.dumps(node, indent=2).replace("\n", "\n    ")) for node in nodes)
        assert max(map(len, out.pieces)) <= longest, sizes
        assert len(out.pieces) > len(nodes), sizes


def test_analyze_writes_and_reads_a_unit_count_past_the_digit_limit(tmp_path, capsys):
    # |GL(120, 2)| has 4,335 decimal digits, more than the interpreter converts
    # between int and str by default; the text, the JSON and its round trip keep
    # every digit, and the limit itself is left as it is
    n = 120
    path = tmp_path / "zero.txt"
    path.write_text(format_matrix(Gf2Matrix.zeros(n, n)))
    order = automorphism_group_order(jordan_operator((1,) * n))
    digits = str(Decimal(order))
    assert len(digits) == 4335
    limit = sys.get_int_max_str_digits()
    assert main(["analyze", str(path)]) == 0
    out = capsys.readouterr().out
    assert f"\nautomorphisms: {digits} (group-order formula)\n" in out
    assert main(["analyze", str(path), "--json"]) == 0
    text = capsys.readouterr().out
    assert f'\n  "automorphism_count": {digits},\n' in text
    doc = AnalysisDocument.from_json(text)
    assert doc.automorphism_count == order
    assert doc.to_json() + "\n" == text
    assert sys.get_int_max_str_digits() == limit


def test_json_stdout_is_the_stdlib_indent_2_form(conjugate, tmp_path, capsys):
    # every Jordan shape with n <= 6 and a seeded conjugate of each, through
    # every --json command: stdout is what json.dumps(..., indent=2) writes
    rng = random.Random(18)
    empty = tmp_path / "empty.txt"
    for n in range(1, 7):
        empty.write_text(f"0 {n}\n")
        for sizes in partitions(n):
            for f in (jordan_operator(sizes), conjugate(sizes, rng)):
                m = tmp_path / "f.txt"
                m.write_text(format_matrix(f.mat))
                spans = [empty, tmp_path / "ker.txt"]
                spans[1].write_text(format_subspace(f.kernel_chain[1]))
                found = counterexample(f)
                if found:
                    spans.append(tmp_path / "y.txt")
                    spans[-1].write_text(format_subspace(found[0]))
                argvs = [
                    ["analyze", m, "--census", "--json"],
                    ["counterexample", m, "--json"],
                    *(["classify", m, s, "--json"] for s in spans),
                    *(["lattice", m, "--which", w, "--json"] for w in ("hinv", "chinv", "inv")),
                ]
                for argv in argvs:
                    assert main(list(map(str, argv))) == 0
                    out = capsys.readouterr().out
                    assert out == json.dumps(json.loads(out), indent=2) + "\n", (sizes, argv)


def test_no_json_dumps_call_under_src_takes_indent():
    src = Path(gf2hyper.__file__).parent
    calls = [
        node
        for path in src.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and ast.unparse(node.func) in ("json.dumps", "dumps")
    ]
    assert calls, "the scan must see the writer's own json.dumps calls"
    assert not [ast.unparse(c) for c in calls if any(k.arg == "indent" for k in c.keywords)]


def test_lattice_cap_exceeded(tmp_path, capsys):
    p = tmp_path / "big.txt"
    n = 10
    rows = ["0 " * n] * n
    p.write_text(f"{n} {n}\n" + "\n".join(r.strip() for r in rows) + "\n")
    for which in ("inv", "chinv"):
        assert main(["lattice", str(p), "--which", which]) == 5


@pytest.mark.parametrize("which", ["chinv", "inv"])
def test_lattice_refuses_dimension_ten_at_the_largest_cap(which, tmp_path, monkeypatch, capsys):
    # GF(2)^10 has more than 2^24 subspaces, so the cap refuses it before the
    # walk starts and before any subspace is lifted
    def refuse(*args, **kwargs):
        raise AssertionError("nothing may be built past the cap check")

    for name in ("invariant_subspaces", "_stable_lattice"):
        monkeypatch.setattr(f"gf2hyper.cli.{name}", refuse)
    p = tmp_path / "n10.txt"
    p.write_text(format_matrix(jordan_operator((10,)).mat))
    assert SUBSPACE_ENUM_CAP == 1 << 24
    assert main(["lattice", str(p), "--which", which]) == 5
    assert "229755605 subspaces" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv", [["lattice", "--which", "inv"], ["lattice", "--which", "chinv"], ["analyze", "--census"]]
)
def test_cap_refuses_a_large_space_without_counting_it(argv, tmp_path, monkeypatch, capsys):
    # GF(2)^300 has more subspaces than an int may have digits as text: the cap
    # is passed by a bound, and the exact count is never built
    def refuse(n):
        raise AssertionError("the subspace count was built")

    monkeypatch.setattr("gf2hyper.gf2.subspace_count", refuse)
    p = tmp_path / "zero300.txt"
    p.write_text(format_matrix(Gf2Matrix.zeros(300, 300)))
    assert main([argv[0], str(p), *argv[1:]]) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: GF(2)^300 has more than 2^22500 subspaces, above the cap of 16777216\n"
    )


def test_verify_paper_suite(capsys):
    assert main(["verify", "--suite", "paper"]) == 0
    out = capsys.readouterr().out
    assert "ok " in out and "FAIL" not in out
    assert "checks passed" in out


def test_verify_paper_suite_is_the_same_under_python_O():
    # every self-check raises explicitly, so -O changes neither the exit code nor stdout
    env = {**os.environ, "PYTHONPATH": str(Path(gf2hyper.__file__).parent.parent)}
    runs = [
        subprocess.run(
            [sys.executable, *flags, "-m", "gf2hyper", "verify", "--suite", "paper"],
            capture_output=True,
            text=True,
            env=env,
        )
        for flags in ([], ["-O"])
    ]
    assert [r.returncode for r in runs] == [0, 0], [r.stderr for r in runs]
    assert runs[1].stdout == runs[0].stdout


def test_a_closed_stdout_exits_141_without_a_traceback(golden_file):
    # the reader end of the pipe is closed before the command writes a byte
    env = {**os.environ, "PYTHONPATH": str(Path(gf2hyper.__file__).parent.parent)}
    argv = ["lattice", golden_file, "--which", "chinv", "--json"]
    reader, writer = os.pipe()
    os.close(reader)
    try:
        run = subprocess.run(
            [sys.executable, "-m", "gf2hyper", *argv],
            stdout=writer,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
    finally:
        os.close(writer)
    assert (run.returncode, run.stderr) == (141, "")


def test_verify_census_small(capsys):
    assert main(["verify", "--suite", "census", "--max-dim", "4"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out


def test_verify_census_stdout_layout(capsys):
    assert main(["verify", "--suite", "census", "--max-dim", "4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    expected = []
    for n in range(1, 5):
        for sizes in partitions(n):
            label = "-".join(map(str, sizes))
            names = [
                "shoda-equivalence",
                "ulm-form-negation",
                "hyper-iff-char-and-marked",
                "lattice-closure-matches-census",
                "lattice-equals-monotone-spans",
            ]
            if ulm_form_condition(ulm_sequence(jordan_operator(sizes))):
                names.append("char-equals-hyper-when-excluded")
            expected += [f"{name}[{label}]" for name in names]
    assert [line.split()[:2] for line in lines[:-1]] == [["ok", name] for name in expected]
    assert lines[-1] == f"{len(expected)}/{len(expected)} checks passed"


def test_verify_oracle_small(capsys):
    assert main(["verify", "--suite", "oracle", "--max-dim", "6"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out


def test_verify_rejects_max_dim_below_one(capsys):
    with pytest.raises(SystemExit) as info:
        main(["verify", "--suite", "census", "--max-dim", "0"])
    assert info.value.code == 2
    assert "--max-dim" in capsys.readouterr().err


@pytest.mark.parametrize("max_dim", ["1", "2", "3"])
def test_verify_rejects_a_max_dim_that_runs_no_check(capsys, max_dim):
    # the oracle suite's smallest eligible shape is (1, 3), at n = 4
    assert main(["verify", "--suite", "oracle", "--max-dim", max_dim]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "--max-dim" in captured.err


def test_verify_rejects_max_dim_that_is_no_integer(capsys):
    with pytest.raises(SystemExit) as info:
        main(["verify", "--suite", "census", "--max-dim", "abc"])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "argument --max-dim: must be an integer, got 'abc'" in err
    assert "_positive_int" not in err


def test_verify_paper_suite_rejects_max_dim(capsys):
    # the paper suite has no depth, so a --max-dim would be ignored
    assert main(["verify", "--suite", "paper", "--max-dim", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --max-dim applies only to the census and oracle suites\n"


# sha256 of the stdout of each suite, taken while the suites still built a list
# of results before the first line was printed: streaming changed no byte
PINNED_VERIFY_STDOUT = {
    "--suite paper": "30d24866f91cfedcd6017562f78c78435a186eced7d8a6d78c1eccac7742d247",
    "--suite census --max-dim 6": "1f9aae0467a9bde933c8e64966884bbae11a611c19878c61da9374e8579bc3fe",
    "--suite oracle --max-dim 9": "0510de4b27e9ea92e9f3ce61a14dbf42fa54abc2cb46cef25b329e328a121654",
}


@pytest.mark.parametrize("args", PINNED_VERIFY_STDOUT)
def test_verify_stdout_is_pinned(args, capsys):
    assert main(["verify", *args.split()]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_VERIFY_STDOUT[args]


def test_census_suite_computes_a_check_only_when_it_is_read(monkeypatch):
    shapes = []
    real = verify.census
    monkeypatch.setattr(verify, "census", lambda sizes: shapes.append(sizes) or real(sizes))
    checks = iter(verify.run_suite("census", 7))
    assert shapes == []
    assert next(checks) == ("shoda-equivalence[1]", True, "strict=False")
    assert shapes == [(1,)]


@pytest.mark.parametrize("max_dim", ["10", "11", "1000000000"])
def test_census_suite_refuses_the_cap_before_any_shape(max_dim, monkeypatch, capsys):
    # (1^10), the zero operator, has all of GF(2)^10 as its kernel, so from
    # --max-dim 10 on the suite stops before the first shape is lifted
    def refuse(sizes):
        raise AssertionError("no shape may be censused past the cap check")

    monkeypatch.setattr(verify, "census", refuse)
    assert main(["verify", "--suite", "census", "--max-dim", max_dim]) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: GF(2)^10 has 229755605 subspaces, above the cap of 16777216\n"
    )


class _FlushedStdout(StringIO):
    """A stdout that records what had been written at each flush."""

    def __init__(self):
        super().__init__()
        self.flushed = []

    def flush(self):
        self.flushed.append(self.getvalue())


def test_verify_writes_each_line_before_the_next_check(monkeypatch):
    out = _FlushedStdout()

    def suite(max_dim):
        yield "first", True, ""
        assert out.flushed == ["ok first\n"], "the line of a check is flushed before the next"
        yield "second", False, "why"
        yield "third", True, "dim=2"

    monkeypatch.setattr(verify, "oracle_suite", suite)
    with redirect_stdout(out):
        assert main(["verify", "--suite", "oracle", "--max-dim", "1"]) == 1
    lines = ["ok first\n", "FAIL second  why\n", "ok third  dim=2\n"]
    assert out.flushed == ["".join(lines[:k]) for k in (1, 2, 3)]
    assert out.getvalue() == "".join(lines) + "2/3 checks passed\n"


def test_counterexample_builds_the_linking_vector_once(golden_file, monkeypatch, capsys):
    calls = []
    real = shoda.linking_vector
    monkeypatch.setattr(shoda, "linking_vector", lambda *args: calls.append(args) or real(*args))
    assert main(["counterexample", golden_file]) == 0
    assert len(calls) == 1
    assert "# linking vector: 1 0 1 0" in capsys.readouterr().out


COMMANDS = ("analyze", "classify", "counterexample", "lattice", "verify")
PARSER_CORPUS = [
    ["-h"],
    *([name, "-h"] for name in COMMANDS),
    [],
    ["bogus"],
    ["-h", "analyze"],
    ["analyze", "m.txt", "--bogus"],
    ["classify", "m.txt", "x.txt", "--bogus"],
    ["counterexample", "m.txt", "--bogus"],
    ["lattice", "m.txt", "--bogus"],
    ["verify", "--suite", "paper", "--bogus"],
    ["lattice", "m.txt", "--which", "bogus"],
    ["lattice", "m.txt", "--dot", "--json"],
    ["verify", "--suite", "nope"],
    ["verify", "--suite", "census", "--max-dim", "0"],
    ["verify", "--suite", "census", "--max-dim", "abc"],
    ["analyze", "m.txt", "--js"],
    ["analyze", "m.txt", "--cen"],
    ["lattice", "m.txt", "--wh", "inv"],
    ["lattice", "m.txt", "--which=inv"],
    ["analyze", "--", "m.txt"],
    ["analyze"],
    ["verify"],
    # read from the table: options before or between the positionals, repeated
    ["classify", "--json", "m.txt", "x.txt"],
    ["classify", "m.txt", "--json", "x.txt"],
    ["analyze", "m.txt", "--json", "--json"],
    ["lattice", "m.txt", "--which", "inv", "--which", "chinv"],
    ["verify", "--suite", "census", "--max-dim", "08"],
    ["analyze", ""],
    # handed to the full tree
    ["lattice", "m.txt", "--which"],
    ["lattice", "m.txt", "--which", "-1"],
    ["verify", "--suite", "census", "--max-dim", "-1"],
    ["verify", "--max-dim", "2"],
    ["classify", "m.txt"],
    ["analyze", "m.txt", "x.txt"],
    ["analyze", "-"],
]


def _outcome(parse, argv):
    """(exit code, stdout, stderr, namespace) of parse(argv)."""
    out, err = StringIO(), StringIO()
    code, namespace = None, None
    with redirect_stdout(out), redirect_stderr(err):
        try:
            namespace = vars(parse(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue(), namespace


@pytest.mark.parametrize("argv", PARSER_CORPUS, ids=" ".join)
def test_one_command_parser_behaves_as_the_full_parser(argv, monkeypatch):
    # main's call path: the table reads a well-formed argv, the full tree the rest
    monkeypatch.setenv("COLUMNS", "80")
    assert _outcome(_parse_args, argv) == _outcome(build_parser().parse_args, argv)


# every option name, choice, abbreviation and --opt=value form, and the tokens
# argparse reads in its own way
PARSER_VOCABULARY = (
    "--json", "--census", "--dot", "--which", "--suite", "--max-dim",
    "hinv", "chinv", "inv", "paper", "census", "oracle",
    "--js", "--cen", "--d", "--wh", "--su", "--max",
    "--which=inv", "--suite=paper", "--max-dim=2", "--json=1",
    "-h", "--", "-", "", "0", "-1", "08", "m.txt", "x.txt",
)


@settings(max_examples=300, deadline=None)
@given(
    command=st.sampled_from(COMMANDS),
    tokens=st.lists(st.sampled_from(PARSER_VOCABULARY), max_size=5),
)
@example(command="lattice", tokens=["--dot", "m.txt", "--which", "inv", "--dot"])
@example(command="verify", tokens=["--max-dim", "0", "--suite", "oracle", "--max-dim", "08"])
def test_table_reads_what_the_full_parser_reads(command, tokens):
    argv = [command, *tokens]
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("COLUMNS", "80")
        assert _outcome(_parse_args, argv) == _outcome(build_parser().parse_args, argv)


def _table_arguments(command):
    """Each argument of a `_COMMANDS` entry by dest: (option strings, default,
    choices, required, store-true, type)."""
    arguments = {dest: ((), None, None, True, False, None) for dest, _ in command.positionals}
    for flag in (*(flag for flag, _ in command.flags), *command.exclusive):
        arguments[_dest(flag)] = ((flag,), False, None, False, True, None)
    for o in command.options:
        arguments[_dest(o.flag)] = ((o.flag,), o.default, o.choices, o.required, False, o.type)
    return arguments


@pytest.mark.parametrize("name", COMMANDS)
def test_full_tree_takes_the_arguments_the_table_reads(name):
    # an argument on the full tree that the table lacks, or the reverse,
    # would make the two read the same argv differently
    parser = build_parser()
    (subparsers,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    sub = subparsers.choices[name]
    actions = [a for a in sub._actions if not isinstance(a, argparse._HelpAction)]
    found = {
        a.dest: (
            tuple(a.option_strings),
            a.default,
            None if a.choices is None else tuple(a.choices),
            a.required,
            isinstance(a, argparse._StoreTrueAction),
            a.type,
        )
        for a in actions
    }
    assert len(found) == len(actions)
    assert found == _table_arguments(_COMMANDS[name])
    groups = [
        tuple(s for a in g._group_actions for s in a.option_strings)
        for g in sub._mutually_exclusive_groups
    ]
    assert groups == ([_COMMANDS[name].exclusive] if _COMMANDS[name].exclusive else [])
    assert sub._defaults == {"command": name, "handler": _COMMANDS[name].handler}


def test_a_well_formed_command_builds_no_parser(golden_file, x_file, monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for argv in (
        ["analyze", golden_file],
        ["classify", golden_file, x_file],
        ["counterexample", golden_file],
        ["lattice", golden_file, "--which", "inv"],
        ["verify", "--suite", "census", "--max-dim", "2"],
    ):
        assert main(argv) == 0
        assert built == []
    # arguments the command does not take are reported by the full tree:
    # the top-level parser and one subparser per command
    with pytest.raises(SystemExit):
        main(["analyze", golden_file, "--bogus"])
    assert len(built) == 1 + len(COMMANDS)
    assert "gf2hyper: error: unrecognized arguments: --bogus" in capsys.readouterr().err


def test_importing_the_cli_builds_no_parser():
    code = """
import argparse
built = []
init = argparse.ArgumentParser.__init__
argparse.ArgumentParser.__init__ = lambda self, *a, **k: built.append(1) or init(self, *a, **k)
import gf2hyper.cli
print(len(built))
"""
    env = {**os.environ, "PYTHONPATH": str(Path(gf2hyper.__file__).parent.parent)}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "0\n"


def test_top_level_help_lists_every_command(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as info:
        main(["-h"])
    assert info.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: gf2hyper [-h] {" + ",".join(COMMANDS) + "} ...\n")
    for name in COMMANDS:
        assert f"\n    {name} " in out


@pytest.mark.parametrize(
    "argv, message",
    [
        ([], "error: the following arguments are required: command\n"),
        (["bogus"], "error: argument command: invalid choice: 'bogus'"),
    ],
)
def test_full_parser_errors_name_the_command_argument(argv, message, capsys):
    # the full parser keeps argparse's own metavar, so its errors say "command"
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command", ["analyze", "lattice"])
def test_main_reads_sys_argv_when_given_none(command, golden_file, monkeypatch, capsys):
    # the gf2hyper console script calls main() with no arguments
    argv = [command, golden_file, "--json"]
    assert main(argv) == 0
    expected = capsys.readouterr().out
    monkeypatch.setattr(sys, "argv", ["gf2hyper", *argv])
    assert main() == 0
    assert capsys.readouterr().out == expected


def test_analyze_and_classify_take_no_cap(golden_file, x_file):
    for argv in (
        ["analyze", golden_file, "--cap", "8"],
        ["classify", golden_file, x_file, "--cap", "8"],
        ["lattice", golden_file, "--cap", "8"],
    ):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2


def test_analyze_counts_units_beyond_enumeration(tmp_path, capsys):
    # the 5x5 zero operator: commutant dimension 25, unit group GL(5, 2)
    p = tmp_path / "zero5.txt"
    p.write_text("5 5\n" + "0 0 0 0 0\n" * 5)
    assert main(["analyze", str(p), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["commutant_dimension"] == 25
    assert doc["automorphism_count"] == 9999360


def test_verify_suites_all_green_at_full_depth(capsys):
    # full acceptance depth through the CLI entry point
    assert main(["verify", "--suite", "census", "--max-dim", "7"]) == 0
    assert main(["verify", "--suite", "oracle", "--max-dim", "9"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
