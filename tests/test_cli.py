import io
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bstar.cli import main
from bstar.complexes import get_max_faces


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_counterexample(capsys):
    code, out, _ = run_cli(capsys, "check", "named:example_2_10_i", "--field", "q")
    assert code == 0
    data = json.loads(out)
    report = data["reports"][0]
    assert report["field"] == "q"
    assert report["verdicts"]["buchsbaum*"] is False
    assert "vertex p" in report["witnesses"]["buchsbaum*"]
    assert report["verdicts"]["doubly_buchsbaum"] is True


def test_check_field_split(capsys):
    code, out, _ = run_cli(capsys, "check", "named:rp2_6",
                           "--field", "q", "--field", "gf:2")
    assert code == 0
    reports = {r["field"]: r for r in json.loads(out)["reports"]}
    assert reports["q"]["verdicts"]["buchsbaum*"] is False
    assert reports["gf:2"]["verdicts"]["buchsbaum*"] is True


def test_check_missing_file(capsys):
    code, _, err = run_cli(capsys, "check", "definitely_missing.json")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("text", ['{"facets": 5}', '{"facets": [[[1], 2]]}'])
def test_check_malformed_facets(capsys, tmp_path, text):
    p = tmp_path / "bad.json"
    p.write_text(text)
    code, out, err = run_cli(capsys, "check", str(p))
    assert code == 2 and out == ""
    assert err.startswith("error:") and "facets" in err


@pytest.mark.parametrize("text", ['{"facets": [[1, 2], [true, 3]]}',
                                  '{"facets": [[0, 2], [false, 3]]}',
                                  '{"facets": [[1.0, 2], [1, 3]]}'])
def test_check_rejects_labels_that_would_merge(capsys, tmp_path, text):
    p = tmp_path / "merge.json"
    p.write_text(text)
    code, out, err = run_cli(capsys, "check", str(p))
    assert code == 2 and out == ""
    assert err.startswith("error: labels ") and "would merge" in err


def test_check_bad_field(capsys):
    code, _, err = run_cli(capsys, "check", "named:torus7", "--field", "gf:9")
    assert code == 2


def test_vectors(capsys):
    code, out, _ = run_cli(capsys, "vectors", "named:torus7", "--field", "q")
    vec = json.loads(out)["vectors"][0]
    assert vec["h"] == [1, 4, 10, -1]
    assert vec["h_prime"] == [1, 4, 10, 1]
    assert vec["h_double_prime"] == [1, 4, 4, 1]

    code, out, _ = run_cli(capsys, "vectors", "named:cross_polytope:3",
                           "--field", "q")
    assert json.loads(out)["vectors"][0]["h"] == [1, 3, 3, 1]

    code, out, _ = run_cli(capsys, "vectors", "named:simplex_boundary:3",
                           "--field", "q")
    assert json.loads(out)["vectors"][0]["h"] == [1, 1, 1, 1]


def test_homology(capsys):
    code, out, _ = run_cli(capsys, "homology", "named:rp2_6")
    tables = {t["field"]: t["betti"] for t in json.loads(out)["homology"]}
    assert tables["q"] == [0, 0, 0, 0]
    assert tables["gf:2"] == [0, 0, 1, 1]


def test_homology_ranks_only_the_uncleared_columns_under_the_cell_guard(capsys):
    # in full, the boundary map out of the 5-faces has 4032 x 5376 cells,
    # above the default guard of 2^24; after clearing it is 4032 x 2561
    code, out, err = run_cli(capsys, "homology", "named:cross_polytope:9")
    assert code == 0 and err == ""
    assert [t["betti"] for t in json.loads(out)["homology"]] == [[0] * 9 + [1]] * 2


def test_construct_product(capsys, tmp_path):
    out_file = str(tmp_path / "t.json")
    code, out, _ = run_cli(capsys, "construct", "product", "named:cycle3",
                           "named:cycle3", out_file)
    assert code == 0
    data = json.loads(open(out_file).read())
    assert len(data["facets"]) == 18


def test_construct_skeleton_and_stacked(capsys, tmp_path):
    skel = str(tmp_path / "skel.json")
    code, out, _ = run_cli(capsys, "construct", "skeleton",
                           "named:simplex_boundary:4", "2", skel)
    assert code == 0
    assert json.loads(out)["complex"]["dim"] == 2

    st = str(tmp_path / "st.json")
    code, out, _ = run_cli(capsys, "construct", "stacked", "7", "3", st)
    assert json.loads(out)["complex"]["f_vector"] == [1, 7, 15, 10]


def test_construct_join_cone_named(capsys, tmp_path):
    j = str(tmp_path / "j.json")
    code, out, _ = run_cli(capsys, "construct", "join", "named:s0", "named:s0", j)
    assert code == 0 and json.loads(out)["complex"]["f_vector"] == [1, 4, 4]

    k = str(tmp_path / "k.json")
    code, out, _ = run_cli(capsys, "construct", "cone", "named:cycle3", k)
    assert code == 0 and json.loads(out)["complex"]["f_vector"] == [1, 4, 6, 3]

    n = str(tmp_path / "n.json")
    code, out, _ = run_cli(capsys, "construct", "named:rp2_6", n)
    assert code == 0 and json.loads(out)["complex"]["f_vector"] == [1, 6, 15, 10]


def test_construct_corpus_export(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "construct", "corpus", str(tmp_path))
    assert code == 0
    written = json.loads(out)["written"]
    assert any(w.endswith("torus7.json") for w in written)


def test_construct_bad_spec(capsys, tmp_path):
    code, _, err = run_cli(capsys, "construct", "frobnicate",
                           str(tmp_path / "x.json"))
    assert code == 2


def test_construct_rejects_labels_that_print_alike(capsys, tmp_path):
    src = tmp_path / "mixed.json"
    src.write_text('{"facets": [[1, "1"], [1, 2]]}')
    out = tmp_path / "cone.json"
    code, _, err = run_cli(capsys, "construct", "cone", str(src), str(out))
    assert code == 2
    assert "labels 1 and '1' both print as '1'" in err
    assert not out.exists()


def test_check_reads_text_format(capsys, tmp_path):
    p = tmp_path / "triangle.txt"
    p.write_text("a b\nb c\na c\n")
    code, out, _ = run_cli(capsys, "check", str(p), "--field", "q")
    assert code == 0
    assert json.loads(out)["complex"]["f_vector"] == [1, 3, 3]


def test_check_non_pure_is_no_manifold(capsys, tmp_path):
    p = tmp_path / "whisker.json"
    p.write_text(json.dumps({"facets": [["a", "b", "c"], ["c", "d"]]}))
    code, out, _ = run_cli(capsys, "check", str(p))
    assert code == 0
    reports = json.loads(out)["reports"]
    assert [r["field"] for r in reports] == ["q", "gf:2"]
    for r in reports:
        assert r["verdicts"]["homology_manifold"] is False
        assert r["witnesses"]["homology_manifold"] == "not pure"


@pytest.mark.parametrize("name", ["path.txt", "path.json"])
def test_byte_order_mark_is_not_part_of_the_input(capsys, tmp_path, name):
    text = '{"facets": [["a", "b"], ["b", "c"]]}'
    plain, marked = tmp_path / "plain.json", tmp_path / name
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    expected = run_cli(capsys, "homology", str(plain))
    assert expected[0] == 0
    assert run_cli(capsys, "homology", str(marked)) == expected


def test_deeply_nested_json_exits_2_without_a_traceback(tmp_path):
    p = tmp_path / "deep.json"
    p.write_text('{"facets": ' + "[" * 100_000 + "]" * 100_000 + "}")
    code, err = run_child("check", str(p))
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err


def test_check_output_stable(capsys):
    _, out1, _ = run_cli(capsys, "check", "named:torus7", "--field", "q")
    _, out2, _ = run_cli(capsys, "check", "named:torus7", "--field", "q")
    assert out1 == out2


def test_text_format(capsys):
    code, out, _ = run_cli(capsys, "check", "named:s0", "--field", "q",
                           "--format", "text")
    assert code == 0
    assert "verdicts" in out and "{" not in out.split("\n")[0]


def test_verify_user_corpus(capsys, tmp_path):
    (tmp_path / "sphere.txt").write_text("0 1 2\n0 1 3\n0 2 3\n1 2 3\n")
    (tmp_path / "cycle.txt").write_text("0 1\n1 2\n0 2\n")
    code, out, _ = run_cli(capsys, "verify", str(tmp_path), "--field", "gf:3")
    assert code == 0
    data = json.loads(out)
    assert data["all_passed"] is True
    assert set(data["corpus"]) == {"sphere.txt", "cycle.txt"}
    # named-corpus fidelity checks must not run on user corpora
    assert "counterexample_fidelity" not in data["results"]


def test_verify_reports_corrupted_file(capsys, tmp_path):
    (tmp_path / "cycle.txt").write_text("0 1\n1 2\n0 2\n")
    (tmp_path / "broken.json").write_text("this is { not json")
    code, out, _ = run_cli(capsys, "verify", str(tmp_path))
    assert code == 1
    data = json.loads(out)
    assert data["all_passed"] is False
    assert any("broken.json" in b for b in data["unreadable"])
    assert data["corpus"] == ["cycle.txt"]


def test_verify_empty_corpus(capsys, tmp_path):
    (tmp_path / "subdir").mkdir()
    code, out, err = run_cli(capsys, "verify", str(tmp_path))
    assert code == 2 and out == ""
    assert f"error: no complex files in {tmp_path}" in err


EDGE_CORPUS = {"point.json": [["a"]], "triangle.json": [["a", "b", "c"]],
               "points3.json": [["a"], ["b"], ["c"]], "edge_point.json": [["a", "b"], ["c"]]}


def test_verify_edge_case_corpus(capsys, tmp_path):
    """One vertex, whose contrastar is {∅} with beta_{-1} = 1, a filled
    triangle, three points and an edge plus a point: every check passes,
    and the report is the one recorded in tests/data/verify_edge_cases.json."""
    for name, facets in EDGE_CORPUS.items():
        (tmp_path / name).write_text(json.dumps({"facets": facets}))
    code, out, _ = run_cli(capsys, "verify", str(tmp_path))
    data = json.loads(out)
    assert code == 0 and data["all_passed"] is True
    golden = Path(__file__).parent / "data" / "verify_edge_cases.json"
    assert data == json.loads(golden.read_text(encoding="utf-8"))


def test_verify_builtin(capsys):
    code, out, _ = run_cli(capsys, "verify", "--builtin")
    data = json.loads(out)
    assert code == 0 and data["all_passed"] is True
    assert "counterexample_fidelity" in data["results"]
    assert len(data["results"]) >= 12


def run_child(*argv, **env):
    """Exit code and stderr of `python -m bstar.cli argv` in a fresh process."""
    import os
    import subprocess
    import sys

    import bstar

    # the child process imports the same bstar as the tests, installed or not
    src = os.path.dirname(os.path.dirname(bstar.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "bstar.cli", *argv],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src, **env))
    return proc.returncode, proc.stderr


def test_env_var_guard(tmp_path):
    p = tmp_path / "big.txt"
    p.write_text(" ".join(str(i) for i in range(30)) + "\n")
    code, err = run_child("homology", str(p), BSTAR_MAX_FACES="100")
    assert code == 2
    assert "guard" in err


@pytest.mark.parametrize("value", ["abc", "0", "-1"])
def test_malformed_env_var_guard_exits_2(value):
    code, err = run_child("homology", "named:cycle:5", BSTAR_MAX_FACES=value)
    assert code == 2
    assert err.startswith("error:") and "BSTAR_MAX_FACES" in err
    assert "Traceback" not in err
    code, err = run_child("--help", BSTAR_MAX_FACES=value)
    assert code == 0 and err == ""  # importing bstar does not read the variable


@pytest.mark.parametrize("flag", ["--max-faces", "--max-subsets"])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_guard_flags_take_only_positive_integers(capsys, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(["check", "named:cycle:5", flag, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert flag in err and "positive integer" in err


def test_max_faces_guard(capsys, tmp_path, monkeypatch):
    from bstar import complexes

    p = tmp_path / "big.txt"
    p.write_text(" ".join(str(i) for i in range(30)) + "\n")
    monkeypatch.setattr(complexes, "_max_faces", complexes._max_faces)
    code, _, err = run_cli(capsys, "homology", str(p), "--max-faces", "100")
    assert code == 2
    assert "guard" in err


def test_sized_named_complexes_check_the_face_guard_before_building(capsys, tmp_path):
    # 3^40 faces: refused from the count, before any facet is listed
    code, out, err = run_cli(capsys, "check", "named:cross_polytope:40")
    assert code == 2 and out == ""
    assert err == f"error: complex exceeds the face guard of {get_max_faces()} faces\n"
    target = tmp_path / "out.json"
    code, _, err = run_cli(capsys, "construct", "named:cross_polytope:8", str(target),
                           "--max-faces", "1000")
    assert code == 2 and "face guard of 1000 faces" in err
    assert not target.exists()


@pytest.mark.parametrize("recipe", [("cone", "named:cross_polytope:4"),
                                    ("join", "named:cross_polytope:4", "named:s0")])
def test_construct_writes_no_file_over_the_face_guard(capsys, tmp_path, recipe):
    # the 81 faces of cross_polytope:4 pass the guard; the 162 of its cone,
    # and of its suspension, fail it once built
    target = tmp_path / "out.json"
    code, out, err = run_cli(capsys, "construct", *recipe, str(target), "--max-faces", "100")
    assert code == 2 and out == ""
    assert err == "error: complex exceeds the face guard of 100 faces\n"
    assert not target.exists()


def test_guards_do_not_outlive_the_command(capsys):
    from bstar import clear_caches, complexes, properties

    clear_caches()  # a memoised verdict would skip the sweep and its guard
    assert run_cli(capsys, "check", "named:cycle:5", "--max-subsets", "3")[0] == 2
    assert run_cli(capsys, "homology", "named:cycle:5", "--max-faces", "100")[0] == 0
    assert complexes._max_faces is None
    assert properties._max_subsets == properties.DEFAULT_MAX_SUBSETS
    clear_caches()
    assert run_cli(capsys, "check", "named:cross_polytope:3")[0] == 0


def test_subset_guard_exits_2_and_names_the_guard(capsys, monkeypatch):
    from bstar import clear_caches, properties

    monkeypatch.setattr(properties, "_max_subsets", properties._max_subsets)
    clear_caches()  # a memoised verdict would skip the sweep and its guard
    code, out, err = run_cli(capsys, "check", "named:cross_polytope:3",
                             "--max-subsets", "3")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "guard of 3" in err


def test_broken_implication_exits_3(capsys, monkeypatch):
    from bstar import properties

    # the torus is not doubly Cohen-Macaulay, so Gorenstein* breaks an implication
    monkeypatch.setattr(properties, "is_gorenstein_star", lambda c, f: True)
    code, out, err = run_cli(capsys, "check", "named:torus7", "--field", "q")
    assert code == 3 and out == ""
    assert err.startswith("internal error:") and "gorenstein*" in err


LABELS = st.one_of(st.integers(-2, 6), st.booleans(), st.none(),
                   st.floats(allow_nan=True, allow_infinity=True),
                   st.sampled_from(["a", "b", "1", "", " ", "{", "}", "\ufeff", "x y"]))
# facets, some holding lists, and some empty
FACETS = st.lists(st.lists(st.one_of(LABELS, st.lists(LABELS, max_size=2)), max_size=4),
                  max_size=5)
TOKENS = st.sampled_from(["a", "b", "c", "1", "2", "{", "}", "[", "]", "[[1]]", ",",
                          '"facets":', "NaN", "1e309", "\ufeff"])


@st.composite
def fuzzed_files(draw):
    """(file name, text) of a complex file: JSON of fuzzed facets (NaN and
    infinities included, an infinity sometimes written 1e309, sometimes cut
    short) or plain text of fuzzed tokens, either with or without a
    byte-order mark and under either suffix."""
    if draw(st.booleans()):
        doc = draw(st.one_of(st.fixed_dictionaries({"facets": FACETS}), FACETS, LABELS))
        text = json.dumps(doc).replace("Infinity", draw(st.sampled_from(["Infinity", "1e309"])))
        if draw(st.integers(0, 3)) == 0:
            text = text[:draw(st.integers(0, len(text)))]
    else:
        lines = st.lists(TOKENS, max_size=4).map(" ".join)
        text = "\n".join(draw(st.lists(lines, max_size=5)))
    if draw(st.booleans()):
        text = "\ufeff" + text
    return "complex" + draw(st.sampled_from([".txt", ".json"])), text


@settings(max_examples=100, deadline=None, derandomize=True)
@given(fuzzed_files())
def test_fuzzed_files_exit_with_a_documented_code(case):
    name, text = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        for command in ("check", "vectors", "homology"):
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
                code = main([command, path])
            assert code in (0, 1, 2, 3), (command, code, err.getvalue())
