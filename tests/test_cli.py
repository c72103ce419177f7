"""Command line behavior: exit codes, payload shapes, determinism.

Most tests drive main() in process and parse the captured stdout; the
byte-identity checks shell out so they exercise the real entry point.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import kmatch
from kmatch import corpus
from kmatch.cli import EXIT_BUDGET, EXIT_FAILURE, EXIT_INPUT, EXIT_OK, canonical_json, main
from kmatch.corpus import CORPUS_MAX_VERTICES
from kmatch.errors import SizeLimitExceeded
from kmatch.graphs import graph_to_json_obj, label_text, parse_graph
from kmatch.products import product
from kmatch.scenarios import SCENARIOS
from kmatch.wellbehaved import CONDITIONS


@pytest.fixture
def files(tmp_path):
    """Graph and matching files in the line-oriented text format.

    Text labels stay strings all the way through, so matching files must
    use the same tokens as the graph files.
    """
    paths = {}
    docs = {
        "k2.txt": "0 1\n",
        "p3.txt": "0 1\n1 2\n",
        "k3.txt": "0 1\n1 2\n0 2\n",
        "s3.txt": "c l1\nc l2\nc l3\n",
        "m01.txt": "0 1\n",
        "m12.txt": "1 2\n",
        "bad-graph.txt": "0 1 2\n",
        "bad-matching.txt": "5 7\n",
        "edges-not-array.txt": '{"edges": 5}\n',
        "dict-label.txt": '{"edges": [[{"a": 1}, 2]]}\n',
        "no-edges-key.txt": '{"foo": 1}\n',
        "bool-int-labels.txt": '{"edges": [[true, 2], [1, 3]]}\n',
        "float-int-labels.txt": '{"edges": [[1.0, 2], [1, 3]]}\n',
        "bool-int-pairs.txt": '[[true, 2], [1, 3]]\n',
    }
    for name, text in docs.items():
        path = tmp_path / name
        path.write_text(text)
        paths[name[:-4]] = str(path)
    return paths


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# product ---------------------------------------------------------------------


def test_product_json(capsys, files):
    code, out, err = run_cli(
        capsys,
        ["product", "--kind", "cartesian", "--left", files["k2"], "--right", files["p3"]],
    )
    assert code == EXIT_OK and err == ""
    payload = json.loads(out)
    assert payload["kind"] == "cartesian"
    assert payload["counts"] == {"vertices": 6, "edges": 7}
    # text input means string labels in the payload
    assert ["0", "1"] in payload["left"]["vertices"] or "0" in payload["left"]["vertices"]


def test_product_dot(capsys, files):
    code, out, _ = run_cli(
        capsys,
        ["product", "--kind", "strong", "--left", files["k2"], "--right", files["k2"],
         "--out", "dot"],
    )
    assert code == EXIT_OK
    assert out.startswith("graph") and "--" in out
    # text labels are JSON strings, so each ID escapes the quotes inside it
    lines = [line.strip().removesuffix(";") for line in out.splitlines()[1:-1]]
    ids = [node for line in lines for node in line.split(" -- ")]
    assert all(re.fullmatch(r'"(?:[^"\\]|\\.)*"', node) for node in ids)
    text = {node: node[1:-1].replace('\\"', '"') for node in ids}
    k2 = parse_graph(Path(files["k2"]).read_text())
    p = product(k2, k2, "strong").graph
    assert [text[line] for line in lines[: p.n]] == [label_text(v) for v in p.vertices]
    assert [[text[node] for node in line.split(" -- ")] for line in lines[p.n :]] == [
        [label_text(u), label_text(v)] for u, v in p.edges
    ]


def test_product_table(capsys, files):
    code, out, _ = run_cli(
        capsys,
        ["product", "--kind", "direct", "--left", files["k2"], "--right", files["p3"],
         "--out", "table"],
    )
    assert code == EXIT_OK
    assert "direct product: 6 vertices, 4 edges" in out


# solve -----------------------------------------------------------------------


def test_solve_reports_oracle(capsys, files):
    code, out, _ = run_cli(capsys, ["solve", "--graph", files["p3"], "--k", "1"])
    assert code == EXIT_OK
    oracle = json.loads(out)["oracle"]
    assert oracle["size"] == 1 and oracle["unmatched"] == 1
    assert oracle["exhaustive"] is True
    assert oracle["witness"] == [["0", "1"]]


def test_solve_enumerate(capsys, files):
    code, out, _ = run_cli(
        capsys, ["solve", "--graph", files["p3"], "--k", "1", "--enumerate"]
    )
    assert code == EXIT_OK
    enum = json.loads(out)["enumeration"]
    assert enum["count"] == 3
    assert [] in enum["matchings"]


def test_solve_budget_strict_exit(capsys, files):
    code, out, _ = run_cli(
        capsys, ["solve", "--graph", files["p3"], "--k", "1", "--budget", "1", "--strict"]
    )
    assert code == EXIT_BUDGET
    assert json.loads(out)["oracle"]["exhaustive"] is False
    # same starvation without --strict still exits 0
    code, out, _ = run_cli(
        capsys, ["solve", "--graph", files["p3"], "--k", "1", "--budget", "1"]
    )
    assert code == EXIT_OK


# construct ---------------------------------------------------------------------


def test_construct_layered(capsys, files):
    # a perfect K2 primary; the secondary is a 1-matching of P3, then the
    # triangle's 2-matching, whose k differs from the primary's
    for right, mh in (("p3", "m01"), ("k3", "k3")):
        code, out, _ = run_cli(
            capsys,
            ["construct", "--kind", "boxast", "--product", "cartesian",
             "--left", files["k2"], "--right", files[right],
             "--mg", files["m01"], "--mh", files[mh]],
        )
        assert code == EXIT_OK, right
        payload = json.loads(out)
        assert payload["classification"]["is_k_matching"] is True
        assert payload["classification"]["k"] == 1
        assert payload["classification"]["condition"] == "perfect-primary"
        assert payload["size"] == {"actual": 3, "predicted": 3}, right
        assert payload["validated_k_matching"] is True
        assert payload["m_g"] == [["0", "1"]]
        assert payload["m_h"] == []  # recorded empty under the perfect primary


def test_construct_rejects_foreign_matching(capsys, files):
    for name in ("bad-matching", "edges-not-array", "dict-label", "no-edges-key"):
        code, out, err = run_cli(
            capsys,
            ["construct", "--kind", "ast", "--product", "direct",
             "--left", files["k2"], "--right", files["p3"],
             "--mg", files[name], "--mh", files["m01"]],
        )
        assert code == EXIT_INPUT, name
        assert err.startswith("error:"), name


# wellbehaved -------------------------------------------------------------------


def test_wellbehaved_single_flavor(capsys, files):
    code, out, _ = run_cli(
        capsys,
        ["wellbehaved", "--flavor", "boxast", "--left", files["k2"],
         "--right", files["p3"], "--star", "cartesian", "--k", "1"],
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["verdict"] is True
    assert payload["evidence"]["product"]["unmatched"] == 0


def test_wellbehaved_equivalence_suite(capsys, files):
    code, out, _ = run_cli(
        capsys,
        ["wellbehaved", "--flavor", "equivalence", "--left", files["s3"],
         "--right", files["p3"], "--star", "strong", "--k", "1"],
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["agree"] is True
    assert len(payload["conditions"]) == 7
    assert all(v is not None for v in payload["conditions"].values())


@pytest.mark.parametrize("budget", [None, "1"])
def test_wellbehaved_flavor_equivalence_reports_the_seven_conditions(capsys, files, budget):
    argv = ["wellbehaved", "--flavor", "equivalence", "--left", files["s3"],
            "--right", files["p3"], "--star", "strong", "--k", "1"]
    code, out, _ = run_cli(capsys, argv + (["--budget", budget] if budget else []))
    assert code == EXIT_OK
    payload = json.loads(out)
    assert set(payload["conditions"]) == set(CONDITIONS)
    assert payload["exhaustive"] is (budget is None)


# whp ---------------------------------------------------------------------------


def test_whp_universe_and_members(capsys, files):
    code, out, _ = run_cli(
        capsys,
        ["whp", "--product", "direct", "--left", files["k2"], "--right", files["p3"],
         "--mg", files["m01"], "--mh", files["m01"], "--k", "1",
         "--enumerate"],
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["universe"]["size"] == 2
    assert payload["maximum"]["size"] == 2
    assert payload["enumeration"]["count"] == 4


def test_whp_reads_budget_and_strict_on_every_call(capsys, files):
    argv = ["whp", "--product", "cartesian", "--left", files["p3"], "--right", files["p3"],
            "--mg", files["m01"], "--mh", files["m01"], "--k", "1", "--budget", "1"]
    code, out, _ = run_cli(capsys, argv)
    assert code == EXIT_OK and json.loads(out)["maximum"]["exhaustive"] is False
    code, out, _ = run_cli(capsys, [*argv, "--strict"])
    assert code == EXIT_BUDGET and json.loads(out)["maximum"]["exhaustive"] is False


# scenario ----------------------------------------------------------------------


def test_scenario_bare_invocation_lists(capsys):
    code, out, _ = run_cli(capsys, ["scenario"])
    assert code == EXIT_OK
    payload = json.loads(out)
    assert set(payload) == {"s3k3-perfect", "triple-product", "c6-direct", "k2p3-direct"}
    assert all("description" in entry for entry in payload.values())


def test_scenario_table_listing_has_one_line_per_scenario(capsys):
    code, out, _ = run_cli(capsys, ["scenario", "--out", "table"])
    assert code == EXIT_OK
    lines = out.splitlines()
    assert [line.split()[0] for line in lines] == sorted(SCENARIOS)
    for line, name in zip(lines, sorted(SCENARIOS)):
        assert line.endswith(SCENARIOS[name].description)


def test_scenario_all_passes(capsys):
    code, out, _ = run_cli(capsys, ["scenario", "all"])
    assert code == EXIT_OK
    reports = json.loads(out)["scenarios"]
    assert len(reports) == 4
    assert all(r["passed"] for r in reports)


def test_scenario_table_format(capsys):
    code, out, _ = run_cli(capsys, ["scenario", "c6-direct", "--out", "table"])
    assert code == EXIT_OK
    assert "c6-direct" in out and "pass" in out


def test_scenario_starved_budget_fails(capsys):
    code, out, _ = run_cli(capsys, ["scenario", "s3k3-perfect", "--budget", "100"])
    assert code == EXIT_FAILURE
    assert json.loads(out)["scenarios"][0]["passed"] is False


def test_scenario_unknown_name(capsys):
    code, _, err = run_cli(capsys, ["scenario", "nope"])
    assert code == EXIT_INPUT
    assert "unknown scenario" in err


# suite -------------------------------------------------------------------------


def test_suite_tiny_corpus(capsys):
    code, out, _ = run_cli(capsys, ["suite", "--max-n", "2", "--k", "1"])
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["summary"] == {"tasks": 4, "failures": 0, "unknown": 0}
    for row in payload["rows"]:
        assert row["implications_ok"] is True
        assert set(row["stars"]) == {"cartesian", "strong", "lex"}


def test_suite_table_summary(capsys):
    code, out, _ = run_cli(capsys, ["suite", "--max-n", "2", "--k", "1", "--out", "table"])
    assert code == EXIT_OK
    assert "tasks=4 failures=0 unknown=0" in out


def test_suite_sampling_is_seeded(capsys):
    argv = ["suite", "--max-n", "3", "--k", "1", "--sample", "0.5", "--seed", "7"]
    code_a, out_a, _ = run_cli(capsys, argv)
    code_b, out_b, _ = run_cli(capsys, argv)
    assert code_a == code_b == EXIT_OK
    assert out_a == out_b


@pytest.mark.parametrize("sample", ["-1", "5"])
def test_suite_sample_outside_unit_interval(capsys, sample):
    code, out, err = run_cli(capsys, ["suite", "--max-n", "3", "--k", "1", "--sample", sample])
    assert code == EXIT_INPUT
    assert out == ""
    assert err.startswith("error: --sample must be a probability in [0, 1]")
    assert err.count("\n") == 1


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_suite_workers_below_one(capsys, workers):
    code, out, err = run_cli(capsys, ["suite", "--max-n", "2", "--k", "1", "--workers", workers])
    assert code == EXIT_INPUT and out == ""
    assert err.startswith("error: --workers must be at least 1") and err.count("\n") == 1


class RecordingPool:
    """Stands in for multiprocessing.Pool: records its size, maps serially."""

    sizes = []

    def __init__(self, processes):
        self.sizes.append(processes)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        return [fn(item) for item in items]


@pytest.mark.parametrize("cpus, sizes", [(64, [4]), (3, [3]), (1, []), (None, [])])
def test_suite_pool_is_capped_by_tasks_and_cpus(capsys, monkeypatch, cpus, sizes):
    monkeypatch.setattr("kmatch.cli.Pool", RecordingPool)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    monkeypatch.setattr("kmatch.cli.os.cpu_count", lambda: cpus)
    code, out, _ = run_cli(capsys, ["suite", "--max-n", "2", "--k", "1", "--workers", "100000"])
    assert code == EXIT_OK
    assert json.loads(out)["summary"]["tasks"] == 4
    assert RecordingPool.sizes == sizes


def test_suite_runs_each_k_once_in_first_seen_order(capsys):
    code, once, _ = run_cli(capsys, ["suite", "--max-n", "2", "--k", "1"])
    code_twice, twice, _ = run_cli(capsys, ["suite", "--max-n", "2", "--k", "1,1"])
    assert code == code_twice == EXIT_OK
    assert twice == once
    code, out, _ = run_cli(capsys, ["suite", "--max-n", "1", "--k", "2,1,2"])
    assert code == EXIT_OK
    assert [row["k"] for row in json.loads(out)["rows"]] == [2, 1]


@pytest.mark.parametrize("option", [
    ["--max-n", "0"], ["--max-n", "-3"], ["--k", ","], ["--corpus", "EMPTY"],
    ["--k", "0", "--sample", "0"], ["--corpus", "NOT-UTF-8"],
], ids=" ".join)
def test_suite_that_checks_nothing_is_refused(capsys, tmp_path, option):
    (tmp_path / "notes.md").write_text("not a graph\n")
    (tmp_path / "binary").mkdir()
    (tmp_path / "binary" / "bad.txt").write_bytes(b"\xff\xfe")
    dirs = {"EMPTY": str(tmp_path), "NOT-UTF-8": str(tmp_path / "binary")}
    option = [dirs.get(token, token) for token in option]
    code, out, err = run_cli(capsys, ["suite", "--k", "1", *option])
    assert code == EXIT_INPUT and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("max_n", [CORPUS_MAX_VERTICES + 1, 11])
def test_suite_past_the_corpus_limit_is_refused_at_once(capsys, monkeypatch, max_n):
    # the corpus of CORPUS_MAX_VERTICES + 1 vertices would take hours to
    # build, so the bound is refused before any order is built.
    def build(n):
        raise AssertionError(f"the corpus of order {n} was built")

    monkeypatch.setattr(corpus, "connected_graphs", build)
    argv = ["suite", "--max-n", str(max_n), "--k", "1", "--sample", "0"]
    code, out, err = run_cli(capsys, argv)
    assert code == EXIT_INPUT and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"at most {CORPUS_MAX_VERTICES} vertices" in err
    monkeypatch.undo()
    with pytest.raises(SizeLimitExceeded):
        corpus.connected_graphs(max_n)


def test_suite_sampling_every_task_away_still_succeeds(capsys):
    code, out, _ = run_cli(capsys, ["suite", "--max-n", "2", "--k", "1", "--sample", "0"])
    assert code == EXIT_OK
    assert json.loads(out)["summary"]["tasks"] == 0


def test_suite_bad_k_list(capsys):
    code, _, err = run_cli(capsys, ["suite", "--max-n", "2", "--k", "1,x"])
    assert code == EXIT_INPUT
    assert "bad --k list" in err


# input failures ------------------------------------------------------------------


def test_missing_graph_file(capsys):
    code, _, err = run_cli(capsys, ["solve", "--graph", "/no/such/file", "--k", "1"])
    assert code == EXIT_INPUT
    assert err.startswith("error: cannot read graph file")


def test_missing_matching_file(capsys, files):
    code, out, err = run_cli(
        capsys,
        ["whp", "--product", "direct", "--k", "1", "--left", files["k2"], "--right", files["p3"],
         "--mg", "/no/such/file", "--mh", files["m01"]],
    )
    assert code == EXIT_INPUT and out == ""
    assert err.startswith("error: cannot read matching file /no/such/file")


def test_malformed_graph_file(capsys, files):
    # the last two hold labels Python calls equal (true == 1, 1.0 == 1);
    # merging them would solve three vertices where the file has four.
    for name in ("bad-graph", "edges-not-array", "dict-label", "no-edges-key",
                 "bool-int-labels", "float-int-labels"):
        code, _, err = run_cli(capsys, ["solve", "--graph", files[name], "--k", "1"])
        assert code == EXIT_INPUT, name
        assert err.startswith("error:"), name


def test_matching_labels_equal_across_json_types_are_refused(capsys, files):
    code, _, err = run_cli(
        capsys,
        ["construct", "--kind", "ast", "--product", "direct", "--left", files["k2"],
         "--right", files["k2"], "--mg", files["bool-int-pairs"], "--mh", files["m01"]],
    )
    assert code == EXIT_INPUT and err.startswith("error: labels ")


@pytest.mark.parametrize("command", [
    ["construct", "--kind", "ast", "--product", "direct"],
    ["whp", "--product", "direct", "--k", "1"],
])
def test_matching_labels_differing_from_the_factor_in_json_type_are_refused(capsys, tmp_path, command):
    # false and true equal the factor's vertices 0 and 1 in Python only.
    graph, matching = tmp_path / "k2.json", tmp_path / "m.json"
    graph.write_text('{"edges": [[0, 1]]}\n')
    matching.write_text("[[false, true]]\n")
    code, out, err = run_cli(
        capsys,
        [*command, "--left", str(graph), "--right", str(graph),
         "--mg", str(matching), "--mh", str(matching)],
    )
    assert code == EXIT_INPUT and out == ""
    assert err.startswith("error: labels ") and err.count("\n") == 1


def test_solve_past_the_old_depth_limit(capsys, tmp_path):
    path = tmp_path / "path2001.txt"
    path.write_text("".join(f"{i} {i + 1}\n" for i in range(2000)))
    code, out, err = run_cli(capsys, ["solve", "--graph", str(path), "--k", "1"])
    assert code == EXIT_OK and err == ""
    oracle = json.loads(out)["oracle"]
    assert oracle["exhaustive"] and oracle["size"] == 1000 and oracle["unmatched"] == 1


# a small pool of scalars, so labels collide often: true and 1, 1.0 and 1,
# NaN with itself, and a lone surrogate, which JSON can spell but UTF-8
# cannot encode.
scalars = st.sampled_from(
    [None, True, False, 0, 1, 2, 0.0, 1.0, 1e400, float("nan"), "a", "b", "\ud800"]
) | st.text(max_size=3)
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=5), inner, max_size=4),
    max_leaves=12,
)
labels = scalars | st.lists(scalars, max_size=2)
edges = st.tuples(labels, labels).map(list) | st.lists(labels, max_size=3)
graph_docs = st.fixed_dictionaries(
    {"edges": st.lists(edges, max_size=6)},
    optional={"vertices": st.lists(labels, max_size=4) | json_values},
).map(json.dumps)
documents = st.one_of(
    st.text(max_size=60),
    st.binary(max_size=40),
    json_values.map(json.dumps),
    st.fixed_dictionaries({"edges": json_values}).map(json.dumps),
    graph_docs,
    graph_docs,
    graph_docs.flatmap(lambda doc: st.integers(0, len(doc)).map(lambda cut: doc[:cut])),
)


@given(documents)
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_solve_input_fuzz_exits_zero_or_two(capsys, tmp_path, doc):
    # Every graph file either solves or is refused with a one-line error:
    # never exit 1, never a traceback.
    path = tmp_path / "fuzz.graph"
    if isinstance(doc, str):
        path.write_bytes(doc.encode("utf-8", "surrogatepass"))
    else:
        path.write_bytes(doc)
    code, out, err = run_cli(capsys, ["solve", "--graph", str(path), "--k", "1"])
    assert code in (EXIT_OK, EXIT_INPUT), (doc, err)
    if code == EXIT_OK:
        assert json.loads(out)["oracle"]["exhaustive"] and err == ""
    else:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, (doc, err)


MATCHING_COMMANDS = {
    "construct-boxast": ["construct", "--kind", "boxast", "--product", "cartesian"],
    "construct-ast": ["construct", "--kind", "ast", "--product", "direct"],
    "construct-circledast": ["construct", "--kind", "circledast", "--product", "strong"],
    "whp": ["whp", "--product", "strong", "--k", "1"],
}


@given(documents, st.sampled_from(sorted(MATCHING_COMMANDS)), st.sampled_from(["--mg", "--mh"]))
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_matching_input_fuzz_exits_zero_or_two(capsys, tmp_path, doc, command, option):
    # Every matching file either builds or is refused with a one-line
    # error. The factors are triangles on the labels 0, 1, 2, which the
    # fuzzed documents can spell, and the other side gets a valid matching.
    graph, fixed, fuzzed = tmp_path / "k3.json", tmp_path / "m01.json", tmp_path / "fuzz.matching"
    graph.write_text('{"edges": [[0, 1], [1, 2], [0, 2]]}\n')
    fixed.write_text("[[0, 1]]\n")
    if isinstance(doc, str):
        fuzzed.write_bytes(doc.encode("utf-8", "surrogatepass"))
    else:
        fuzzed.write_bytes(doc)
    sides = {"--mg": str(fixed), "--mh": str(fixed), option: str(fuzzed)}
    argv = [*MATCHING_COMMANDS[command], "--left", str(graph), "--right", str(graph),
            "--mg", sides["--mg"], "--mh", sides["--mh"]]
    code, out, err = run_cli(capsys, argv)
    assert code in (EXIT_OK, EXIT_INPUT), (doc, err)
    if code == EXIT_OK:
        assert json.loads(out) and err == ""
    else:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, (doc, err)


def test_budget_below_one(capsys, files):
    for budget in ("0", "-5"):
        code, _, err = run_cli(
            capsys, ["solve", "--graph", files["p3"], "--k", "1", "--budget", budget]
        )
        assert code == EXIT_INPUT, budget
        assert err.startswith("error: budget must be at least 1"), budget


def test_invalid_k_value(capsys, files):
    code, _, err = run_cli(capsys, ["solve", "--graph", files["p3"], "--k", "0"])
    assert code == EXIT_INPUT
    assert err.startswith("error:")


# options a subcommand does not read ------------------------------------------------


def valid_invocation(command, files):
    return {
        "product": ["product", "--kind", "cartesian", "--left", files["k2"], "--right", files["p3"]],
        "construct": ["construct", "--kind", "boxast", "--product", "cartesian",
                      "--left", files["k2"], "--right", files["p3"],
                      "--mg", files["m01"], "--mh", files["m01"]],
        "solve": ["solve", "--graph", files["p3"], "--k", "1"],
        "wellbehaved": ["wellbehaved", "--left", files["k2"], "--right", files["p3"],
                        "--star", "cartesian", "--k", "1"],
        "whp": ["whp", "--product", "direct", "--left", files["k2"], "--right", files["p3"],
                "--mg", files["m01"], "--mh", files["m01"], "--k", "1"],
        "scenario": ["scenario", "c6-direct"],
        "suite": ["suite", "--max-n", "2", "--k", "1"],
    }[command]


UNREAD = {
    "product": (["--budget", "5"], ["--strict"], ["--seed", "3"]),
    "construct": (["--out", "table"], ["--budget", "5"], ["--strict"], ["--seed", "3"]),
    "solve": (["--out", "table"], ["--seed", "3"]),
    "wellbehaved": (["--out", "table"], ["--seed", "3"]),
    "whp": (["--out", "table"], ["--seed", "3"]),
    "scenario": (["--strict"], ["--seed", "3"], ["--out", "dot"]),
    "suite": (["--out", "dot"],),
}


@pytest.mark.parametrize("command, option", [
    (command, option) for command, options in UNREAD.items() for option in options
], ids=lambda value: " ".join(value) if isinstance(value, list) else value)
def test_options_a_subcommand_does_not_read_are_refused(capsys, files, command, option):
    with pytest.raises(SystemExit) as exc:
        main([*valid_invocation(command, files), *option])
    out, err = capsys.readouterr()
    assert exc.value.code == EXIT_INPUT and out == ""
    assert option[0] in err.splitlines()[-1]


@pytest.mark.parametrize("command, option", [
    ("construct-ast", ["--no-normalize"]),
    ("construct-ast", ["--orientation", "hg"]),
    ("construct-ast", ["--orientation", "gh"]),
    ("construct-circledast", ["--no-normalize"]),
    ("construct-circledast", ["--orientation", "hg"]),
    ("suite", ["--seed", "3"]),
    ("suite-corpus", ["--max-n", "3"]),
], ids=lambda value: " ".join(value) if isinstance(value, list) else value)
def test_options_a_mode_does_not_read_are_refused(capsys, files, tmp_path, command, option):
    (tmp_path / "k2.txt").write_text("0 1\n")
    construct = ["construct", "--product", "strong", "--left", files["k2"], "--right", files["p3"],
                 "--mg", files["m01"], "--mh", files["m01"]]
    argv = {
        "construct-ast": [*construct, "--kind", "ast"],
        "construct-circledast": [*construct, "--kind", "circledast"],
        "suite": ["suite", "--max-n", "2", "--k", "1"],
        "suite-corpus": ["suite", "--corpus", str(tmp_path), "--k", "1"],
    }[command]
    if option[0] == "--no-normalize":
        # no mode reads it any more, so the parser itself refuses it
        with pytest.raises(SystemExit) as exc:
            main([*argv, *option])
        out, err = capsys.readouterr()
        assert exc.value.code == EXIT_INPUT and out == ""
        assert err.splitlines()[-1].endswith(f"unrecognized arguments: {option[0]}")
        return
    code, out, err = run_cli(capsys, [*argv, *option])
    assert code == EXIT_INPUT and out == ""
    assert err.startswith(f"error: {option[0]} is not read ") and err.count("\n") == 1


@pytest.mark.parametrize("command, option", [
    ("wellbehaved", "--equivalence"), ("whp", "--max"), ("scenario", "--list"),
    ("construct", "--no-normalize"),
])
def test_removed_mode_flags_are_refused(capsys, files, command, option):
    with pytest.raises(SystemExit) as exc:
        main([*valid_invocation(command, files), option])
    out, err = capsys.readouterr()
    assert exc.value.code == EXIT_INPUT and out == ""
    assert option in err.splitlines()[-1]


# byte-level determinism over the real entry point --------------------------------


def run_entry(args):
    proc = subprocess.run(
        [sys.executable, "-m", "kmatch.cli", *args],
        capture_output=True,
        check=False,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def test_repeated_runs_byte_identical():
    args = ["suite", "--max-n", "3", "--k", "1,2"]
    assert run_entry(args) == run_entry(args)


def test_worker_count_does_not_change_bytes():
    base = run_entry(["suite", "--max-n", "3", "--k", "1"])
    parallel = run_entry(["suite", "--max-n", "3", "--k", "1", "--workers", "2"])
    assert base == parallel


# canonical JSON ------------------------------------------------------------------

# strings that need escapes or are not ASCII, ints past 64 bits, floats
# json spells by name, and the tree shapes a report can take, empty and
# deep
json_strings = st.lists(
    st.sampled_from(['"', "\\", "\x00", "\n", "\t", "\x1f", "\x7f", "é", "€", "\u2028", "\U0001d11e", "\ud800"])
    | st.characters(),
    max_size=8,
).map("".join)
json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers() | st.sampled_from([2**64, -(2**100)]),
    st.floats() | st.sampled_from([-0.0, 1e-7, 1e16, float("nan"), float("inf"), float("-inf")]),
    json_strings,
)
json_trees = st.recursive(
    json_scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(json_strings, inner, max_size=4),
    ),
    max_leaves=20,
)


def nest(tree, depth):
    """`tree` inside `depth` levels of lists, tuples and dicts in turn."""
    for level in range(depth):
        tree = ([tree], (tree,), {"k": tree})[level % 3]
    return tree


@given(json_trees | st.builds(nest, json_trees, st.integers(6, 9)))
@settings(max_examples=200, deadline=None)
def test_canonical_json_writes_the_bytes_of_json_dumps(tree):
    assert canonical_json(tree) == json.dumps(tree, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def test_canonical_json_refuses_what_json_refuses():
    for payload in ({"a": {1, 2}}, [{1}], {1}):
        with pytest.raises(TypeError):
            json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=False)
        with pytest.raises(TypeError):
            canonical_json(payload)


def test_canonical_json_takes_str_keys_only():
    # json.dumps writes an int, float, bool or None key as a string; no
    # report has one, and the writer refuses it rather than guess
    for key in (1, 1.5, True, None):
        assert json.dumps({key: 0}, sort_keys=True, indent=2, ensure_ascii=False).startswith('{\n  "')
        with pytest.raises(TypeError):
            canonical_json({key: 0})


# A solver whose every run first writes to file descriptor 1, the way the
# bundled HiGHS does on some integer programs: the CLI's stdout must still
# be the report's JSON alone.
NOISY_SOLVER_PROBE = """
import os
import sys

from scipy.optimize._highspy import _core as highspy

from kmatch.cli import main

runs = []


class Noisy(highspy._Highs):
    def run(self):
        runs.append(1)
        os.write(1, b"noise\\n")
        return super().run()


highspy._Highs = Noisy
code = main(sys.argv[1:])
if not runs:
    sys.exit("the solver never ran")
sys.exit(code)
"""


def test_solver_output_stays_out_of_the_report(capsys, tmp_path):
    # C4 direct (K4 minus an edge) at k = 3: the witness query runs HiGHS
    c4 = parse_graph("0 2\n0 3\n1 2\n1 3\n")
    k4e = parse_graph("0 1\n0 2\n0 3\n1 2\n1 3\n")
    path = tmp_path / "product.json"
    path.write_text(json.dumps(graph_to_json_obj(product(c4, k4e, "direct").graph)))
    argv = ["solve", "--graph", str(path), "--k", "3"]
    code, expected, _ = run_cli(capsys, argv)
    assert code == EXIT_OK
    src = os.path.dirname(os.path.dirname(kmatch.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", NOISY_SOLVER_PROBE, *argv], capture_output=True, text=True, env=env
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    assert proc.stdout == expected
