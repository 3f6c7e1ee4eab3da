"""Command-line surface: outputs, determinism, exit codes."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from sumchoice.cli import main
from sumchoice.graphs import complete_bipartite, complete_split, graph_to_json, path as path_graph

FIXTURES = Path(__file__).parent / "fixtures"
SCRIPTS = Path(__file__).parent.parent / "scripts"


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, argv):
    code, out = run(capsys, argv)
    return code, json.loads(out)


def test_generate_emits_schema(capsys):
    code, doc = run_json(capsys, ["generate", "--family", "complete_bipartite", "--a", "2", "--q", "3"])
    assert code == 0
    assert doc["n"] == 5 and len(doc["edges"]) == 6
    assert doc["parts"] == {"A": [0, 1], "Q": [2, 3, 4]}


def test_generate_params_flag(capsys):
    code, doc = run_json(capsys, ["generate", "--family", "disjoint_cliques", "--params", "2,2"])
    assert code == 0 and doc["n"] == 4


def test_check_insufficient_witness(capsys):
    code, doc = run_json(capsys, ["check", "--graph", str(FIXTURES / "k2.json"), "--f", "1,1"])
    assert code == 0
    assert doc["verdict"] == "insufficient"
    assert doc["witness"]["lists"] == [[0], [0]]


def test_check_lists_mode(capsys, tmp_path):
    lists = tmp_path / "lists.json"
    lists.write_text(json.dumps({"lists": [[0], [1]]}))
    code, doc = run_json(capsys, ["check", "--graph", str(FIXTURES / "k2.json"), "--lists", str(lists)])
    assert code == 0 and doc["colorable"] is True and doc["coloring"] == [0, 1]


@pytest.mark.parametrize(
    "lists, want",
    [
        ([[-3, -1], [-3], [-1, -7], [-7]], [-1, -3, -1, -7]),
        ([[10**20, 0], [10**20], [10**20, -2], [-2, 5]], [0, 10**20, -2, 5]),
        ([[-1], [], [10**20], [0]], None),
        ([[-(2**70), 2**64], [2**64, -(2**70)], [2**64], [-(2**70), 10**20]], [2**64, -(2**70), 2**64, -(2**70)]),
    ],
)
def test_check_lists_on_a_path_far_from_zero(capsys, tmp_path, lists, want):
    graph = tmp_path / "p4.json"
    graph.write_text(json.dumps(graph_to_json(path_graph(4))))
    path = tmp_path / "lists.json"
    path.write_text(json.dumps({"lists": lists}))
    code, doc = run_json(capsys, ["check", "--graph", str(graph), "--lists", str(path)])
    assert code == 0
    assert doc["colorable"] is (want is not None) and doc.get("coloring") == want


def test_sumchoice_k22(capsys):
    code, doc = run_json(capsys, ["sumchoice", "--family", "complete_bipartite", "--a", "2", "--q", "2"])
    assert code == 0
    assert doc["chi_sc"] == 8
    assert sum(doc["optimal_f"]) == 8
    assert doc["budget_used"] > 0 and "undecided" not in doc


def test_sumchoice_undecided_exit_code(capsys):
    # unlabeled K_4 needs enumerated classes below its optimum, so a budget
    # of 1 runs out (cycles are decided by the exact removal at no cost)
    code, doc = run_json(capsys, ["sumchoice", "--family", "complete", "--n", "4", "--budget", "1"])
    assert code == 3
    assert doc["undecided"] is True and doc["chi_sc"] is None
    lo, hi = doc["bracket"]
    assert lo <= 10 <= hi


def test_type2_out_of_budget_exits_undecided(capsys):
    code = main(["type2", "--a", "3", "--q", "4", "--f", "3,3,3", "--budget", "0"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err == "undecided: sufficiency search budget exceeded\n"


def test_type2_budget_zero_at_q0_searches_no_graph(capsys):
    # every blocking graph has an edge and a searched point costs at least
    # 1 per edge, so at q = 0 no graph is searched and budget 0 is enough;
    # at q = 1 the one-edge graphs are searched and the budget runs out
    code, doc = run_json(capsys, ["type2", "--a", "3", "--q", "0", "--f", "1,1,1", "--budget", "0"])
    assert code == 0 and doc["verdict"] == "sufficient"
    code = main(["type2", "--a", "3", "--q", "1", "--f", "1,1,1", "--budget", "0"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err == "undecided: sufficiency search budget exceeded\n"


def test_check_with_both_f_and_lists_exits_usage(capsys, tmp_path):
    lists = tmp_path / "lists.json"
    lists.write_text(json.dumps({"lists": [[0], [1]]}))
    code = main(["check", "--graph", str(FIXTURES / "k2.json"), "--f", "1,1", "--lists", str(lists)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: check needs exactly one of --f or --lists\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--graph", str(FIXTURES / "k2.json"), "--f", "1,1", "--budget", "-5"],
        ["sumchoice", "--family", "complete", "--n", "3", "--budget", "-1"],
    ],
)
def test_negative_budget_exits_usage(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: --budget must be >= 0, got {argv[-1]}\n"


HUGE_GRAPH = '{"n": 100000000000000000000, "edges": []}'


@pytest.mark.parametrize(
    "argv",
    [
        ["sumchoice", "--graph", HUGE_GRAPH],
        ["sdr", "--graph", HUGE_GRAPH, "--lists", "LISTS"],
        ["constr", "--t", str(10**20), "--ell", "1"],
        ["bounds", "--a", "2", "--q", str(10**307)],
        ["split-bounds", "--a", "2", "--q", str(10**307)],
    ],
)
def test_oversized_integer_exits_usage(capsys, tmp_path, argv):
    # each size overflows at once, before anything is allocated
    lists = tmp_path / "lists.json"
    lists.write_text(json.dumps({"lists": [[0]]}))
    code = main([str(lists) if arg == "LISTS" else arg for arg in argv])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["bounds", "--a", "2", "--q", "3", "--budget", "5"],
        ["verify-tables", "--seed", "1"],
    ],
)
def test_flag_the_subcommand_does_not_read_exits_usage(capsys, argv):
    # --seed and --budget belong only to the subcommands that read them
    with pytest.raises(SystemExit) as err:
        main(argv)
    captured = capsys.readouterr()
    assert err.value.code == 2 and captured.out == ""
    assert "unrecognized arguments" in captured.err


def test_config_echo_lists_the_subcommand_flags(capsys):
    code, doc = run_json(capsys, ["bounds", "--a", "2", "--q", "3"])
    assert code == 0
    assert doc["config"] == {"command": "bounds", "log_base": "e"}
    code, doc = run_json(capsys, ["sumchoice", "--family", "random_graph", "--n", "4", "--m", "3", "--seed", "2"])
    assert code == 0
    assert doc["config"] == {"budget": 100000000, "command": "sumchoice", "seed": 2}


def test_config_echo_reports_the_seed_from_params(capsys):
    # a random family given by --params takes its seed from them, not --seed
    code, doc = run_json(capsys, ["generate", "--family", "random_graph", "--params", "5,4,1", "--seed", "9"])
    assert code == 0 and doc["config"] == {"command": "generate", "seed": 1}
    _, named = run_json(capsys, ["generate", "--family", "random_graph", "--n", "5", "--m", "4", "--seed", "1"])
    assert doc["edges"] == named["edges"]
    code, doc = run_json(capsys, ["sumchoice", "--family", "random_tree", "--params", "6,3"])
    assert code == 0 and doc["config"]["seed"] == 3


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "--family", "path", "--params", "3,9"],
        ["sumchoice", "--family", "cycle", "--params", "5,1,2"],
    ],
)
def test_surplus_family_parameters_exit_usage(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: family ") and "too many parameters" in captured.err
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["sumchoice", "--family", "disjoint_cliques"], "family 'disjoint_cliques' needs --params"),
        (
            ["sumchoice", "--family", "random_graph", "--n", "6"],
            "family 'random_graph' is missing parameters (use --params or the named flags)",
        ),
    ],
)
def test_missing_family_parameters_exit_usage(capsys, argv, message):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_check_zero_budget_peels_split_graph(capsys, tmp_path):
    # every A-vertex of G_{3,4} has f = 8 > its degree 6, so the transversal
    # oracle peels the whole graph and spends no budget
    path = tmp_path / "g34.json"
    path.write_text(json.dumps(graph_to_json(complete_split(3, 4))))
    code, doc = run_json(capsys, ["check", "--graph", str(path), "--f", "8,8,8,2,2,2,2", "--budget", "0"])
    assert code == 0
    assert doc["verdict"] == "sufficient" and doc["checked"] == 0


def test_bounds_json(capsys):
    code, doc = run_json(capsys, ["bounds", "--a", "2", "--q", "12"])
    assert code == 0
    assert doc["closed_form"] == 32 and doc["sandwich_ok"] is True
    assert doc["lb"] < 32 < doc["ub"]


def test_beta_cli(capsys):
    code, doc = run_json(capsys, ["beta", "--a", "2", "--tol", "1e-6"])
    assert code == 0
    assert doc["beta"] == 2.0


@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_beta_cli_rejects_non_finite_tolerance(capsys, tol):
    code = main(["beta", "--a", "3", "--tol", tol])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_beta_cli_rejects_too_coarse_grid(capsys):
    # at a=3 every point of the grid-2 face has bilinear cost 0
    code = main(["beta", "--a", "3", "--grid", "2"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: grid 2 is too coarse for a=3: every face point costs 0\n"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_beta_scan_script_csv(capsys, monkeypatch):
    script = load_script("beta_scan")
    monkeypatch.setattr(sys, "argv", ["beta_scan.py", "--a", "3", "--grids", "8", "16", "32", "--tol", "1e-3"])
    assert script.main() == 0
    assert capsys.readouterr().out == (
        "grid,refined,beta\n"
        "8,0,3.57770876\n"
        "16,0,3.49148624\n"
        "32,0,3.47088733\n"
        "32,1,3.46420734\n"
    )


def test_bounds_table_script_csv(capsys, monkeypatch):
    script = load_script("bounds_table")
    monkeypatch.setattr(sys, "argv", ["bounds_table.py", "--a", "2", "3", "--q-max", "5"])
    assert script.main() == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "a,q,closed_form,ub,lb,sandwich_ok"
    assert len(lines) == 1 + 2 * 5


def test_rt_experiment_script_csv(capsys, monkeypatch):
    script = load_script("rt_experiment")
    argv = ["rt_experiment.py", "--a", "2", "--q", "8", "16", "--assignments", "3", "--trials", "5"]
    monkeypatch.setattr(sys, "argv", argv)
    assert script.main() == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "a,q,r,p,assignments,success,mean_trials_to_success"
    assert len(lines) == 1 + 2


@pytest.mark.parametrize("flag", ["--assignments", "--trials"])
def test_rt_experiment_script_rejects_nonpositive_counts(capsys, monkeypatch, flag):
    script = load_script("rt_experiment")
    monkeypatch.setattr(sys, "argv", ["rt_experiment.py", "--a", "2", "--q", "8", flag, "0"])
    with pytest.raises(SystemExit) as err:
        script.main()
    captured = capsys.readouterr()
    assert err.value.code == 2 and captured.out == ""
    assert captured.err.endswith(f"error: {flag} must be >= 1, got 0\n")


def test_constr_cli(capsys):
    code, doc = run_json(capsys, ["constr", "--t", "2", "--ell", "1"])
    assert code == 0
    assert doc["insufficient"] is True and doc["a"] == 4 and doc["q"] == 2


def test_type2_cli_witness(capsys):
    code, doc = run_json(capsys, ["type2", "--a", "2", "--q", "4", "--f", "2,2"])
    assert code == 0
    assert doc["verdict"] == "insufficient"
    assert doc["witness"]["cost"] == 4


def test_type2_cli_a4_is_usage_error(capsys):
    code = main(["type2", "--a", "4", "--q", "5", "--f", "1,1,1,1"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_type2_cli_sufficient(capsys):
    code, doc = run_json(capsys, ["type2", "--a", "2", "--q", "4", "--f", "2,3"])
    assert code == 0 and doc["verdict"] == "sufficient"


# `type2 --a 3` witnesses pinned from the full blocking-graph scan, which
# the edge-minimal scan must reproduce; None marks a sufficient f.
TYPE2_A3_GOLDEN = {
    ("1,2,3", 3): {"R": {"vertices": ["1", "2,3"], "edges": [["1", "2,3"]]}, "x": {"1": 1, "2,3": 3}, "cost": 3},
    ("2,3,3", 5): {
        "R": {"vertices": ["1,2", "1,3", "2,3"], "edges": [["1,2", "1,3"], ["1,2", "2,3"], ["1,3", "2,3"]]},
        "x": {"1,2": 1, "1,3": 1, "2,3": 2},
        "cost": 5,
    },
    ("3,3,3", 7): {
        "R": {"vertices": ["1", "2", "1,2", "3"], "edges": [["1", "2"], ["1,2", "3"]]},
        "x": {"1": 2, "1,2": 1, "2": 2, "3": 3},
        "cost": 7,
    },
    ("4,3,4", 10): {
        "R": {"vertices": ["1", "2", "1,2", "3"], "edges": [["1", "2"], ["1,2", "3"]]},
        "x": {"1": 3, "1,2": 1, "2": 2, "3": 4},
        "cost": 10,
    },
    ("3,1,3", 5): {"R": {"vertices": ["2", "1,3"], "edges": [["2", "1,3"]]}, "x": {"1,3": 3, "2": 1}, "cost": 3},
    ("1,1,5", 4): {"R": {"vertices": ["1,3", "2,3"], "edges": [["1,3", "2,3"]]}, "x": {"1,3": 1, "2,3": 4}, "cost": 4},
    ("2,2,3", 3): None,
    ("3,3,3", 4): None,
}


@pytest.mark.parametrize("f,q", list(TYPE2_A3_GOLDEN))
def test_type2_cli_a3_golden(capsys, f, q):
    witness = TYPE2_A3_GOLDEN[f, q]
    doc = {"verdict": "sufficient"} if witness is None else {"verdict": "insufficient", "witness": witness}
    doc["config"] = {"budget": 100000000, "command": "type2", "f": f, "q": q}
    code, out = run(capsys, ["type2", "--a", "3", "--q", str(q), "--f", f])
    assert code == 0
    assert out == json.dumps(doc, sort_keys=True, indent=2) + "\n"


def test_split_bounds_cli(capsys):
    code, doc = run_json(capsys, ["split-bounds", "--a", "3", "--q", "10"])
    assert code == 0
    assert doc["s"] == 13 and doc["upper"] == 59


def test_sdr_cli(capsys, tmp_path):
    lists = tmp_path / "lists.json"
    lists.write_text(json.dumps({"lists": [[0, 1, 2, 3]] * 2}))
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps({"n": 4, "edges": [[0, 1]]}))
    code, doc = run_json(capsys, ["sdr", "--graph", str(graph), "--lists", str(lists)])
    assert code == 0 and doc["success"] is True
    assert len(doc["steps"]) == 2
    assert doc["steps"][0]["d"] >= 1


def test_experiment_csv_shape(capsys):
    code, out = run(capsys, ["experiment", "rt", "--a", "2", "--q", "8", "--trials", "3", "--seed", "1"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("# config:")
    assert lines[1] == "trial,Y,min_X_u,success"
    assert len(lines) == 5


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--a", "2", "--q", "0"], "error: need a >= 1 and q >= 1, got a=2, q=0\n"),
        (["--a", "0", "--q", "8"], "error: need a >= 1 and q >= 1, got a=0, q=8\n"),
        (["--a", "2", "--q", "8", "--r", "0"], "error: need a, q and r >= 1, got a=2, q=8, r=0\n"),
        (["--a", "2", "--q", "8", "--trials", "0"], "error: need max_trials >= 1, got 0\n"),
    ],
    ids=["q0", "a0", "r0", "trials0"],
)
def test_experiment_rejects_nonpositive_sizes(capsys, argv, message):
    code = main(["experiment", "rt", *argv])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == message


def test_byte_identical_reruns(capsys):
    argv = ["experiment", "rt", "--a", "2", "--q", "8", "--trials", "4", "--seed", "9"]
    _, first = run(capsys, argv)
    _, second = run(capsys, argv)
    assert first == second
    argv = ["sumchoice", "--family", "path", "--n", "4"]
    _, first = run(capsys, argv)
    _, second = run(capsys, argv)
    assert first == second


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["bounds", "--a", "2"])  # missing --q
    assert err.value.code == 2


def test_value_error_maps_to_usage_exit(capsys):
    code = main(["type2", "--a", "2", "--q", "4", "--f", "2,3,4"])
    assert code == 2


def test_verify_tables_fast_rows(capsys):
    code, out = run(capsys, ["verify-tables", "--only", "1,4,5"])
    assert code == 0
    assert out.count("PASS") == 3 and "FAIL" not in out


def test_verify_tables_trees_and_beta_rows_pinned(capsys):
    code, out = run(capsys, ["verify-tables", "--only", "2,9"])
    assert code == 0
    assert out == (
        "ROW  2 PASS trees on up to 6 vertices have sum choice number 2n-1: "
        "all 14 tree classes n<=6 give 2n-1\n"
        "ROW  9 PASS beta(2)=2 and beta(3)=2*sqrt(3) within tolerance: "
        "beta(2)=2.0, beta(3)=3.46421 (target 2*sqrt(3)=3.46410)\n"
        "OK (0 failing rows)\n"
    )


def test_verify_tables_stdout_pinned(capsys):
    code, out = run(capsys, ["verify-tables"])
    assert code == 0
    assert out == (
        "ROW  1 PASS closed forms vs exact search on K_{2,q} and K_{3,q}: "
        "exact==closed on [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), "
        "(3, 3)] -> [5, 8, 10, 13, 7, 10, 13]\n"
        "ROW  2 PASS trees on up to 6 vertices have sum choice number 2n-1: "
        "all 14 tree classes n<=6 give 2n-1\n"
        "ROW  3 PASS greedy back-degree bound on triangulations and random "
        "graphs: 5 triangulations within 4n-6 / max 6; greedy f sufficient "
        "on 50 random graphs\n"
        "ROW  4 PASS doubling construction is insufficient with the stated "
        "sizes: constr(2,1) and constr(2,2) insufficient; |L| = sqrt(q log2 "
        "a) exactly\n"
        "ROW  5 PASS lower bound <= closed form <= upper bound: (2,12): "
        "24.346 <= 32 <= 76; (2,20): 40.447 <= 50 <= 106; (3,100): 201.887 "
        "<= 235 <= 446\n"
        "ROW  6 PASS random transversal process succeeds on type-II "
        "assignments: 100 assignments (a=4,q=64,r=70,p=0.2731) all succeed "
        "with proper colorings\n"
        "ROW  7 PASS balanced Turan counts, greedy SDR, and sharp families: "
        "t(s,k) matches brute force (s<=20,k<=6); 500 SDR instances; sharp "
        "families blocked\n"
        "ROW  8 PASS type-II reduced criterion matches brute force: reduced "
        "criterion == brute force for a=2, q<=6, entries<=6; chi_sc2 "
        "agrees\n"
        "ROW  9 PASS beta(2)=2 and beta(3)=2*sqrt(3) within tolerance: "
        "beta(2)=2.0, beta(3)=3.46421 (target 2*sqrt(3)=3.46410)\n"
        "ROW 10 PASS split-graph sufficiency and insufficiency witnesses: "
        "upper_f sufficient on G_2,5 and G_3,4; 152 split witnesses all "
        "fail coloring\n"
        "OK (0 failing rows)\n"
    )


def test_verify_tables_unknown_row(capsys):
    assert main(["verify-tables", "--only", "99"]) == 2


@pytest.mark.parametrize("only", [",", " ", ""])
def test_verify_tables_only_names_no_row(capsys, only):
    assert main(["verify-tables", "--only", only]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "doc",
    [
        {"edges": [[0, 1]]},
        {"n": 2},
        [[0, 1]],
        {"n": 2, "edges": [[0, 1]], "parts": {"A": [0]}},
        {"n": 2, "edges": [[0, 1]], "parts": [[0], [1]]},
        {"n": "2", "edges": [[0, 1]]},
        {"n": 2.5, "edges": [[0, 1]]},
        {"n": 2, "edges": [[0]]},
        # any value that is not a JSON integer, and any edge that is not a
        # pair, is rejected, never truncated or coerced; float("inf") is
        # what 1e400 parses to
        {"n": 2, "edges": [[0, 1.7]]},
        {"n": 3, "edges": [["0", "2"]]},
        {"n": 3, "edges": [[True, 2]]},
        {"n": 3, "edges": [[0, 1, 2]]},
        {"n": True, "edges": []},
        {"n": 2, "edges": [[0, 1]], "parts": {"A": [0.9], "Q": [1]}},
        {"n": 2, "edges": [[0, float("inf")]]},
        {"n": 2, "edges": [[0, 1]], "parts": {"A": [float("inf")], "Q": [1]}},
    ],
)
def test_malformed_graph_json_exits_usage(capsys, tmp_path, doc):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(doc))
    code = main(["sumchoice", "--graph", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("doc", [{}, {"lists": 3}, {"lists": [["x"]]}])
def test_malformed_lists_json_exits_usage(capsys, tmp_path, doc):
    path = tmp_path / "lists.json"
    path.write_text(json.dumps(doc))
    code = main(["check", "--graph", str(FIXTURES / "k2.json"), "--lists", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


# Whole-stdout pins: each expected document is written out in full and the
# CLI's output must equal its sorted, indented dump byte for byte.
def dumped(doc):
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def sdr_files(tmp_path, graph, lists):
    paths = tmp_path / "g.json", tmp_path / "lists.json"
    paths[0].write_text(json.dumps(graph))
    paths[1].write_text(json.dumps({"lists": lists}))
    return ["--graph", str(paths[0]), "--lists", str(paths[1])]


@pytest.mark.parametrize(
    "argv, doc",
    [
        (
            ["constr", "--t", "2", "--ell", "1"],
            {
                "a": 4, "a_lists": [[0, 2], [0, 3], [1, 2], [1, 3]], "config": {"command": "constr"},
                "ell": 1, "insufficient": True, "n_colors": 4, "q": 2, "q_lists": [[0, 1], [2, 3]], "t": 2,
            },
        ),
        (
            ["split-bounds", "--a", "3", "--q", "10"],
            {
                "a": 3, "config": {"command": "split-bounds"}, "lower": 26.70820393249937, "q": 10, "s": 13,
                "upper": 59, "upper_f": [13, 13, 13, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2],
            },
        ),
        (
            ["type2", "--a", "2", "--q", "4", "--f", "2,2"],
            {
                "config": {"budget": 100000000, "command": "type2", "f": "2,2", "q": 4},
                "verdict": "insufficient",
                "witness": {"R": {"edges": [["1", "2"]], "vertices": ["1", "2"]}, "cost": 4, "x": {"1": 2, "2": 2}},
            },
        ),
        (
            ["type2", "--a", "2", "--q", "4", "--f", "2,3"],
            {"config": {"budget": 100000000, "command": "type2", "f": "2,3", "q": 4}, "verdict": "sufficient"},
        ),
        (
            ["bounds", "--a", "2", "--q", "12"],
            {
                "a": 2, "closed_form": 32, "config": {"command": "bounds", "log_base": "e"},
                "lb": 24.346086452784213, "q": 12, "sandwich_ok": True, "ub": 76,
            },
        ),
    ],
    ids=["constr", "split-bounds", "type2-insufficient", "type2-sufficient", "bounds"],
)
def test_stdout_pinned(capsys, argv, doc):
    assert run(capsys, argv) == (0, dumped(doc))


def test_sdr_stdout_pinned(capsys, tmp_path):
    files = sdr_files(tmp_path, {"n": 4, "edges": [[0, 1]]}, [[0, 1, 2, 3]] * 2)
    assert run(capsys, ["sdr", *files]) == (
        0,
        dumped(
            {
                "config": {"command": "sdr"},
                "list_indices": [0, 1],
                "representatives": [2, 3],
                "steps": [
                    {"closed_neighborhood": [2], "d": 1, "list_index": 0, "vertex": 2},
                    {"closed_neighborhood": [3], "d": 1, "list_index": 1, "vertex": 3},
                ],
                "success": True,
            }
        ),
    )


def test_sdr_failure_stdout_pinned(capsys, tmp_path):
    # both lists are the edge {0, 1}, which holds no independent pair
    files = sdr_files(tmp_path, {"n": 2, "edges": [[0, 1]]}, [[0, 1]] * 2)
    assert run(capsys, ["sdr", *files]) == (0, dumped({"config": {"command": "sdr"}, "success": False}))


def test_bounds_table_script_json_pinned(capsys, monkeypatch):
    script = load_script("bounds_table")
    monkeypatch.setattr(sys, "argv", ["bounds_table.py", "--a", "2", "--q-max", "12", "--format", "json"])
    assert script.main() == 0
    rows = [
        {"a": 2, "closed_form": 5, "lb": None, "q": 1, "sandwich_ok": None, "ub": None},
        {"a": 2, "closed_form": 8, "lb": None, "q": 2, "sandwich_ok": True, "ub": 26},
        {"a": 2, "closed_form": 10, "lb": None, "q": 3, "sandwich_ok": True, "ub": 32},
        {"a": 2, "closed_form": 13, "lb": None, "q": 4, "sandwich_ok": True, "ub": 38},
        {"a": 2, "closed_form": 15, "lb": None, "q": 5, "sandwich_ok": True, "ub": 44},
        {"a": 2, "closed_form": 18, "lb": None, "q": 6, "sandwich_ok": True, "ub": 50},
        {"a": 2, "closed_form": 20, "lb": None, "q": 7, "sandwich_ok": True, "ub": 54},
        {"a": 2, "closed_form": 22, "lb": None, "q": 8, "sandwich_ok": True, "ub": 58},
        {"a": 2, "closed_form": 25, "lb": None, "q": 9, "sandwich_ok": True, "ub": 64},
        {"a": 2, "closed_form": 27, "lb": None, "q": 10, "sandwich_ok": True, "ub": 68},
        {"a": 2, "closed_form": 29, "lb": None, "q": 11, "sandwich_ok": True, "ub": 72},
        {"a": 2, "closed_form": 32, "lb": 24.346086452784213, "q": 12, "sandwich_ok": True, "ub": 76},
    ]
    assert capsys.readouterr().out == dumped(rows)


def test_generate_out_writes_the_graph_and_echoes_it(capsys, tmp_path):
    out = tmp_path / "k23.json"
    code, doc = run_json(capsys, ["generate", "--family", "complete_bipartite", "--a", "2", "--q", "3", "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text()) == graph_to_json(complete_bipartite(2, 3))
    assert doc == {"written": str(out), "n": 5, "edges": 6, "config": {"command": "generate", "seed": 0}}


def test_generate_out_into_a_missing_directory_exits_usage(capsys, tmp_path):
    out = tmp_path / "missing" / "g.json"
    code = main(["generate", "--family", "path", "--n", "3", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "" and not out.exists()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
