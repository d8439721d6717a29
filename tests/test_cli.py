import csv
import io
import json

import numpy as np
import pytest

from async_dca import bundled_matrix
from async_dca.cli import dispatch
from async_dca.rng import SEED_CONTRACT


@pytest.fixture
def six_node(tmp_path):
    path = tmp_path / "six.json"
    bundled_matrix("six_node_coupled").save(path)
    return str(path)


@pytest.fixture
def uniform_clock(tmp_path):
    path = tmp_path / "clock.json"
    path.write_text(json.dumps({"kind": "global_clock", "params": {"p": [1 / 6] * 6}}))
    return str(path)


def run_cli(capsys, *argv):
    code = dispatch(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_analyze_reports_structure(six_node, capsys):
    code, out, _ = run_cli(capsys, "analyze", "--matrix", six_node)
    assert code == 0
    report = json.loads(out)
    assert report["rooted"] is True
    assert report["sia"] is False
    assert report["scrambling"] is False


def test_analyze_to_file(six_node, tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, _, _ = run_cli(capsys, "analyze", "--matrix", six_node, "--out", str(out_path))
    assert code == 0
    assert json.loads(out_path.read_text())["roots"] == [1, 3, 4, 6]


def test_simulate_schedule_file(tmp_path, capsys):
    matrix = tmp_path / "swap.json"
    bundled_matrix("two_node_swap").save(matrix)
    schedule = tmp_path / "sched.json"
    schedule.write_text(json.dumps([[2], [1]]))
    code, out, _ = run_cli(capsys, "simulate", "--matrix", str(matrix),
                           "--schedule", str(schedule), "--seed", "9")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["k"] for r in rows] == ["1", "2"]
    assert float(rows[1]["delta"]) == 0.0
    assert float(rows[1]["lambda_product"]) == 0.0


def test_simulate_zero_steps_header_only(six_node, uniform_clock, capsys):
    code, out, _ = run_cli(capsys, "simulate", "--matrix", six_node,
                           "--scheduler", uniform_clock, "--steps", "0")
    assert code == 0
    assert out.strip() == "k,delta,lambda_product"


def test_simulate_deterministic_given_seed(six_node, uniform_clock, capsys):
    args = ("simulate", "--matrix", six_node, "--scheduler", uniform_clock,
            "--steps", "50", "--seed", "21")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_simulate_no_product_drops_column(six_node, uniform_clock, capsys):
    code, out, _ = run_cli(capsys, "simulate", "--matrix", six_node,
                           "--scheduler", uniform_clock, "--steps", "3",
                           "--no-product")
    assert code == 0
    header = out.splitlines()[0]
    assert header == "k,delta"


def test_simulate_source_requirements(six_node, uniform_clock, tmp_path, capsys):
    code, _, err = run_cli(capsys, "simulate", "--matrix", six_node,
                           "--steps", "5")
    assert code == 2 and "required for steps > 0" in err

    # a zero-step run needs no schedule at all
    code, out, _ = run_cli(capsys, "simulate", "--matrix", six_node, "--steps", "0")
    assert code == 0 and out.strip() == "k,delta,lambda_product"

    schedule = tmp_path / "sched.json"
    schedule.write_text(json.dumps([[1]]))
    code, _, err = run_cli(capsys, "simulate", "--matrix", six_node,
                           "--schedule", str(schedule),
                           "--scheduler", uniform_clock)
    assert code == 2


def test_mc_outputs_csv_and_summary(six_node, uniform_clock, tmp_path, capsys):
    csv_path = tmp_path / "tails.csv"
    code, out, _ = run_cli(capsys, "mc", "--matrix", six_node,
                           "--scheduler", uniform_clock,
                           "--trials", "10", "--steps", "200",
                           "--out", str(csv_path))
    assert code == 0
    summary = json.loads(out)
    assert summary["trials"] == 10
    assert summary["backend"] == "numpy"
    assert summary["seed_contract"] == SEED_CONTRACT == 3
    assert 0.0 <= summary["consensus_fraction"] <= 1.0
    rows = list(csv.DictReader(csv_path.open()))
    assert len(rows) == 201
    for row in rows:
        assert 0.0 <= float(row["p_delta_tail"]) <= 1.0
        assert 0.0 <= float(row["p_lambda_tail"]) <= 1.0


def test_verify_conditions_cli(tmp_path, capsys):
    matrix = tmp_path / "rooted4.json"
    bundled_matrix("four_node_rooted").save(matrix)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "kind": "support_sequence",
        "params": {"n": 4, "ticks": [[
            {"set": [1, 2, 4], "prob": 1 / 3},
            {"set": [1, 3, 4], "prob": 1 / 3},
            {"set": [2, 3], "prob": 1 / 3},
        ]]},
    }))
    code, out, _ = run_cli(capsys, "verify-conditions", "--matrix", str(matrix),
                           "--scheduler", str(spec))
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert report["conditions"]["joint_coverage"]["witness"]["q"] == 1
    assert report["conditions"]["quasi_singleton"]["witness"]["chi"] == [1, 2, 3]


def test_walk_cli_with_cycle_file(tmp_path, capsys):
    cycle = tmp_path / "cycle.json"
    cycle.write_text(json.dumps({"length": 6, "labels": [1, 2, 4, 3, 2, 4]}))
    csv_path = tmp_path / "walk.csv"
    code, out, _ = run_cli(capsys, "walk", "--cycle", str(cycle),
                           "--gamma", "0.2", "--kmax", "60",
                           "--trials", "300", "--out", str(csv_path))
    assert code == 0
    summary = json.loads(out)
    assert summary["cycle_length"] == 6
    assert 0 < summary["beta"] < 1
    assert summary["seed_contract"] == SEED_CONTRACT
    rows = list(csv.DictReader(csv_path.open()))
    assert len(rows) == 60
    emp = [float(r["empirical_match_prob"]) for r in rows]
    assert emp == sorted(emp)


def test_walk_cli_auto_from_matrix(six_node, capsys):
    code, out, _ = run_cli(capsys, "walk", "--auto-from-matrix", six_node,
                           "--gamma", "0.25", "--kmax", "40", "--trials", "200",
                           "--out", "-")
    assert code == 0


def test_walk_cli_c0_does_not_grow_with_kmax(tmp_path, capsys):
    # the 3-cycle's distance chain absorbs to within rounding long before
    # k = 200; c0 must not be read off that rounding floor at k = kmax
    matrix = tmp_path / "three.json"
    bundled_matrix("three_node_cycle").save(matrix)
    c0s = []
    for kmax in ("200", "1000"):
        csv_path = tmp_path / "walk.csv"
        code, out, _ = run_cli(capsys, "walk", "--auto-from-matrix", str(matrix),
                               "--gamma", "0.2", "--kmax", kmax, "--trials", "200",
                               "--out", str(csv_path))
        assert code == 0
        c0s.append(json.loads(out)["c0"])
        first = next(csv.DictReader(csv_path.open()))
        assert float(first["bound_1_minus_c0_beta_k"]) >= -1.0
    assert c0s[0] == c0s[1] <= 2.0


def test_walk_cli_on_a_one_node_root_component(tmp_path, capsys):
    # a stubborn agent 1 is the whole root component: a cycle of one position
    matrix = tmp_path / "stubborn.json"
    matrix.write_text(json.dumps({"n": 2, "rows": [[1, 0], [0.5, 0.5]]}))
    cycle = tmp_path / "cycle.json"
    cycle.write_text(json.dumps({"length": 1, "labels": [1]}))
    for source in (("--auto-from-matrix", str(matrix)), ("--cycle", str(cycle))):
        csv_path = tmp_path / "walk.csv"
        code, out, _ = run_cli(capsys, "walk", *source, "--gamma", "0.2", "--kmax", "12",
                               "--trials", "40", "--out", str(csv_path))
        assert code == 0
        summary = json.loads(out)
        assert summary["cycle_length"] == 1
        assert summary["c0"] == 0.0 and summary["beta"] == 0.0
        assert summary["match_prob_at_kmax"] == 1.0
        rows = list(csv.DictReader(csv_path.open()))
        assert len(rows) == 12
        assert {(r["empirical_match_prob"], r["bound_1_minus_c0_beta_k"]) for r in rows} == {
            ("1.0", "1.0")}


def test_repro_success_and_failure(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, "repro", "example3")
    assert code == 0
    assert json.loads(out)["ok"] is True

    import async_dca.cli as cli_mod

    class FakeReport:
        ok = False

        def to_json(self):
            return {"case": "example3", "ok": False}

    monkeypatch.setattr(cli_mod, "replay", lambda *a, **k: FakeReport())
    code, out, _ = run_cli(capsys, "repro", "example3")
    assert code == 1


def test_repro_all_runs_every_case(capsys):
    code, out, _ = run_cli(capsys, "repro", "all", "--trials", "30")
    assert code == 0
    reports = json.loads(out)
    assert len(reports) == 6
    assert all(r["ok"] for r in reports)


def test_error_exit_codes(six_node, tmp_path, capsys):
    code, _, _ = run_cli(capsys, "frobnicate")
    assert code == 2

    code, _, err = run_cli(capsys, "analyze", "--matrix", str(tmp_path / "nope.json"))
    assert code == 2 and "nope.json" in err

    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    code, _, err = run_cli(capsys, "analyze", "--matrix", str(broken))
    assert code == 2 and "JSON" in err

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": 2, "rows": [[0.5, 0.6], [1, 0]]}))
    code, _, err = run_cli(capsys, "analyze", "--matrix", str(bad))
    assert code == 2 and "invalid input" in err


def test_non_finite_inputs_exit_2(six_node, uniform_clock, tmp_path, capsys):
    nan_matrix = tmp_path / "nan.json"
    nan_matrix.write_text(json.dumps({"n": 2, "rows": [[float("nan"), 1.0], [0.5, 0.5]]}))
    code, out, err = run_cli(capsys, "analyze", "--matrix", str(nan_matrix))
    assert code == 2 and "non-finite" in err and out == ""

    nan_clock = tmp_path / "nan_clock.json"
    nan_clock.write_text(json.dumps({"kind": "global_clock",
                                     "params": {"p": [float("nan"), 1.0]}}))
    bundled_matrix("two_node_swap").save(tmp_path / "swap.json")
    code, out, err = run_cli(capsys, "mc", "--matrix", str(tmp_path / "swap.json"),
                             "--scheduler", str(nan_clock), "--trials", "2", "--steps", "5")
    assert code == 2 and "invalid input" in err and out == ""

    code, out, err = run_cli(capsys, "mc", "--matrix", six_node, "--scheduler", uniform_clock,
                             "--trials", "2", "--steps", "5", "--epsilon", "nan")
    assert code == 2 and "epsilon" in err and out == ""


def _support(n=6, member=1, prob=1.0):
    return {"kind": "support_sequence",
            "params": {"n": n, "ticks": [[{"set": [member], "prob": prob}]]}}


MALFORMED = {
    "matrix-n-string": ("matrix", {"n": "abc", "rows": [[1.0]]}),
    "matrix-n-fraction": ("matrix", {"n": 1.5, "rows": [[1.0]]}),
    "prob-string": ("scheduler", _support(prob="x")),
    "n-string": ("scheduler", _support(n="x")),
    "n-fraction": ("scheduler", _support(n=6.5)),
    "p-string": ("scheduler", {"kind": "global_clock", "params": {"p": ["a"]}}),
    "markov-matrix-string": ("scheduler", {"kind": "markov", "params": {
        "n": 6, "states": [[1]], "initial": [1], "matrix": [["a"]]}}),
    "member-string": ("scheduler", _support(member="a")),
    "member-fraction": ("scheduler", _support(member=1.5)),
    "kind-list": ("scheduler", {"kind": [1], "params": {}}),
    "label-string": ("cycle", {"length": 2, "labels": ["a", 1]}),
    "label-fraction": ("cycle", {"length": 2, "labels": [1.5, 1]}),
    "length-string": ("cycle", {"length": "x", "labels": [1, 2]}),
    "length-fraction": ("cycle", {"length": 2.5, "labels": [1, 2]}),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_json_exits_2(case, six_node, tmp_path, capsys):
    # a value of the wrong type, or a non-integral index, is an input error
    what, payload = MALFORMED[case]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    argv = {
        "matrix": ["analyze", "--matrix", str(path)],
        "scheduler": ["verify-conditions", "--matrix", six_node, "--scheduler", str(path)],
        "cycle": ["walk", "--cycle", str(path), "--gamma", "0.2", "--kmax", "5",
                  "--trials", "10"],
    }[what]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and "invalid input" in err and out == ""


def test_repro_zero_trials_or_steps_exit_2(capsys):
    for flag in ("--trials", "--steps"):
        code, out, err = run_cli(capsys, "repro", "period3_markov", flag, "0")
        assert code == 2 and "trials >= 1" in err and out == ""


def test_repro_bad_counts_exit_2_without_monte_carlo(capsys):
    # example2, example3 and strongly_aperiodic run no Monte Carlo
    for case, flag, value in (("example2", "--trials", "0"),
                              ("strongly_aperiodic", "--steps", "-5"),
                              ("example3", "--trials", "-1")):
        code, out, err = run_cli(capsys, "repro", case, flag, value)
        assert code == 2 and "trials >= 1" in err and out == ""


def test_verify_conditions_q_max_below_one_exit_2(six_node, uniform_clock, capsys):
    for q_max in ("0", "-1"):
        code, out, err = run_cli(capsys, "verify-conditions", "--matrix", six_node,
                                 "--scheduler", uniform_clock, "--q-max", q_max)
        assert code == 2 and "q_max" in err and out == ""


def test_dimension_mismatch_is_input_error(six_node, tmp_path, capsys):
    clock4 = tmp_path / "clock4.json"
    clock4.write_text(json.dumps({"kind": "global_clock", "params": {"p": [0.25] * 4}}))
    code, _, err = run_cli(capsys, "mc", "--matrix", six_node,
                           "--scheduler", str(clock4), "--trials", "2",
                           "--steps", "10")
    assert code == 2 and "n=4" in err


@pytest.mark.parametrize("out", [None, "-"])
def test_csv_to_stdout_leaves_it_open(six_node, uniform_clock, monkeypatch, out):
    # the CSV goes to the sys.stdout of the call, which stays open after
    # simulate, mc and walk
    fake = io.StringIO()
    monkeypatch.setattr("sys.stdout", fake)
    to = [] if out is None else ["--out", out]
    argvs = [
        ["simulate", "--matrix", six_node, "--scheduler", uniform_clock, "--steps", "5"],
        ["mc", "--matrix", six_node, "--scheduler", uniform_clock, "--trials", "3",
         "--steps", "5", "--summary", "-"],
        ["walk", "--auto-from-matrix", six_node, "--gamma", "0.2", "--kmax", "5",
         "--trials", "20", "--summary", "-"],
    ]
    for argv in argvs:
        assert dispatch(argv + to) == 0
        assert not fake.closed
    text = fake.getvalue()
    assert text.count("k,delta,lambda_product") == 1
    assert text.count("k,p_delta_tail,p_lambda_tail") == 1
    assert text.count("k,empirical_match_prob,bound_1_minus_c0_beta_k") == 1
