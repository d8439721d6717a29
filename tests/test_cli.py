import csv
import io
import json

import numpy as np
import pytest

from async_dca import StochasticMatrix, _kernels, bundled_matrix, montecarlo
from async_dca.cli import _write_csv, dispatch
from async_dca.rng import SEED_CONTRACT
from _oracles import write_csv_rows


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
    # a negative count is named as such, whatever the source
    for source in ([], ["--scheduler", uniform_clock]):
        code, out, err = run_cli(capsys, "simulate", "--matrix", six_node,
                                 "--steps", "-1", *source)
        assert code == 2 and "--steps must be >= 0" in err and out == ""

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


def test_verify_conditions_decides_coverage_over_the_period(six_node, tmp_path, capsys):
    # agent 6 is drawable only at tick 20 of 20; there is no window cap to set
    spec = tmp_path / "spec.json"
    ticks = [[{"set": [(k - 1) % 5 + 1], "prob": 1.0}] for k in range(1, 20)]
    ticks.append([{"set": [6], "prob": 1.0}])
    spec.write_text(json.dumps({"kind": "support_sequence", "params": {"n": 6, "ticks": ticks}}))
    code, out, _ = run_cli(capsys, "verify-conditions", "--matrix", six_node,
                           "--scheduler", str(spec))
    assert code == 0
    coverage = json.loads(out)["conditions"]["joint_coverage"]
    assert coverage["passed"] and coverage["witness"] == {"q": 20, "period": 20}
    code, out, err = run_cli(capsys, "verify-conditions", "--matrix", six_node,
                             "--scheduler", str(spec), "--q-max", "20")
    assert code == 2 and "--q-max" in err and out == ""


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


def test_walk_cli_on_a_long_cycle(tmp_path, capsys):
    # the certificate steps the distance chain as its band, so a cycle whose
    # dense chain would take 128 MB needs only O(l) memory
    cycle = tmp_path / "cycle.json"
    cycle.write_text(json.dumps({"length": 4000, "labels": [1 + p % 7 for p in range(4000)]}))
    code, out, _ = run_cli(capsys, "walk", "--cycle", str(cycle), "--gamma", "0.2",
                           "--kmax", "30", "--trials", "20", "--out", str(tmp_path / "w.csv"))
    assert code == 0
    summary = json.loads(out)
    assert summary["cycle_length"] == 4000 and 0.0 < summary["beta"] < 1.0


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
    "rows-number": ("matrix", {"n": 1, "rows": 5}),
    "rows-of-numbers": ("matrix", {"n": 1, "rows": [5]}),
    "rows-null": ("matrix", {"n": 2, "rows": None}),
    "rows-string-entry": ("matrix", {"n": 1, "rows": [["1"]]}),
    "rows-bool-entry": ("matrix", {"n": 1, "rows": [[True]]}),
    "matrix-n-bool": ("matrix", {"n": True, "rows": [[1.0]]}),
    "schedule-number": ("schedule", 5),
    "schedule-null": ("schedule", None),
    "schedule-bool-set": ("schedule", [True]),
    "schedule-bool-member": ("schedule", [[True]]),
    "x0-string-and-bool": ("x0", ["1", True, 0.5, 0, 0, 0]),
    "prob-string": ("scheduler", _support(prob="x")),
    "prob-numeric-string": ("scheduler", _support(prob="1")),
    "prob-bool": ("scheduler", _support(prob=True)),
    "n-string": ("scheduler", _support(n="x")),
    "n-fraction": ("scheduler", _support(n=6.5)),
    "n-bool": ("one-node scheduler", {"kind": "script", "params": {"n": True, "sets": [[1]]}}),
    "p-string": ("scheduler", {"kind": "global_clock", "params": {"p": ["a"]}}),
    "global-clock-p-numeric-strings": ("scheduler", {"kind": "global_clock", "params": {
        "p": ["0.5", "0.5", 0, 0, 0, 0]}}),
    "independent-clocks-p-bool-and-string": ("scheduler", {
        "kind": "independent_clocks", "params": {"p": [True, "0.5", 0.5, 0.5, 0.5, 0.5]}}),
    "markov-matrix-string": ("scheduler", {"kind": "markov", "params": {
        "n": 6, "states": [[1]], "initial": [1], "matrix": [["a"]]}}),
    "markov-matrix-numeric-string": ("scheduler", {"kind": "markov", "params": {
        "n": 6, "states": [[1], [2]], "initial": [1], "matrix": [["0.5", 0.5], [0.5, "0.5"]]}}),
    "member-string": ("scheduler", _support(member="a")),
    "member-fraction": ("scheduler", _support(member=1.5)),
    "member-bool": ("scheduler", _support(member=True)),
    "repeat-string": ("scheduler", {"kind": "script", "params": {
        "n": 6, "sets": [[1]], "repeat": "false"}}),
    "kind-list": ("scheduler", {"kind": [1], "params": {}}),
    "label-string": ("cycle", {"length": 2, "labels": ["a", 1]}),
    "label-fraction": ("cycle", {"length": 2, "labels": [1.5, 1]}),
    "label-bool": ("cycle", {"length": 2, "labels": [True, 2]}),
    "length-string": ("cycle", {"length": "x", "labels": [1, 2]}),
    "length-fraction": ("cycle", {"length": 2.5, "labels": [1, 2]}),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_json_exits_2(case, six_node, tmp_path, capsys):
    # a value of the wrong type, or a non-integral index, is an input error
    what, payload = MALFORMED[case]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    one_node = tmp_path / "one.json"
    one_node.write_text(json.dumps({"n": 1, "rows": [[1.0]]}))
    argv = {
        "matrix": ["analyze", "--matrix", str(path)],
        "scheduler": ["verify-conditions", "--matrix", six_node, "--scheduler", str(path)],
        "one-node scheduler": ["verify-conditions", "--matrix", str(one_node),
                               "--scheduler", str(path)],
        "schedule": ["simulate", "--matrix", six_node, "--schedule", str(path)],
        "x0": ["simulate", "--matrix", six_node, "--x0", str(path)],
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


def test_dimension_mismatch_is_input_error(six_node, tmp_path, capsys):
    clock4 = tmp_path / "clock4.json"
    clock4.write_text(json.dumps({"kind": "global_clock", "params": {"p": [0.25] * 4}}))
    code, _, err = run_cli(capsys, "mc", "--matrix", six_node,
                           "--scheduler", str(clock4), "--trials", "2",
                           "--steps", "10")
    assert code == 2 and "n=4" in err


_VERIFY = "verify-conditions --matrix {matrix} --scheduler {input}"


def _support_sequence(n, ticks):
    return {"kind": "support_sequence", "params": {"n": n, "ticks": ticks}}


def _markov(**params):
    # a valid two-state law on six agents, less or more what ``params`` says
    base = {"n": 6, "states": [[1], [2]], "initial": [1], "matrix": [[0.5, 0.5], [0.5, 0.5]]}
    return {"kind": "markov",
            "params": {k: v for k, v in {**base, **params}.items() if v is not None}}


# {matrix} is six_node_coupled, {clock} a uniform global clock and {input}
# the row's payload as a JSON file
INPUT_ERRORS = {
    "mc-negative-seed": (None, "mc --matrix {matrix} --scheduler {clock} --trials 2 --steps 5 "
                               "--seed -1"),
    "simulate-negative-seed": (None, "simulate --matrix {matrix} --scheduler {clock} --steps 5 "
                                     "--seed -1"),
    "walk-negative-seed": (None, "walk --auto-from-matrix {matrix} --gamma 0.2 --kmax 5 "
                                 "--trials 10 --seed -1"),
    "repro-all-negative-seed": (None, "repro all --seed -1"),
    "repro-example2-negative-seed": (None, "repro example2 --seed -1"),
    "repro-example3-negative-seed": (None, "repro example3 --seed -1"),
    "repro-strongly-aperiodic-negative-seed": (None, "repro strongly_aperiodic --seed -1"),
    "cycle-label-2**63": ({"length": 2, "labels": [1, 2 ** 63]},
                          "walk --cycle {input} --gamma 0.2 --kmax 5 --trials 10"),
    "scheduler-n-10**30": ({"kind": "script", "params": {"n": 10 ** 30, "sets": [[1], [2]]}},
                           "verify-conditions --matrix {matrix} --scheduler {input}"),
    "p-non-numeric": ({"kind": "global_clock", "params": {"p": ["a"] * 6}},
                      "mc --matrix {matrix} --scheduler {input}"),
    "scheduler-size-mismatch": ({"kind": "global_clock", "params": {"p": [0.25] * 4}},
                                "simulate --matrix {matrix} --scheduler {input} --steps 5"),
    "simulate-scheduler-without-steps": (None, "simulate --matrix {matrix} --scheduler {clock}"),
    "simulate-x0-wrong-length": ([0.5, 0.25], "simulate --matrix {matrix} --x0 {input} "
                                              "--scheduler {clock} --steps 5"),
    "simulate-zero-steps-negative-seed": (None, "simulate --matrix {matrix} --steps 0 --seed -1"),
    "scheduler-json-list": ([{"kind": "global_clock"}], _VERIFY),
    "independent-clocks-p-2d": ({"kind": "independent_clocks", "params": {"p": [[0.5] * 6]}},
                                _VERIFY),
    "global-clock-p-2d": ({"kind": "global_clock", "params": {"p": [[1 / 6] * 6]}}, _VERIFY),
    "support-sequence-n-0": (_support_sequence(0, [[{"set": [1], "prob": 1.0}]]), _VERIFY),
    "support-sequence-no-ticks": (_support_sequence(6, []), _VERIFY),
    "support-sequence-repeated-set": (
        _support_sequence(6, [[{"set": [1], "prob": 0.5}, {"set": [1], "prob": 0.5}]]), _VERIFY),
    "markov-n-0": (_markov(n=0), _VERIFY),
    "markov-duplicate-states": (_markov(states=[[1], [1]]), _VERIFY),
    "markov-initial-not-a-state": (_markov(initial=[3]), _VERIFY),
    "markov-matrix-and-matrices": (_markov(matrices=[[[0.5, 0.5], [0.5, 0.5]]]), _VERIFY),
    "markov-matrices-empty": (_markov(matrix=None, matrices=[]), _VERIFY),
    "markov-1x1-law-for-two-states": (_markov(matrix=[[1.0]]), _VERIFY),
    "script-n-0": ({"kind": "script", "params": {"n": 0, "sets": []}}, _VERIFY),
    "cycle-empty-object": ({}, "walk --cycle {input} --gamma 0.2 --kmax 5 --trials 10"),
    "matrix-ragged-rows": ({"n": 2, "rows": [[1.0], [0.5, 0.5]]}, "analyze --matrix {input}"),
}


@pytest.mark.parametrize("case", sorted(INPUT_ERRORS))
def test_input_errors_exit_2_on_one_line(case, six_node, uniform_clock, tmp_path, capsys):
    # an input error is one "async-dca: " line and exit code 2, never an
    # escaped exception, whose exit code 1 would read as a failed replay
    payload, command = INPUT_ERRORS[case]
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    argv = [arg.format(matrix=six_node, clock=uniform_clock, input=path)
            for arg in command.split()]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("async-dca: ")
    assert "Traceback" not in err


RAGGED = {
    "matrix-rows": ({"n": 2, "rows": [[1.0], [0.5, 0.5]]}, "analyze --matrix {input}",
                    "'rows' is ragged: the entry at index [2] is a list of length 2, "
                    "not a list of length 1"),
    "markov-matrix": (_markov(matrix=[[0.5, 0.5], [1.0]]), _VERIFY,
                      "'matrix' is ragged: the entry at index [2] is a list of length 1, "
                      "not a list of length 2"),
    "clock-p": ({"kind": "global_clock", "params": {"p": [0.2] * 5 + [[0.0]]}}, _VERIFY,
                "'p' is ragged: the entry at index [6] is a list of length 1, not a number"),
    "x0": ([[0.5], 0, 0, 0, 0, 0], "simulate --matrix {matrix} --x0 {input} --scheduler {clock} "
           "--steps 5", "--x0 file is ragged: the entry at index [2] is 0, not a list of length 1"),
}


@pytest.mark.parametrize("case", sorted(RAGGED))
def test_ragged_input_names_the_entry_of_the_wrong_length(case, six_node, uniform_clock,
                                                         tmp_path, capsys):
    payload, command, message = RAGGED[case]
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    argv = [arg.format(matrix=six_node, clock=uniform_clock, input=path)
            for arg in command.split()]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"async-dca: invalid input: {message}\n"


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


def _csv_writer_bytes(header, *columns):
    fh = io.StringIO(newline="")
    write_csv_rows(fh, header, *columns)
    return fh.getvalue().encode()


def _repeats(size, seed=5):
    # runs of equal values, -0.0 and 0.0 among them
    values = np.array([0.0, -0.0, 1 / 3, 2e-308, -7.25])
    return values[np.repeat(np.random.default_rng(seed).integers(0, 5, size // 3 + 1), 3)[:size]]


CSV_COLUMNS = [
    pytest.param([np.arange(7), np.array([0.0, -0.0, -0.0, 0.0, 0.0, -0.0, 0.0])],
                 id="signed-zeros"),
    pytest.param([np.arange(11), np.array([5e-324, 1e16, 1e-05, 0.1 + 0.2, 0.1 + 0.2, 1e16,
                                           5e-324, np.nan, np.inf, -np.inf, 1e-05])],
                 id="shortest-reprs"),
    pytest.param([np.arange(4700), np.r_[np.full(4090, 0.1), np.full(610, 0.5)],
                  np.r_[np.full(4096, 0.25), np.full(604, -0.0)]], id="runs-across-chunks"),
    pytest.param([np.arange(1, 4097), _repeats(4096), _repeats(4096, 6)], id="4096-rows"),
    pytest.param([np.arange(1, 4098), _repeats(4097), _repeats(4097, 6)], id="4097-rows"),
    pytest.param([np.arange(-5000, 5000, 3)], id="int-column"),
]


@pytest.mark.parametrize("columns", CSV_COLUMNS)
def test_csv_writer_writes_the_bytes_of_csv_writer(tmp_path, columns):
    # each run of bit-equal floats is formatted once: runs split on bits,
    # so -0.0 next to 0.0 keeps its sign
    header = ["k"] + [f"c{j}" for j in range(1, len(columns))]
    path = tmp_path / "out.csv"
    _write_csv(str(path), header, *columns)
    assert path.read_bytes() == _csv_writer_bytes(header, *columns)


@pytest.mark.parametrize("out", [None, "-"])
def test_csv_writer_to_stdout_writes_the_bytes_of_csv_writer(capsysbinary, out):
    columns = [np.arange(1, 4098), _repeats(4097), _repeats(4097, 6)]
    _write_csv(out, ["k", "a", "b"], *columns)
    assert capsysbinary.readouterr().out == _csv_writer_bytes(["k", "a", "b"], *columns)


def test_simulate_zero_steps_writes_the_header_of_csv_writer(six_node, tmp_path):
    out = tmp_path / "run.csv"
    assert dispatch(["simulate", "--matrix", six_node, "--steps", "0", "--out", str(out)]) == 0
    empty = np.empty(0)
    assert out.read_bytes() == _csv_writer_bytes(["k", "delta", "lambda_product"],
                                                 np.arange(0), empty, empty)


def test_mc_product_row_error_exits_2(six_node, uniform_clock, tmp_path, capsys, monkeypatch):
    # the pipeline checks the row sums after each block, for mc as for simulate
    real = _kernels.trajectory_batch

    def drifting(*args):
        deltas, lams, carry = real(*args)
        carry.row_err[:] = 1e-9
        return deltas, lams, carry

    monkeypatch.setattr(_kernels, "trajectory_batch", drifting)
    tails, summary = tmp_path / "tails.csv", tmp_path / "summary.json"
    for lam in ([], ["--no-lambda"]):
        code, out, err = run_cli(capsys, "mc", "--matrix", six_node, "--scheduler", uniform_clock,
                                 "--trials", "3", "--steps", "50", "--out", str(tails),
                                 "--summary", str(summary), *lam)
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and "row sum" in err
        assert not tails.exists() and not summary.exists()


def test_mc_zero_steps_writes_the_initial_row(six_node, uniform_clock, tmp_path, capsys):
    # k = 0 holds the tails of the initial states, which a longer run with
    # the same seed draws first
    rows = {}
    for steps in ("0", "30"):
        out = tmp_path / f"tails{steps}.csv"
        code, summary, _ = run_cli(capsys, "mc", "--matrix", six_node, "--scheduler",
                                   uniform_clock, "--trials", "4", "--steps", steps,
                                   "--seed", "77", "--out", str(out))
        assert code == 0 and json.loads(summary)["horizon"] == int(steps)
        rows[steps] = out.read_bytes().split(b"\r\n")
    assert rows["0"] == [b"k,p_delta_tail,p_lambda_tail", b"0,1.0,1.0", b""]
    assert rows["0"][:2] == rows["30"][:2]


def test_zero_step_runs_make_no_kernel_call(six_node, uniform_clock, tmp_path, capsys,
                                            monkeypatch):
    # step 0 is the pipeline's own first block, yielded before any draw
    def unreachable(*args):
        raise AssertionError("a zero-step run called the trajectory kernel")

    monkeypatch.setattr(_kernels, "trajectory_batch", unreachable)
    empty = tmp_path / "empty.json"
    empty.write_text("[]")
    for argv in (["mc", "--matrix", six_node, "--scheduler", uniform_clock, "--steps", "0"],
                 ["simulate", "--matrix", six_node, "--steps", "0"],
                 ["simulate", "--matrix", six_node, "--schedule", str(empty)]):
        code, _, err = run_cli(capsys, *argv, "--out", str(tmp_path / "out.csv"))
        assert code == 0, err


@pytest.mark.parametrize("rows, p", [([[0.5, 0.5 - 9e-13], [0.5, 0.5]], [0.5, 0.5]),
                                     ([[1 - 5e-13]], [1.0])], ids=["two-agents", "one-agent"])
def test_mc_accepts_the_product_drift_of_rows_that_miss_one(rows, p, tmp_path, capsys):
    # input rows may miss 1 by up to ROW_SUM_TOL, and after k steps the
    # product's row sums by up to (1 + d)^k - 1; the gate allows that drift
    # on top of PRODUCT_ROW_SUM_TOL, which alone it outgrows within 1000 steps
    matrix, scheduler = tmp_path / "m.json", tmp_path / "s.json"
    StochasticMatrix(rows).save(matrix)
    scheduler.write_text(json.dumps({"kind": "global_clock", "params": {"p": p}}))
    code, out, err = run_cli(capsys, "mc", "--matrix", str(matrix), "--scheduler", str(scheduler),
                             "--trials", "10", "--steps", "5000", "--out", str(tmp_path / "t.csv"))
    assert code == 0, err
    assert 1e-10 < json.loads(out)["max_product_row_error"] < 3e-9


def test_repro_exits_1_when_the_replays_own_check_fails(capsys, monkeypatch):
    monkeypatch.setattr(montecarlo, "NONCONSENSUS_DELTA", 10.0)
    code, out, _ = run_cli(capsys, "repro", "period3_markov")
    assert code == 1
    report = json.loads(out)
    assert report["ok"] is False
    assert report["failures"] == ["median final discrepancy stays above 10.0"]
