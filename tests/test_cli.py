"""Command line behaviour: subcommands, output shapes, exit codes."""

import json

import pytest

import hpng.cli
import hpng.simulate
import hpng.tree
from hpng.cli import main

from conftest import MODELS

RESERVOIR = str(MODELS / "reservoir.json")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_validate_ok(capsys):
    code, out, err = run(capsys, "validate", RESERVOIR)
    assert code == 0
    assert out.startswith("ok:")
    assert "2 discrete places" in out
    assert "4 transitions" in out


def test_validate_missing_file(capsys):
    code, _, err = run(capsys, "validate", "no/such/model.json")
    assert code == 1
    assert "error:" in err


def test_validate_broken_model(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"places": {}, "transitions": {}, "arcs": '
                   '{"discrete": [{"from": "a", "to": "b"}]}}')
    code, _, err = run(capsys, "validate", str(bad))
    assert code == 1
    assert "error:" in err


@pytest.mark.parametrize("text", [
    "[]",
    '{"places": {"discrete": [{"id": "p"}]}, "transitions": {"immediate": [{"id": "t"}]}, '
    '"arcs": {"discrete": [{"from": "p"}]}}',
], ids=["array", "arc-without-to"])
def test_validate_malformed_document_exits_one(tmp_path, capsys, text):
    bad = tmp_path / "malformed.json"
    bad.write_text(text)
    code, out, err = run(capsys, "validate", str(bad))
    assert code == 1
    assert err.startswith("error:") and out == ""


def test_validate_a_directory_exits_one(tmp_path, capsys):
    code, out, err = run(capsys, "validate", str(tmp_path))
    assert code == 1
    assert err.startswith("error:") and out == ""


def test_plt_output_to_a_directory_exits_one(tmp_path, capsys):
    code, out, err = run(capsys, "plt", RESERVOIR, "--tau-max", "2", "-o", str(tmp_path))
    assert code == 1
    assert err.startswith("error:") and out == ""


def test_plt_json(capsys):
    code, out, _ = run(capsys, "plt", RESERVOIR, "--tau-max", "10")
    assert code == 0
    doc = json.loads(out)
    assert doc["tauMax"] == 10.0
    assert len(doc["locations"]) == 9


def test_plt_dot(capsys):
    code, out, _ = run(capsys, "plt", RESERVOIR, "--tau-max", "10",
                       "--format", "dot")
    assert code == 0
    assert out.startswith("digraph")


def test_plt_output_file(tmp_path, capsys):
    target = tmp_path / "tree.json"
    code, out, _ = run(capsys, "plt", RESERVOIR, "--tau-max", "10",
                       "-o", str(target))
    assert code == 0
    assert out == ""
    assert len(json.loads(target.read_text())["locations"]) == 9


def test_transient_single_method(capsys):
    code, out, _ = run(capsys, "transient", RESERVOIR, "--tau-max", "10",
                       "--time", "4", "--property", "m(pump_ok) >= 1",
                       "--samples", "20000", "--iterations", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["method"] == "intervals"
    assert doc["tPrime"] == 4.0
    assert doc["total"] == pytest.approx(0.6, abs=0.01)
    assert "perLocation" in doc and "wallTimeMs" in doc


def test_transient_all_methods(capsys):
    code, out, _ = run(capsys, "transient", RESERVOIR, "--tau-max", "10",
                       "--time", "4", "--method", "all",
                       "--samples", "10000", "--iterations", "2")
    assert code == 0
    docs = json.loads(out)
    assert [d["method"] for d in docs] == ["intervals", "simplex", "direct"]
    for d in docs:
        assert d["total"] == pytest.approx(1.0, abs=0.02)


def test_transient_bad_property(capsys):
    code, _, err = run(capsys, "transient", RESERVOIR, "--tau-max", "10",
                       "--time", "4", "--property", "m(nowhere) >= 1")
    assert code == 1
    assert "error:" in err


def test_transient_time_outside_horizon(capsys):
    code, _, err = run(capsys, "transient", RESERVOIR, "--tau-max", "10",
                       "--time", "12")
    assert code == 1
    assert "error:" in err


@pytest.mark.parametrize("argv", [("transient",), ("simulate", "--runs", "10")])
def test_time_nan_exits_one(capsys, argv):
    # nan passes a range check written as two "outside" comparisons
    command, *options = argv
    code, out, err = run(capsys, command, RESERVOIR, "--tau-max", "10", "--time", "nan",
                         *options)
    assert code == 1
    assert err.startswith("error:") and out == ""


def test_simulate_json(capsys):
    code, out, _ = run(capsys, "simulate", RESERVOIR, "--tau-max", "10",
                       "--time", "4", "--property", "m(pump_ok) >= 1",
                       "--runs", "500")
    assert code == 0
    doc = json.loads(out)
    assert doc["method"] == "simulation"
    assert doc["runs"] == 500
    assert doc["total"] == pytest.approx(0.6, abs=0.1)
    assert 1 <= doc["modes"] < doc["steps"]


def test_simulate_half_width(capsys):
    code, out, _ = run(capsys, "simulate", RESERVOIR, "--tau-max", "10",
                       "--time", "4", "--property", "m(pump_ok) >= 1",
                       "--runs", "100000", "--half-width", "0.08")
    assert code == 0
    doc = json.loads(out)
    assert doc["runs"] < 100000
    assert doc["halfWidth"] <= 0.08


@pytest.mark.parametrize("half_width", ["-1", "0", "nan"])
def test_simulate_half_width_not_positive_exits_one(capsys, half_width):
    code, out, err = run(capsys, "simulate", RESERVOIR, "--tau-max", "10",
                         "--time", "4", "--runs", "200", "--half-width", half_width)
    assert code == 1
    assert err.startswith("error:") and "half width" in err
    assert out == ""


@pytest.mark.parametrize("argv", [("transient", "--method", "intervals"),
                                  ("transient", "--method", "direct"),
                                  ("simulate", "--runs", "10"),
                                  ("compare", "--runs", "10")])
def test_negative_seed_exits_one(capsys, argv):
    # intervals and exact simplex draw nothing on the reservoir, so a
    # negative seed used to pass there unseen
    command, *options = argv
    code, out, err = run(capsys, command, RESERVOIR, "--tau-max", "10", "--time", "4",
                         "--seed", "-1", *options)
    assert code == 1
    assert err.startswith("error:") and "seed" in err
    assert out == ""


def test_simulate_error_is_open_when_no_run_hits(capsys):
    # Seed 7 stops at 189 runs with no hit (the exact value is 0.005): the
    # plug-in standard error is 0 there, the Wilson half width is not.
    code, out, _ = run(capsys, "simulate", RESERVOIR, "--tau-max", "10",
                       "--time", "6", "--property", "m(pump_ok) = 0 & x(tank) >= 6.9",
                       "--half-width", "0.01", "--seed", "7")
    assert code == 0
    doc = json.loads(out)
    assert doc["total"] == 0.0
    assert doc["error"] > 0.0
    assert doc["error"] == pytest.approx(doc["halfWidth"] / 1.96)


def test_compare_simulation_error_is_open_when_no_run_hits(capsys):
    code, out, _ = run(capsys, "compare", RESERVOIR, "--tau-max", "10",
                       "--time", "6", "--property", "m(pump_ok) = 0 & x(tank) >= 6.9",
                       "--samples", "1000", "--iterations", "2",
                       "--runs", "100", "--seed", "7")
    assert code == 0
    sim = out.strip().splitlines()[-1].split()
    assert sim[0] == "simulation"
    assert float(sim[1]) == 0.0
    assert float(sim[2]) > 0.0


def test_compare_observes_the_state_after_an_event_at_t_prime(capsys):
    # demand_stop fires at exactly 5; every route, like the simulator,
    # sees the state after it.
    code, out, _ = run(capsys, "compare", RESERVOIR, "--tau-max", "10", "--time", "5",
                       "--property", "m(demand_on) >= 1")
    assert code == 0
    rows = [ln.split() for ln in out.strip().splitlines()[1:]]
    assert [r[0] for r in rows] == ["intervals", "simplex", "direct", "simulation"]
    assert all(float(r[1]) == 0.0 for r in rows)


def test_compare_table(capsys):
    code, out, _ = run(capsys, "compare", RESERVOIR, "--tau-max", "10",
                       "--time", "4", "--property", "x(tank) >= 4",
                       "--samples", "10000", "--iterations", "2",
                       "--runs", "500")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split() == ["route", "estimate", "error", "ms"]
    routes = [ln.split()[0] for ln in lines[1:]]
    assert routes == ["intervals", "simplex", "direct", "simulation"]


@pytest.mark.parametrize("command, runs", [("simulate", "0"), ("simulate", "-5"),
                                           ("compare", "0")])
def test_fewer_than_one_run_exits_one(monkeypatch, capsys, command, runs):
    # a bad option value, not an internal error (exit 3), rejected before
    # any tree is built or route runs
    def unexpected(*args, **kwargs):
        pytest.fail("the run count is checked only after the analysis")
    monkeypatch.setattr(hpng.cli, "build_plt", unexpected)
    monkeypatch.setattr(hpng.cli, "transient_probability", unexpected)
    budget = ("--samples", "1000", "--iterations", "2") if command == "compare" else ()
    code, _, err = run(capsys, command, RESERVOIR, "--tau-max", "10", "--time", "4",
                       *budget, "--runs", runs)
    assert code == 1
    assert err.startswith("error:") and "runs" in err


@pytest.mark.parametrize("argv", [
    ("plt", "--tau-max", "-2"),
    ("plt", "--tau-max", "nan"),
    ("plt", "--tau-max", "inf"),
    ("transient", "--tau-max", "inf", "--time", "4"),
    ("transient", "--tau-max", "nan", "--time", "4"),
    ("simulate", "--tau-max", "inf", "--time", "4", "--runs", "10"),
    ("compare", "--tau-max", "-2", "--time", "0"),
])
def test_horizon_not_finite_and_non_negative_exits_one(monkeypatch, capsys, argv):
    # nan and inf would unfold without end; tight caps keep a lost check quick
    monkeypatch.setattr(hpng.tree, "MAX_LOCATIONS", 100)
    monkeypatch.setattr(hpng.simulate, "MAX_STEPS", 100)
    command, *options = argv
    code, out, err = run(capsys, command, RESERVOIR, *options)
    assert code == 1
    assert err.startswith("error:") and "horizon" in err
    assert out == ""


def test_model_with_a_non_finite_number_exits_one(tmp_path, capsys):
    bad = tmp_path / "nan_level.json"
    bad.write_text((MODELS / "reservoir.json").read_text()
                   .replace('"level": 0.0', '"level": NaN'))
    code, out, err = run(capsys, "transient", str(bad), "--tau-max", "10", "--time", "6")
    assert code == 1
    assert err.startswith("error:") and "level must be a finite number" in err
    assert out == ""


def test_infinite_token_count_in_a_property_exits_one(capsys):
    code, out, err = run(capsys, "transient", str(MODELS / "battery.json"), "--tau-max", "8",
                         "--time", "4", "--property", "m(grid_on) >= 1e400")
    assert code == 1
    assert err.startswith("error:") and out == ""


@pytest.mark.parametrize("argv", [("validate",), ("transient", "--tau-max", "4", "--time", "2")])
def test_model_that_does_not_validate_exits_one(tmp_path, capsys, argv):
    # one place and an immediate transition that takes its token and gives
    # it back: a zero-time cycle
    zeno = tmp_path / "zeno.json"
    zeno.write_text(json.dumps({
        "places": {"discrete": [{"id": "p", "tokens": 1}]},
        "transitions": {"immediate": [{"id": "loop"}]},
        "arcs": {"discrete": [{"from": "p", "to": "loop"}, {"from": "loop", "to": "p"}]},
    }))
    command, *options = argv
    code, out, err = run(capsys, command, str(zeno), *options)
    assert code == 1
    assert err.startswith("error: zero-time cycle") and out == ""


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_simulate_rejects_a_sampler_budget():
    # the simulator counts runs; a sample budget it would ignore is a usage error
    with pytest.raises(SystemExit) as exc:
        main(["simulate", RESERVOIR, "--tau-max", "10", "--time", "4", "--samples", "10"])
    assert exc.value.code == 2


def test_location_cap_exits_two(monkeypatch, capsys):
    monkeypatch.setattr(hpng.tree, "MAX_LOCATIONS", 3)
    code, _, err = run(capsys, "plt", RESERVOIR, "--tau-max", "10")
    assert code == 2
    assert "resource limit:" in err


def test_step_limit_exits_two(monkeypatch, capsys):
    monkeypatch.setattr(hpng.simulate, "MAX_STEPS", 1)
    code, _, err = run(capsys, "simulate", RESERVOIR, "--tau-max", "10",
                       "--time", "4", "--runs", "10")
    assert code == 2
    assert "resource limit:" in err
