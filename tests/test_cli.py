import csv
import json
import math

import pytest

from smwsim import save_network
from smwsim.cli import main
from smwsim.instances import example1, example1_crp_violated


@pytest.fixture
def net_file(tmp_path):
    path = tmp_path / "net.json"
    save_network(example1(), path)
    return str(path)


@pytest.fixture
def bad_net_file(tmp_path):
    path = tmp_path / "bad.json"
    save_network(example1_crp_violated(), path)
    return str(path)


def read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


def test_validate_ok(net_file, capsys):
    assert main(["validate", net_file]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["crp_holds"] is True
    assert report["hall_gap"] == pytest.approx(1 / 8)


def test_validate_assumption_violation(bad_net_file, capsys):
    assert main(["validate", bad_net_file]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["epsilon_floor_drop"] == pytest.approx(1 / 8)


def test_missing_file_is_input_error(capsys):
    assert main(["validate", "/nonexistent/net.json"]) == 1


def test_malformed_json_is_input_error(tmp_path, capsys):
    path = tmp_path / "garbage.json"
    path.write_text("{not json")
    assert main(["validate", str(path)]) == 1


def test_gamma_uniform(net_file, tmp_path, capsys):
    out = tmp_path / "table.csv"
    assert main(["gamma", net_file, "--out", str(out)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["gamma"] == pytest.approx(0.5 * math.log(2))
    assert summary["critical_subsets"] == [[0]]
    rows = read_csv(out)
    assert rows[0][0] == "subset"
    assert len(rows) == 2


def test_gamma_optimal(net_file, tmp_path, capsys):
    out = tmp_path / "table.csv"
    assert main(["gamma", net_file, "--optimal", "--out", str(out)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["alpha"] == pytest.approx([0.999, 0.001], abs=1e-9)
    assert summary["gamma"] == pytest.approx(0.999 * math.log(2))


def test_gamma_on_violating_instance_exits_2(bad_net_file, capsys):
    assert main(["gamma", bad_net_file]) == 2


def test_generate_roundtrip_deterministic(tmp_path, capsys):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert main(["generate", "random_crp", "--n", "3", "--seed", "5",
                 "--out", a]) == 0
    assert main(["generate", "random_crp", "--n", "3", "--seed", "5",
                 "--out", b]) == 0
    assert json.load(open(a)) == json.load(open(b))
    assert main(["validate", a]) == 0


def test_exact_curve(net_file, tmp_path, capsys):
    out = tmp_path / "exact.csv"
    assert main(["exact", net_file, "--policy", "smw:0.5,0.5",
                 "--K", "1,5", "--out", str(out)]) == 0
    rows = read_csv(out)
    assert float(rows[1][1]) == pytest.approx(0.3, abs=1e-12)


def test_sweep_exact_with_slope(net_file, tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", net_file, "--policies", "vanilla,smw-optimal",
                 "--K", "5,10,15", "--exact", "--out", str(out)]) == 0
    rows = read_csv(out)
    slopes = [r for r in rows if r[1] == "slope"]
    assert len(slopes) == 2
    by_policy = {r[0]: float(r[3]) for r in slopes}
    assert by_policy["smw-optimal"] > by_policy["vanilla"]


def test_sweep_simulated(net_file, tmp_path):
    out = tmp_path / "sweep_sim.csv"
    assert main(["sweep", net_file, "--policies", "vanilla",
                 "--K", "3", "--seeds", "0,1", "--steps", "2000",
                 "--out", str(out)]) == 0
    rows = read_csv(out)
    agg = [r for r in rows if r[2] == "aggregate"]
    assert len(agg) == 1


def test_fleet(tmp_path, capsys):
    path = tmp_path / "city.json"
    assert main(["generate", "symmetric_ring", "--n", "4", "--with-times",
                 "--out", str(path)]) == 0
    capsys.readouterr()
    assert main(["fleet", str(path), "--total-rate", "2.0"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["k_fl"] >= rep["k_in_transit"]


def test_transient(net_file, tmp_path):
    out = tmp_path / "transient.csv"
    assert main(["transient", net_file, "--K", "4", "--inits", "2",
                 "--horizons", "50,100", "--out", str(out)]) == 0
    rows = read_csv(out)
    assert len(rows) == 1 + 2 * 2


def test_tune_smoke(net_file, tmp_path, capsys):
    out = tmp_path / "tune.csv"
    assert main(["tune", net_file, "--budget", "40", "--population", "20",
                 "--steps", "1000", "--K", "5", "--out", str(out)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert sum(summary["alpha"]) == pytest.approx(1.0)
    rows = read_csv(out)
    assert len(rows) == 1 + 40


def test_tune_population_zero_is_input_error(net_file, capsys):
    assert main(["tune", net_file, "--budget", "40", "--population", "0"]) == 1
    assert "population" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["tune", "--budget", "20", "--steps", "100", "--K", "-1"],
    ["exact", "--K", "-1"],
    # K + n - 1 < 0: rejected before the tuner counts states
    ["tune", "--budget", "20", "--steps", "100", "--K", "-5"],
])
def test_negative_fleet_size_is_input_error(net_file, capsys, command):
    assert main([command[0], net_file] + command[1:]) == 1
    assert f"K={command[-1]}" in capsys.readouterr().err


def test_tune_beta_needs_pickup_times(net_file, capsys):
    assert main(["tune", net_file, "--budget", "20", "--steps", "100",
                 "--tune-beta"]) == 1
    assert "pickup time" in capsys.readouterr().err
