import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import smwsim
from smwsim import build_network, save_network
from smwsim.cli import build_parser, main
from smwsim.instances import (example1, example1_crp_violated, random_crp,
                              symmetric_ring)
from smwsim.sim import estimate_exponent


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


def test_validate_lists_closed_violators_on_twenty_nodes(tmp_path, capsys):
    # 15 closed violators listed, of the 3,783 violating subsets of 2^20
    from test_exponent import blocks
    from test_network import hall_listing
    net = blocks([4] * 5, heavy=4.0)
    path = str(tmp_path / "net.json")
    save_network(net, path)
    assert main(["validate", path]) == 2
    report = json.loads(capsys.readouterr().out)
    listed = [tuple(v["subset"]) for v in report["violating_subsets"]]
    assert len(listed) == 15 and listed == hall_listing(net, listed, tuple)
    assert report["epsilon_floor_drop"] == \
        -min(v["slack"] for v in report["violating_subsets"])


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
    assert summary["drainable_subsets"] == 1
    assert len(summary["config_hash"]) == 12


def test_gamma_optimal(net_file, tmp_path, capsys):
    out = tmp_path / "table.csv"
    assert main(["gamma", net_file, "--optimal", "--out", str(out)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["alpha"] == pytest.approx([0.999, 0.001], abs=1e-9)
    assert summary["gamma"] == pytest.approx(0.999 * math.log(2))
    assert summary["drainable_subsets"] == len(read_csv(out)) - 1 == 1


def test_gamma_counts_lp_rows_and_hashes_options(tmp_path, capsys):
    # random_crp(6, seed=0) has 13 drainable subsets, 7 of them closed: 7
    # subset rows in the optimal-alpha LP, and as many rows in the table
    path = str(tmp_path / "net.json")
    save_network(random_crp(6, seed=0), path)
    hashes = []
    for extra in (["--optimal"], ["--optimal", "--eps-floor", "0.01"], []):
        out = tmp_path / "table.csv"
        assert main(["gamma", path, "--out", str(out)] + extra) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["drainable_subsets"] == len(read_csv(out)) - 1 == 7
        hashes.append(summary["config_hash"])
    assert len(set(hashes)) == 3 and all(len(h) == 12 for h in hashes)


def test_gamma_optimal_builds_one_subset_table(tmp_path, capsys,
                                              monkeypatch):
    import smwsim.network as network
    path = str(tmp_path / "net.json")
    save_network(random_crp(6, seed=0), path)
    builds = []
    closed = network.closed_subsets
    monkeypatch.setattr(network, "closed_subsets",
                        lambda net: builds.append(net) or closed(net))
    out = str(tmp_path / "table.csv")
    assert main(["gamma", path, "--optimal", "--out", out]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert len(builds) == 1
    # the path from the result's columns is most_likely_path's, bit for bit
    ref = smwsim.most_likely_path(smwsim.load_network(path), summary["alpha"])
    assert summary["f_star"] == ref.f_star.tolist()
    assert (summary["drain_time"], summary["kl_rate"]) == \
        (ref.drain_time, ref.kl_rate)


def test_gamma_optimal_past_twenty_zones(tmp_path, capsys):
    path = str(tmp_path / "net.json")
    assert main(["generate", "random_crp", "--n", "30", "--out", path]) == 0
    assert main(["gamma", path, "--optimal", "--out",
                 str(tmp_path / "table.csv")]) == 0
    summary = json.loads(capsys.readouterr().out.split("\n", 1)[1])
    assert summary["drainable_subsets"] == 1227
    # the 30-zone ring has 1.86M closed subsets: the cap stops it
    assert main(["generate", "symmetric_ring", "--n", "30", "--with-times",
                 "--out", path]) == 0
    assert main(["gamma", path, "--optimal"]) == 1
    assert "closed demand subsets exceed" in capsys.readouterr().err


def test_gamma_given_alpha(net_file, tmp_path, capsys):
    out = str(tmp_path / "table.csv")
    assert main(["gamma", net_file, "--alpha", "0.75,0.25", "--out", out]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["alpha"] == [0.75, 0.25]
    assert summary["gamma"] == pytest.approx(0.75 * math.log(2))
    assert summary["drainable_subsets"] == 1


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
    assert rows[0][2:] == ["states", "recurrent_classes", "residual",
                           "lu_nnz"]
    for _, _, states, _, residual, lu_nnz in rows[1:]:
        assert math.isfinite(float(residual)) and float(residual) <= 1e-12
        assert int(lu_nnz) >= int(states)


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


@pytest.mark.parametrize("mode", [["--exact"], ["--seeds", "1", "--steps",
                                                   "2000"]])
def test_sweep_keeps_a_cell_that_drops_everything(net_file, tmp_path, mode):
    # K=0 drops every request (p = 1): its row stays, the slope leaves it out
    out = tmp_path / "sweep.csv"
    assert main(["sweep", net_file, "--K", "0,1,2,3", *mode,
                 "--out", str(out)]) == 0
    rows = read_csv(out)[1:]
    cells = [r for r in rows if r[2] in ("exact", "aggregate")]
    assert [r[1] for r in cells] == ["0", "1", "2", "3"]
    assert float(cells[0][3]) == 1.0
    slopes = [r for r in rows if r[1] == "slope"]
    points = [(int(r[1]), float(r[3])) for r in cells[1:]]
    assert len(slopes) == 1
    assert float(slopes[0][3]) == pytest.approx(estimate_exponent(points)[0])
    # two points inside (0, 1) are too few to fit: no slope row
    assert main(["sweep", net_file, "--K", "0,1,2", *mode,
                 "--out", str(out)]) == 0
    rows = read_csv(out)[1:]
    assert len([r for r in rows if r[2] in ("exact", "aggregate")]) == 3
    assert not [r for r in rows if r[1] == "slope"]


def test_exact_tail_underflow_is_a_runtime_failure(tmp_path, capsys):
    # random_crp(3, seed=0) under vanilla: p = 6.0e-307 at K=440, subnormal
    # at 460 and 0.0 at 480
    path = str(tmp_path / "crp3.json")
    save_network(random_crp(3, seed=0), path)
    assert main(["exact", path, "--K", "480"]) == 3
    assert "underflows" in capsys.readouterr().err
    out = tmp_path / "sweep.csv"
    assert main(["sweep", path, "--K", "440,460", "--exact",
                 "--out", str(out)]) == 3
    rows = read_csv(out)[1:]
    assert float(rows[0][3]) == pytest.approx(5.97e-307, rel=1e-3)
    assert rows[1][1] == "460" and rows[1][5].startswith("error:")
    assert "underflows" in rows[1][5]


def test_fleet(tmp_path, capsys):
    path = tmp_path / "city.json"
    assert main(["generate", "symmetric_ring", "--n", "4", "--with-times",
                 "--out", str(path)]) == 0
    capsys.readouterr()
    assert main(["fleet", str(path), "--total-rate", "2.0"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["k_fl"] >= rep["k_in_transit"]


def test_fleet_needs_a_zone_per_demand_node(tmp_path, capsys):
    path = tmp_path / "wide.json"
    save_network(build_network(
        2, 3, [(i, j) for i in range(2) for j in range(3)], np.ones((3, 2)),
        travel_time=[[0.0, 5.0], [5.0, 0.0]]), path)
    assert main(["fleet", str(path), "--total-rate", "2.0"]) == 1
    assert "timed mode maps demand nodes onto supply zones; needs " \
        "n_demand <= n_supply" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["sweep", "--K", "5", "--timed", "--total-rate", "inf", "--horizon", "50"],
    ["sweep", "--K", "5", "--timed", "--total-rate", "nan", "--horizon", "50"],
    ["fleet", "--total-rate", "-2"],
    ["fleet", "--total-rate", "inf"],
])
def test_bad_total_rate_is_input_error(tmp_path, capsys, args):
    path = tmp_path / "ring4.json"
    assert main(["generate", "symmetric_ring", "--n", "4", "--with-times",
                 "--out", str(path)]) == 0
    capsys.readouterr()
    assert main([args[0], str(path)] + args[1:]) == 1
    assert "total_rate" in capsys.readouterr().err


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
    runs = summary["runs"]
    assert runs["walks_full"] + runs["walks_shared"] == 40
    assert runs["simulated"] == 0
    assert 1 <= runs["tables"] <= runs["walks_full"]
    assert len(summary["config_hash"]) == 12
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


@pytest.mark.parametrize("spec, match", [
    ({"kind": "fluid_random", "flow_table": [[-0.2, 0.3], [0.5, 0.1]]},
     "nonnegative"),
    ({"kind": "fluid_random", "flow_table": [[0.2, 0.3], [0.1, 0.1]]},
     "not edges"),
    ({"kind": "smw_pickup", "alpha": [0.5, 0.5], "beta": math.nan},
     "beta must be nonnegative"),
    ([{"kind": "smw", "alpha": [0.5, 0.5]}], "must be a JSON object"),
    ({"kind": "smw", "alpha": ["0.5", "0.5"]}, "'alpha' must be a list of"),
    ({"kind": "smw_pickup", "alpha": [0.5, 0.5], "beta": "0.1"},
     "'beta' must be a number"),
    ({"kind": "smw_pickup", "alpha": [0.5, 0.5], "beta": None},
     "'beta' must be a number"),
    ({"kind": "smw_pickup", "alpha": [0.5, 0.5], "beta": True},
     "'beta' must be a number"),
    ({"kind": "static_priority", "priority_lists": ["0", "10"]},
     "'priority_lists' must be lists of integers"),
    ({"kind": "static_priority", "priority_lists": [[0.0], [1.5, 0]]},
     "'priority_lists' must be lists of integers"),
    ({"kind": "static_priority", "priority_lists": [[0], [1.0, 0]]},
     "'priority_lists' must be lists of integers"),
    ({"kind": "static_priority", "priority_lists": [[0], [True, 0]]},
     "'priority_lists' must be lists of integers"),
    ({"kind": "static_priority", "priority_lists": [[0], ["1", 0]]},
     "'priority_lists' must be lists of integers"),
    ({"kind": "static_priority", "priority_lists": [[0]]},
     "one priority list per demand node")])
def test_malformed_policy_spec_is_input_error(tmp_path, capsys, spec, match):
    net, policy = str(tmp_path / "net.json"), tmp_path / "policy.json"
    save_network(example1(with_times=True), net)
    policy.write_text(json.dumps(spec))     # NaN as JSON's NaN token
    assert main(["exact", net, "--policy", str(policy), "--K", "2"]) == 1
    assert match in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["gamma", "--alpha", "nan,1"],
    ["exact", "--policy", "smw:nan,1", "--K", "4"],
    ["sweep", "--policies", "smw:nan,1", "--K", "4", "--steps", "100"]])
def test_nan_alpha_is_input_error(net_file, capsys, args):
    assert main(args[:1] + [net_file] + args[1:]) == 1
    assert "alpha must sum to 1" in capsys.readouterr().err


@pytest.mark.parametrize("n", ["0", "1"])
def test_generate_random_crp_below_two_nodes_is_input_error(tmp_path, capsys,
                                                            n):
    assert main(["generate", "random_crp", "--n", n, "--out",
                 str(tmp_path / "net.json")]) == 1
    assert "at least 2 nodes" in capsys.readouterr().err


# minimal valid arguments per subcommand, and the shared options it reads
SUBCOMMANDS = {
    "validate": ([], set()),
    "fleet": (["--total-rate", "1.0"], set()),
    "generate": (["--out", "{tmp}/gen.json"], {"seed", "out"}),
    "gamma": ([], {"eps_floor", "out"}),
    "exact": (["--K", "1"], {"eps_floor", "out"}),
    "sweep": (["--K", "1", "--steps", "100"], {"eps_floor", "out"}),
    "transient": (["--K", "1", "--inits", "1", "--horizons", "5"],
                  {"eps_floor", "seed", "out"}),
    "tune": (["--budget", "2", "--population", "2", "--steps", "50",
              "--K", "1"], {"eps_floor", "seed", "out"}),
}
SHARED = {"eps_floor": ["--eps-floor", "0.01"], "seed": ["--seed", "1"],
          "out": ["--out", "{tmp}/out.txt"]}


@pytest.fixture
def timed_net_file(tmp_path):
    path = tmp_path / "city.json"
    save_network(example1(with_times=True), path)
    return str(path)


def argv_for(command, path, tmp_path):
    extra, _ = SUBCOMMANDS[command]
    head = [command, "example1"] if command == "generate" else [command, path]
    return [a.format(tmp=tmp_path) for a in head + extra]


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_each_subcommand_takes_the_shared_options_it_reads(
        command, timed_net_file, tmp_path):
    args = build_parser().parse_args(argv_for(command, timed_net_file,
                                              tmp_path))
    assert set(vars(args)) & set(SHARED) == SUBCOMMANDS[command][1]


@pytest.mark.parametrize("command, option", [
    (c, o) for c, (_, takes) in SUBCOMMANDS.items()
    for o in SHARED if o not in takes])
def test_an_unread_shared_option_is_a_usage_error(
        command, option, timed_net_file, tmp_path, capsys):
    argv = argv_for(command, timed_net_file, tmp_path)
    argv += [a.format(tmp=tmp_path) for a in SHARED[option]]
    assert main(argv) == 1
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "out.txt").exists()


@pytest.mark.parametrize("argv", [
    ["exact", "{net}"],                        # missing required --K
    ["gamma", "{net}", "--bogus"],             # unknown option
    ["generate", "example1"],                  # missing required --out
    ["frobnicate"],                            # unknown subcommand
])
def test_usage_error_is_input_error(argv, net_file, capsys):
    assert main([a.format(net=net_file) for a in argv]) == 1
    assert "usage:" in capsys.readouterr().err


def test_help_exits_0(capsys):
    assert main(["sweep", "--help"]) == 0
    assert "--eps-floor" in capsys.readouterr().out


def test_sweep_config_hash_is_stable_across_processes(net_file, tmp_path):
    src = str(Path(smwsim.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    argv = [sys.executable, "-m", "smwsim.cli", "sweep", net_file,
            "--K", "2", "--steps", "200"]
    hashes = [{row[-1] for row in csv.reader(subprocess.run(
        argv, env=env, check=True, capture_output=True,
        text=True).stdout.splitlines()[1:])} for _ in range(2)]
    assert len(hashes[0]) == 1 and hashes[0] == hashes[1]


def test_policies_keep_an_smw_alpha_together(tmp_path):
    path, out = str(tmp_path / "ring.json"), str(tmp_path / "sweep.csv")
    save_network(symmetric_ring(4), path)
    spec = "smw:0.3,0.2,0.2,0.3"
    assert main(["sweep", path, "--policies", f"vanilla,{spec},smw-optimal",
                 "--K", "3,4", "--exact", "--out", out]) == 0
    assert [r[0] for r in read_csv(out)[1:]] == \
        ["vanilla"] * 2 + [spec] * 2 + ["smw-optimal"] * 2
    args = build_parser().parse_args(
        ["transient", path, "--K", "3", "--policies", f"{spec},1e-3.json"])
    assert args.policies == [spec, "1e-3.json"]


@pytest.mark.parametrize("argv", [
    ["sweep", "--K", "2", "--exact", "--seeds", "0,1"],
    ["sweep", "--K", "2", "--exact", "--steps", "5"],
    ["sweep", "--K", "2", "--exact", "--horizon", "3"],
    ["sweep", "--K", "2", "--exact", "--timed"],
    ["sweep", "--K", "2", "--exact", "--total-rate", "2"],
    ["sweep", "--K", "2", "--timed", "--steps", "5"],
    ["sweep", "--K", "2", "--horizon", "3"],
    ["sweep", "--K", "2", "--total-rate", "2"],
    ["transient", "--K", "2", "--total-rate", "2"],
    ["gamma", "--optimal", "--alpha", "0.5,0.5"],
], ids=" ".join)
def test_an_option_the_mode_ignores_is_a_usage_error(
        argv, timed_net_file, tmp_path, capsys):
    out = tmp_path / "out.csv"
    assert main([argv[0], timed_net_file, *argv[1:], "--out", str(out)]) == 1
    assert "is not read" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_timed_reads_its_options(timed_net_file, tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", timed_net_file, "--K", "3", "--timed",
                 "--total-rate", "2", "--horizon", "50", "--seeds", "0,1",
                 "--out", str(out)]) == 0
    assert [r[2] for r in read_csv(out)[1:]] == ["0", "1", "aggregate"]
