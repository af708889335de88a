import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import entangle_games
from entangle_games import cli
from entangle_games import quantum as q
from entangle_games import simulation as sim
from entangle_games import topology as topo
from entangle_games import trial as tr
from entangle_games.cli import RunConfig, main
from entangle_games.errors import ParameterError

from conftest import line_topology


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------


def test_unknown_config_key_rejected():
    with pytest.raises(ParameterError, match="frobnicate"):
        RunConfig.from_dict({"frobnicate": 1})


def test_unknown_nested_key_rejected():
    with pytest.raises(ParameterError, match="link"):
        RunConfig.from_dict({"link": {"latency_us": 10.0, "bogus": 1}})


def test_trials_default_is_thousand():
    assert RunConfig.from_dict({}).trials == 1000


def test_weights_nested_parsing():
    cfg = RunConfig.from_dict({"weights": {"fidelity": 2.0, "cost": 0.5}})
    assert cfg.weights() == (2.0, 0.5)


def _malformed_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text('{"trials": 3,')
    return str(path), "not valid JSON"


def _missing_config(tmp_path):
    return str(tmp_path / "absent.json"), "absent.json"


def _missing_topology_file(tmp_path):
    doc = {"topology_file": str(tmp_path / "absent-topology.json"), "source": 0, "destination": 1}
    return write_config(tmp_path, doc), "absent-topology.json"


def _mistyped_value(tmp_path):
    return write_config(tmp_path, {"trials": "many"}), "trials"


def _topology_config(tmp_path, doc):
    topo_file = tmp_path / "line.json"
    topo_file.write_text(json.dumps(doc))
    return write_config(tmp_path, {"topology_file": str(topo_file)})


def _out_of_range_payoff(tmp_path):
    doc = line_topology(3).to_json_dict()
    doc["links"][1]["payoff"] = 7.5
    return _topology_config(tmp_path, doc), "payoff"


def _topology_without_nodes(tmp_path):
    topo_file = tmp_path / "bare.json"
    topo_file.write_text(json.dumps({"schema": 1}))
    return write_config(tmp_path, {"topology_file": str(topo_file)}), "nodes"


def _non_numeric_link_field(tmp_path):
    doc = line_topology(3).to_json_dict()
    doc["links"][0]["latency_us"] = "fast"
    return _topology_config(tmp_path, doc), "latency_us"


def _nan_link_cost(tmp_path):
    doc = line_topology(3).to_json_dict()
    doc["links"][0]["cost"] = math.nan
    return _topology_config(tmp_path, doc), "'cost'"


def _infinite_node_coordinate(tmp_path):
    doc = line_topology(3).to_json_dict()
    doc["nodes"][1]["x"] = math.inf
    return _topology_config(tmp_path, doc), "'x'"


def _node_coordinate_past_float_range(tmp_path):
    doc = line_topology(3).to_json_dict()
    doc["nodes"][1]["x"] = 10**400
    return _topology_config(tmp_path, doc), "'x'"


def _line_with_links(tmp_path, *pairs):
    doc = line_topology(5).to_json_dict()
    doc["links"] += [{**doc["links"][0], "a": a, "b": b} for a, b in pairs]
    return _topology_config(tmp_path, doc)


def _link_to_missing_node(tmp_path):
    return _line_with_links(tmp_path, (1, 9), (9, 2)), "not a node id"


def _self_loop_link(tmp_path):
    return _line_with_links(tmp_path, (2, 2)), "self-loop"


def _second_link_between_a_pair(tmp_path):
    return _line_with_links(tmp_path, (1, 0)), "duplicate"


def _sparse_node_ids(tmp_path):
    doc = line_topology(3).to_json_dict()
    doc["nodes"][2]["id"] = 5
    doc["links"][1]["b"] = 5
    return _topology_config(tmp_path, doc), "dense range"


def _tree_with_first_choice(tmp_path, **changes):
    doc = topo.canonical_two_tree_topology().to_json_dict()
    choice = doc["choices"][0]
    choice["node"] = changes.get("node", choice["node"])
    choice["options"][1]["next_hop"] = changes.get("next_hop", choice["options"][1]["next_hop"])
    del choice["options"][changes.get("options", 2):]
    return _topology_config(tmp_path, doc)


def _unknown_choice_node(tmp_path):
    return _tree_with_first_choice(tmp_path, node=99), "choice at node 99: node is not a node id"


def _unknown_choice_next_hop(tmp_path):
    return _tree_with_first_choice(tmp_path, next_hop=99), "next_hop 99 is not a node id"


def _choice_with_one_option(tmp_path):
    return _tree_with_first_choice(tmp_path, options=1), "needs exactly two options, got 1"


def _choice_with_one_hop_twice(tmp_path):
    # node 1's second option names leader 0, as its first does
    return _tree_with_first_choice(tmp_path, next_hop=0), "both options name next_hop 0"


def _negative_seed(tmp_path):
    return write_config(tmp_path, {"seed": -1}), "seed"


def _nan_weight(tmp_path):
    return write_config(tmp_path, {"weights": {"fidelity": math.nan}}), "weights.fidelity"


def _infinite_weight(tmp_path):
    return write_config(tmp_path, {"weights": {"cost": math.inf}}), "weights.cost"


def _infinite_rate(tmp_path):
    return write_config(tmp_path, {"rates": [0.0, -math.inf]}), "rates"


def _int_past_float_range(tmp_path):
    return write_config(tmp_path, {"link": {"latency_us": 10**400}}), "link.latency_us"


def _latency_underflowing_in_seconds(tmp_path):
    return write_config(tmp_path, {"link": {"latency_us": 1e-320}}), "latency_us"


def _gamma_past_half_pi(tmp_path):
    return write_config(tmp_path, {"gamma": 1.5708}), "gamma"


# a trial clock past the float range: the first two overflow the means, the
# third only the stddevs
_CLOCK_OVERFLOW = {"sync_step_us": 1e308, "qubit_lifetime_us": 1e308, "trials": 3}


def _decoherence_clock_overflow(tmp_path):
    doc = {**_CLOCK_OVERFLOW, "rates": [1e-6]}
    return write_config(tmp_path, doc), "total_latency_us mean", "decoherence"


def _node_clock_overflow(tmp_path):
    doc = {**_CLOCK_OVERFLOW, "node_counts": [4], "link": {"gen_prob": 0.5}}
    return write_config(tmp_path, doc), "total_latency_us mean", "nodes"


def _node_clock_stddev_overflow(tmp_path):
    doc = {
        "sync_step_us": 1e200, "qubit_lifetime_us": 1.7e308, "trials": 50, "node_counts": [3],
        "link": {"gen_prob": 0.5, "coherence_us": 1.7e308},
    }
    return write_config(tmp_path, doc), "stddev", "nodes"


@pytest.mark.parametrize(
    "make_config",
    [
        _malformed_config,
        _missing_config,
        _missing_topology_file,
        _mistyped_value,
        _out_of_range_payoff,
        _topology_without_nodes,
        _non_numeric_link_field,
        _nan_link_cost,
        _infinite_node_coordinate,
        _node_coordinate_past_float_range,
        _negative_seed,
        _nan_weight,
        _infinite_weight,
        _infinite_rate,
        _int_past_float_range,
        _latency_underflowing_in_seconds,
        _gamma_past_half_pi,
        _link_to_missing_node,
        _self_loop_link,
        _second_link_between_a_pair,
        _sparse_node_ids,
        _unknown_choice_node,
        _unknown_choice_next_hop,
        _choice_with_one_option,
        _decoherence_clock_overflow,
        _node_clock_overflow,
        _node_clock_stddev_overflow,
    ],
)
def test_bad_config_input_exits_2(tmp_path, capsys, make_config):
    # a config naming a sweep kind is run as that sweep, any other by `gen`
    cfg, named, *kind = make_config(tmp_path)
    command = ["sweep", "--kind", *kind] if kind else ["gen"]
    rc = main([*command, "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:")
    assert named in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "make_config",
    [_unknown_choice_node, _unknown_choice_next_hop, _choice_with_one_option,
     _choice_with_one_hop_twice],
)
@pytest.mark.parametrize("command", ["coalition", "consensus"])
def test_bad_choice_exits_2_in_both_games(tmp_path, capsys, make_config, command):
    cfg, named = make_config(tmp_path)
    rc = main([command, "--config", cfg, "--out", str(tmp_path / "out"), "--quiet"])
    assert rc == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("command", ["gen", "coalition", "consensus", "sweep"])
def test_negative_seed_flag_exits_2(tmp_path, capsys, command):
    rc = main([command, "--seed", "-1", "--out", str(tmp_path), "--quiet"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:")
    assert "seed" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["gen"],
        ["coalition"],
        ["consensus", "--variant", "classical"],
        ["consensus", "--variant", "quantum"],
        ["sweep"],
        ["chsh"],
    ],
    ids=["gen", "coalition", "consensus-classical", "consensus-quantum", "sweep", "chsh"],
)
def test_gamma_flag_out_of_range_exits_2(tmp_path, capsys, argv):
    # only coalition takes the flag; every other command checks the file key
    if argv[0] == "coalition":
        argv = [*argv, "--gamma", "5"]
    else:
        argv = [*argv, "--config", write_config(tmp_path, {"gamma": 5})]
    rc = main([*argv, "--out", str(tmp_path / "out"), "--quiet"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:")
    assert "gamma" in err


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------


def test_gen_writes_topology_with_expected_counts(tmp_path, capsys):
    rc = main(["gen", "--out", str(tmp_path), "--seed", "3"])
    assert rc == 0
    doc = json.loads((tmp_path / "topology.json").read_text())
    assert len(doc["nodes"]) == 21  # 3 leaders + 12 end-nodes + 6 repeaters
    out = capsys.readouterr().out
    assert "nodes: 21" in out


def test_gen_seed_reproducible(tmp_path):
    main(["gen", "--out", str(tmp_path / "a"), "--seed", "5", "--quiet"])
    main(["gen", "--out", str(tmp_path / "b"), "--seed", "5", "--quiet"])
    assert (tmp_path / "a/topology.json").read_bytes() == (tmp_path / "b/topology.json").read_bytes()


def test_gen_invalid_mu_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, {"mu": 1.5, "delta": 1.0})
    rc = main(["gen", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 2
    assert "mu" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["mu", "lam"])
def test_gen_link_model_applies_without_delta(tmp_path, key):
    # delta left out is the largest node distance; mu and lam still apply
    counts = []
    for value in (0.05, 0.5, 1.0):
        cfg = write_config(tmp_path, {"probabilistic_links": True, key: value}, f"{value}.json")
        out = tmp_path / str(value)
        assert main(["gen", "--config", cfg, "--out", str(out), "--quiet"]) == 0
        counts.append(len(json.loads((out / "topology.json").read_text())["links"]))
    assert counts[0] < counts[1] < counts[2]
    default = tmp_path / "default"
    cfg = write_config(tmp_path, {"probabilistic_links": True}, "default.json")
    assert main(["gen", "--config", cfg, "--out", str(default), "--quiet"]) == 0
    assert (default / "topology.json").read_bytes() == (tmp_path / "0.5/topology.json").read_bytes()


# ---------------------------------------------------------------------------
# coalition
# ---------------------------------------------------------------------------


def test_coalition_outputs(tmp_path, capsys):
    rc = main(["coalition", "--out", str(tmp_path), "--seed", "1"])
    assert rc == 0
    outcome = json.loads((tmp_path / "outcome.json").read_text())
    assert outcome["path"][0] == 3 and outcome["path"][-1] == 7
    assert (tmp_path / "trace.jsonl").exists()
    assert "path:" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["coalition", "consensus"])
@pytest.mark.parametrize(
    "doc,missing", [({"source": 5}, "destination"), ({"destination": 5}, "source")]
)
def test_one_endpoint_without_the_other_exits_2(tmp_path, capsys, command, doc, missing):
    cfg = write_config(tmp_path, doc)
    dest = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(dest)]) == 2
    assert f"config key {missing} is required" in capsys.readouterr().err
    assert not dest.exists()


def test_coalition_quantum_variant_runs(tmp_path):
    rc = main(
        ["coalition", "--out", str(tmp_path), "--variant", "quantum", "--seed", "2", "--quiet"]
    )
    assert rc == 0
    outcome = json.loads((tmp_path / "outcome.json").read_text())
    assert outcome["path"][0] == 3 and outcome["path"][-1] == 7


def _quantum_line_of_13(tmp_path):
    topo_file = tmp_path / "line.json"
    topo_file.write_text(line_topology(13).to_json())
    return {"topology_file": str(topo_file), "source": 0, "destination": 12, "variant": "quantum"}


def _probabilistic_mesh(variant):
    # distance-decay links give the canonical mesh millions of simple paths
    return lambda tmp_path: {"probabilistic_links": True, "variant": variant}


@pytest.mark.parametrize(
    "make_config",
    [_quantum_line_of_13, _probabilistic_mesh("classical"), _probabilistic_mesh("quantum")],
    ids=["quantum-line-of-13", "probabilistic-mesh-classical", "probabilistic-mesh-quantum"],
)
def test_coalition_capacity_exit_4(tmp_path, capsys, make_config):
    cfg = write_config(tmp_path, make_config(tmp_path))
    rc = main(["coalition", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 4
    assert "capacity" in capsys.readouterr().err


@pytest.mark.parametrize("trials", [1_000_001, 10**19], ids=["one-past-cap", "ten-to-the-19"])
def test_sweep_trials_over_cap_exit_4(tmp_path, capsys, monkeypatch, trials):
    def unreachable(*args, **kwargs):
        raise AssertionError("the trial cap must be checked before the sweep starts")

    monkeypatch.setattr(sim, "sweep_nodes", unreachable)
    rc = main(["sweep", "--kind", "nodes", "--trials", str(trials), "--out", str(tmp_path)])
    assert rc == 4
    assert f"trials must be <= {tr.MAX_TRIALS}" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_sweep_oversized_lossy_cell_exit_4(tmp_path, capsys, monkeypatch):
    # 1001 hops x 200,000 trials would need tens of GB of draws
    monkeypatch.setattr(tr, "_attempts", lambda *args: pytest.fail("drew past the cap"))
    doc = {"link": {"gen_prob": 0.8, "coherence_us": 1e12}, "qubit_lifetime_us": 1e12,
           "node_counts": [1000], "trials": 200000}
    out = tmp_path / "out"
    rc = main(["sweep", "--kind", "nodes", "--config", write_config(tmp_path, doc),
               "--out", str(out)])
    assert rc == 4
    assert f"exceed {tr.MAX_CELL_DRAWS} draws per cell" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# consensus
# ---------------------------------------------------------------------------


def test_consensus_trace_records_featured_switch(tmp_path):
    rc = main(["consensus", "--out", str(tmp_path), "--quiet"])
    assert rc == 0
    rows = [json.loads(line) for line in (tmp_path / "trace.jsonl").read_text().splitlines()]
    switches = [s for row in rows for s in row["switches"]]
    assert {"node": 1, "from": 0, "to": 2, "d_cost": -40.0, "d_payoff": 0.5} in switches
    outcome = json.loads((tmp_path / "outcome.json").read_text())
    assert outcome["converged"] is True


def test_consensus_variants_agree_on_tie_free_fixture(tmp_path):
    cfg = write_config(tmp_path, {"scenario": 2, "tree_sizes": [3, 4], "source": 1, "destination": 5})
    main(["consensus", "--config", cfg, "--out", str(tmp_path / "c"), "--variant", "classical", "--quiet"])
    main(["consensus", "--config", cfg, "--out", str(tmp_path / "q"), "--variant", "quantum", "--quiet"])
    classical = json.loads((tmp_path / "c/outcome.json").read_text())
    quantum = json.loads((tmp_path / "q/outcome.json").read_text())
    assert classical["path"] == quantum["path"]


def test_consensus_unreachable_exit_3(tmp_path, capsys):
    t = topo.canonical_two_tree_topology()
    no_trunk = tuple(l for l in t.links if frozenset((l.a, l.b)) != frozenset((0, 5)))
    broken = topo.NetworkTopology(t.nodes, no_trunk, t.scenario, t.choices)
    topo_file = tmp_path / "broken.json"
    topo_file.write_text(broken.to_json())
    cfg = write_config(
        tmp_path, {"topology_file": str(topo_file), "source": 1, "destination": 8, "scenario": 2}
    )
    rc = main(["consensus", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 3
    assert "infeasible" in capsys.readouterr().err


@pytest.mark.parametrize("doc", [{"scenario": 1}, {"scenario": 1, "tree_sizes": [3, 3]}])
def test_consensus_scenario_1_without_topology_file_exits_2(tmp_path, capsys, doc):
    out = tmp_path / "out"
    rc = main(["consensus", "--config", write_config(tmp_path, doc), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == "configuration error: config key scenario must be 2 for consensus, got 1\n"
    assert not out.exists()


def test_consensus_plays_the_scenario_2_network(tmp_path):
    # without the key, with scenario 2, or on a topology file, whatever its
    # scenario key, the canonical fixture gives the same files
    fixture = tmp_path / "fixture.json"
    fixture.write_text(topo.canonical_two_tree_topology().to_json())
    docs = {"none": {}, "two": {"scenario": 2},
            "file": {"topology_file": str(fixture), "source": 1, "destination": 8, "scenario": 1}}
    for name, doc in docs.items():
        cfg = write_config(tmp_path, doc, f"{name}.json")
        assert main(["consensus", "--config", cfg, "--out", str(tmp_path / name), "--quiet"]) == 0
    for name in ("two", "file"):
        for file in ("outcome.json", "trace.jsonl"):
            assert (tmp_path / name / file).read_bytes() == (tmp_path / "none" / file).read_bytes()


def test_consensus_bad_weights_without_choice_sets_exit_2(tmp_path, capsys):
    # the minimal trees carry no choice set, so no hop utility reads the weights
    doc = {"scenario": 2, "tree_sizes": [1, 1], "weights": {"fidelity": -1.0, "cost": 0.0}}
    out = tmp_path / "out"
    rc = main(["consensus", "--config", write_config(tmp_path, doc), "--out", str(out)])
    assert rc == 2
    assert "weights" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("variant", ["classical", "quantum"])
def test_consensus_next_hop_loop_exits_2(tmp_path, capsys, variant):
    # the live links of nodes 1-4 form the ring 1-2-3-4-1, and nodes 2, 3
    # and 4 each prefer the hop they take, so no round breaks the loop
    doc = topo.canonical_two_tree_topology().to_json_dict()
    ring = {(1, 0): (1, 2), (2, 0): (2, 3), (3, 0): (3, 4), (4, 0): (4, 1)}
    for link in doc["links"]:
        link["a"], link["b"] = ring.get((link["a"], link["b"]), (link["a"], link["b"]))
    for choice in doc["choices"]:
        if choice["node"] in (2, 3, 4):
            choice["options"][1].update(cost=60.0, payoff=0.9)
    topo_file = tmp_path / "loop.json"
    topo_file.write_text(json.dumps(doc))
    cfg = write_config(tmp_path, {"topology_file": str(topo_file), "source": 1, "destination": 8})
    out = tmp_path / "out"
    rc = main(["consensus", "--variant", variant, "--config", cfg, "--out", str(out)])
    assert rc == 2
    assert "loop at node 1" in capsys.readouterr().err
    assert not out.exists()


def _zero_option_cost(doc):
    doc["choices"][0]["options"][1]["cost"] = 0.0


def _zero_trunk_cost(doc):
    # the leaders' link is the one path hop that is no node's option
    [trunk] = [l for l in doc["links"] if {l["a"], l["b"]} == {0, 5}]
    trunk["cost"] = 0.0


@pytest.mark.parametrize("zero_cost", [_zero_option_cost, _zero_trunk_cost])
@pytest.mark.parametrize("variant", ["classical", "quantum"])
def test_consensus_zero_hop_cost_exits_2(tmp_path, capsys, zero_cost, variant):
    doc = topo.canonical_two_tree_topology().to_json_dict()
    zero_cost(doc)
    topo_file = tmp_path / "zero.json"
    topo_file.write_text(json.dumps(doc))
    cfg = write_config(tmp_path, {"topology_file": str(topo_file), "source": 1, "destination": 8})
    out = tmp_path / "out"
    rc = main(["consensus", "--variant", variant, "--config", cfg, "--out", str(out)])
    assert rc == 2
    assert "latency_cost must be > 0, got 0.0" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


def test_sweep_nodes_csv_shape(tmp_path):
    cfg = write_config(tmp_path, {"trials": 3, "node_counts": [2, 3]})
    rc = main(["sweep", "--kind", "nodes", "--config", cfg, "--out", str(tmp_path), "--quiet"])
    assert rc == 0
    lines = (tmp_path / "sweep.csv").read_text().strip().splitlines()
    assert lines[0] == "x,regime,metric,mean,stddev,n"
    assert len(lines) == 1 + 2 * 4 * 7  # counts x regimes x metrics
    assert (tmp_path / "sweep.json").exists()


def test_sweep_nodes_past_paper_range_finishes(tmp_path):
    # a subprocess with a deadline, so a merge-and-split that grows with
    # 2**nodes fails here instead of stalling the suite
    cfg = write_config(tmp_path, {"node_counts": [2, 20], "trials": 20})
    src = Path(entangle_games.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "entangle_games.cli", "sweep", "--kind", "nodes",
         "--config", cfg, "--out", str(tmp_path), "--quiet"],
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=60,
    )
    assert proc.returncode == 0
    assert (tmp_path / "sweep.csv").exists()


def test_sweep_nodes_negative_score_backbone_exit_3(tmp_path, capsys):
    # 0.01 e-bits/s per link: the 20-count backbone's lone path scores below
    # zero, so no coalition forms on it and the sweep writes nothing
    cfg = write_config(tmp_path, {"link": {"latency_us": 1e7, "gen_prob": 0.1}, "node_counts": [4, 20]})
    rc = main(["sweep", "--kind", "nodes", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 3
    err = capsys.readouterr().err
    assert err == "infeasible scenario: stable partition contains no coalition with a 2->3 path\n"
    assert not (tmp_path / "out").exists()


def test_sweep_decoherence_fidelity_decreasing(tmp_path):
    cfg = write_config(tmp_path, {"trials": 3, "rates": [1e-6, 1e-5, 1e-4]})
    rc = main(["sweep", "--kind", "decoherence", "--config", cfg, "--out", str(tmp_path), "--quiet"])
    assert rc == 0
    by_series: dict[str, list[tuple[float, float]]] = {}
    for line in (tmp_path / "sweep.csv").read_text().strip().splitlines()[1:]:
        x, series, metric, mean, _, _ = line.split(",")
        if metric == "end_to_end_fidelity":
            by_series.setdefault(series, []).append((float(x), float(mean)))
    for series, points in by_series.items():
        fids = [f for _, f in sorted(points)]
        assert fids == sorted(fids, reverse=True)
        assert fids[0] > fids[-1]


@pytest.mark.parametrize(
    "kind, doc",
    [("nodes", {"node_counts": [2, 2]}), ("decoherence", {"rates": [1e-5, 1e-5]})],
)
def test_sweep_duplicate_grid_point_exits_2(tmp_path, capsys, kind, doc):
    # a repeated grid point would overwrite its cell and drop rows silently
    cfg = write_config(tmp_path, {"trials": 1, **doc})
    rc = main(["sweep", "--kind", kind, "--config", cfg, "--out", str(tmp_path), "--quiet"])
    assert rc == 2
    assert "strictly ascending" in capsys.readouterr().err
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize("kind, doc", [("nodes", {"node_counts": []}), ("decoherence", {"rates": []})])
def test_sweep_empty_grid_exits_2(tmp_path, capsys, kind, doc):
    cfg = write_config(tmp_path, {"trials": 1, **doc})
    rc = main(["sweep", "--kind", kind, "--config", cfg, "--out", str(tmp_path), "--quiet"])
    assert rc == 2
    assert "non-empty" in capsys.readouterr().err
    assert not (tmp_path / "sweep.csv").exists()


def test_cli_import_leaves_networkx_out():
    src = Path(entangle_games.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, entangle_games.cli; print('networkx' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "False"


# ---------------------------------------------------------------------------
# commands with networkx blocked and every warning an error
# ---------------------------------------------------------------------------


@pytest.fixture
def strict(monkeypatch):
    """networkx unimportable, as no runtime path may need it, and every
    warning, numpy's included, raised as an error."""
    monkeypatch.setitem(sys.modules, "networkx", None)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        yield


# lossy link configs, so some sweep cells draw per trial: at 0.8 in one
# vector pass, at 0.2 per trial, at 1/3 on the boundary
_GEN_PROBS = {"lossy": 0.8, "low": 0.2, "third": 1 / 3}


@pytest.mark.parametrize(
    "argv",
    [
        ["gen"],
        ["coalition", "--variant", "classical"],
        ["coalition", "--variant", "quantum"],
        # 4 players who reach a grid Nash equilibrium and play on past it
        ["coalition", "--variant", "quantum", "--scenario", "2"],
        # unentangled: CDFs with zero-probability steps
        ["coalition", "--variant", "quantum", "--gamma", "0"],
        ["consensus", "--variant", "classical"],
        ["consensus", "--variant", "quantum"],
        ["sweep", "--kind", "nodes", "--trials", "10"],
        ["sweep", "--kind", "nodes", "--trials", "10", "--config", "lossy"],
        # a seed of two uint32 words
        ["sweep", "--kind", "nodes", "--trials", "10", "--config", "lossy", "--seed", "4294967303"],
        ["sweep", "--kind", "nodes", "--trials", "10", "--config", "low"],
        ["sweep", "--kind", "nodes", "--trials", "10", "--config", "third"],
        ["sweep", "--kind", "nodes", "--trials", "10", "--config", "third", "--seed", "4294967303"],
        ["sweep", "--kind", "decoherence", "--trials", "10"],
        ["chsh"],
    ],
    ids=lambda argv: "_".join(a.lstrip("-") for a in argv),
)
def test_command_runs_without_networkx_or_warnings(tmp_path, strict, argv):
    argv = [
        write_config(tmp_path, {"link": {"gen_prob": _GEN_PROBS[a]}}) if a in _GEN_PROBS else a
        for a in argv
    ]
    assert main([*argv, "--out", str(tmp_path / "out"), "--quiet"]) == 0


def test_quantum_game_on_a_max_qubits_chain_file(tmp_path, strict):
    # q.MAX_QUBITS players: 4096 amplitudes and the uint16 join table
    topo_file = tmp_path / "chain.json"
    topo_file.write_text(line_topology(q.MAX_QUBITS).to_json())
    doc = {"topology_file": str(topo_file), "source": 0, "destination": q.MAX_QUBITS - 1}
    argv = ["coalition", "--variant", "quantum", "--config", write_config(tmp_path, doc)]
    assert main([*argv, "--out", str(tmp_path / "out"), "--quiet"]) == 0
    assert json.loads((tmp_path / "out/outcome.json").read_text())["path"][-1] == q.MAX_QUBITS - 1


@pytest.mark.parametrize("command", ["coalition", "consensus"])
@pytest.mark.parametrize("variant", ["classical", "quantum"])
def test_generated_topology_file_plays_as_the_built_one(tmp_path, strict, command, variant):
    # the canonical two-tree network, once built and once read back from
    # the file `gen` wrote, between its default demo pair 1 and 8
    assert main(["gen", "--scenario", "2", "--out", str(tmp_path / "gen"), "--quiet"]) == 0
    doc = {"topology_file": str(tmp_path / "gen/topology.json"), "source": 1, "destination": 8}
    argv = [command, "--variant", variant, "--quiet"]
    assert main([*argv, "--config", write_config(tmp_path, doc), "--out", str(tmp_path / "file")]) == 0
    built = write_config(tmp_path, {"scenario": 2}, "built.json")
    assert main([*argv, "--config", built, "--out", str(tmp_path / "built")]) == 0
    for name in ("outcome.json", "trace.jsonl"):
        assert (tmp_path / "file" / name).read_bytes() == (tmp_path / "built" / name).read_bytes()


def test_sweep_rerun_byte_identical(tmp_path):
    cfg = write_config(tmp_path, {"trials": 2, "node_counts": [2, 3], "link": {"gen_prob": 0.8}})
    main(["sweep", "--config", cfg, "--out", str(tmp_path / "a"), "--seed", "9", "--quiet"])
    main(["sweep", "--config", cfg, "--out", str(tmp_path / "b"), "--seed", "9", "--quiet"])
    assert (tmp_path / "a/sweep.csv").read_bytes() == (tmp_path / "b/sweep.csv").read_bytes()
    assert (tmp_path / "a/sweep.json").read_bytes() == (tmp_path / "b/sweep.json").read_bytes()



@pytest.mark.parametrize("under", [False, True], ids=["regular-file", "under-a-regular-file"])
def test_out_on_a_regular_file_exits_2(tmp_path, capsys, under):
    # a parent directory without write permission is not tested: root, who
    # runs some test hosts, may write into it anyway
    blocker = tmp_path / "file"
    blocker.write_text("kept\n")
    out = blocker / "sub" if under else blocker
    assert main(["gen", "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: cannot write {out}: ")
    assert "Traceback" not in err
    assert blocker.read_text() == "kept\n"


# ---------------------------------------------------------------------------
# the parser, built once per process
# ---------------------------------------------------------------------------


def _run_each(argvs, capsys):
    """Exit code (or argparse's SystemExit code), output files, stdout and
    stderr of each command, run in turn through `main` with --out run-<i>."""
    results = []
    for i, argv in enumerate(argvs):
        out = Path(f"run-{i}")
        try:
            rc = main([*argv, "--out", str(out)])
        except SystemExit as exc:
            rc = f"SystemExit({exc.code})"
        files = {p.as_posix(): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}
        captured = capsys.readouterr()
        results.append((rc, files, captured.out, captured.err))
    return results


def test_cached_parser_runs_commands_like_a_fresh_one(tmp_path, capsys, monkeypatch):
    assert cli.build_parser() is cli.build_parser()
    lossy = write_config(tmp_path, {"link": {"gen_prob": 0.8}, "node_counts": [2, 4], "trials": 20})
    argvs = [
        ["sweep", "--kind", "decoherence", "--trials", "20"],
        ["coalition", "--variant", "quantum"],
        ["gen", "--seed", "-1"],
        ["sweep", "--config", lossy],  # --kind back at its default after decoherence
        ["consensus", "--variant", "classical"],
        ["coalition", "--variant", "bogus"],  # an argparse error
        ["gen", "--scenario", "2", "--seed", "3"],
        ["consensus", "--variant", "quantum", "--seed", "7"],
        ["coalition"],
    ]
    runs = {}
    for name in ("cached", "fresh"):
        if name == "fresh":
            monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
        (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / name)
        runs[name] = _run_each(argvs, capsys)
    assert [run[0] for run in runs["cached"]] == [0, 0, 2, 0, 0, "SystemExit(2)", 0, 0, 0]
    assert all(files for rc, files, _, _ in runs["cached"] if rc == 0)
    assert runs["cached"] == runs["fresh"]


# the 15 (command, flag) pairs no command reads, with a value each flag
# would take where it is read
_UNREAD_FLAGS = [
    ("gen", "--variant", "quantum"), ("gen", "--gamma", "0"), ("gen", "--trials", "1"),
    ("coalition", "--trials", "1"),
    ("consensus", "--scenario", "1"), ("consensus", "--gamma", "0"),
    ("consensus", "--trials", "1"),
    ("sweep", "--scenario", "1"), ("sweep", "--variant", "quantum"), ("sweep", "--gamma", "0"),
    ("chsh", "--seed", "5"), ("chsh", "--scenario", "1"), ("chsh", "--variant", "quantum"),
    ("chsh", "--gamma", "0"), ("chsh", "--trials", "1"),
]


@pytest.mark.parametrize("command, flag, value", _UNREAD_FLAGS)
def test_flag_a_command_does_not_read_exits_2(tmp_path, capsys, command, flag, value):
    with pytest.raises(SystemExit) as exc:
        main([command, flag, value, "--out", str(tmp_path / "out"), "--quiet"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"unrecognized arguments: {flag} {value}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("seed", ["3", "0"])
def test_seed_flag_overrides_the_file_seed(tmp_path, capsys, seed):
    # a file's quiet holds when --quiet is not given
    cfg = write_config(tmp_path, {"seed": -1, "quiet": True})
    assert main(["gen", "--config", cfg, "--seed", seed, "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().out == ""
    flagged = tmp_path / "flagged/topology.json"
    main(["gen", "--seed", seed, "--out", str(flagged.parent), "--quiet"])
    assert (tmp_path / "out/topology.json").read_bytes() == flagged.read_bytes()


@pytest.mark.parametrize(
    "argv",
    [["gen", "--seed", "2"], ["coalition", "--gamma", "0"], ["consensus", "--variant", "quantum"],
     ["sweep", "--kind", "decoherence", "--trials", "1"], ["chsh"]],
    ids=lambda argv: argv[0],
)
def test_each_command_validates_its_settings_once(tmp_path, monkeypatch, argv):
    calls = []
    validate = RunConfig.validate
    monkeypatch.setattr(RunConfig, "validate", lambda cfg: calls.append(validate(cfg)))
    assert main([*argv, "--out", str(tmp_path), "--quiet"]) == 0
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# chsh
# ---------------------------------------------------------------------------


def test_chsh_report_values(capsys):
    rc = main(["chsh"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "0.750000" in out
    assert "0.853553" in out


def test_chsh_repeat_identical(capsys):
    main(["chsh"])
    first = capsys.readouterr().out
    main(["chsh"])
    second = capsys.readouterr().out
    assert first == second
