import json
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import habitree.instances as gi
from habitree import (AdaptedProcess, AgentSpec, EventTree, SchemaError, intermediate_partitions,
                      static_habit_matrix, validate_market_class)
from habitree import io as hio, optimizer
from habitree.cli import build_parser, main


def run_cli(args, tmp_path=None):
    proc = subprocess.run([sys.executable, "-m", "habitree.cli"] + args,
                          capture_output=True)
    return proc.returncode, proc.stdout, proc.stderr


def write_json(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def test_cli_import_loads_no_scipy():
    # scipy is imported by the solvers that use it, not at start-up
    code = ("import sys, habitree.cli; "
            "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True)
    assert proc.stdout.strip() == "[]"


@pytest.fixture
def iid_input(tmp_path):
    return write_json(tmp_path, "iid.json", {
        "support": [{"x": 3.0, "p": 0.5}, {"x": 4.0, "p": 0.5}],
        "gamma": 2.0, "rho": 0.0, "beta": 0.0, "horizon": 1})


@pytest.fixture
def market_agent_input(tmp_path):
    market = gi.deterministic_market(2, 0.05)
    obj = {"market": hio.dump_market(market),
           "agent": {"gamma": 2.0, "rho": 0.01, "beta": 0.2,
                     "endowment": {nid: 1.0 for nid in market.tree.ids}}}
    return write_json(tmp_path, "solve.json", obj)


# -- JSON schemas ----------------------------------------------------------------


def test_tree_json_round_trip():
    rng = np.random.default_rng(90)
    tree = gi.random_tree(rng, min_depth=2)
    back = hio.load_tree(hio.dump_tree(tree))
    assert back.ids == tree.ids
    assert np.allclose(back.trans_prob, tree.trans_prob)


def test_market_json_round_trip_spd():
    rng = np.random.default_rng(91)
    market = gi.random_classC_market(rng, gi.random_tree(rng, min_depth=2))
    back = hio.load_market(hio.dump_market(market))
    assert np.max(np.abs(back.spd.values - market.spd.values)) < 1e-12


@pytest.mark.parametrize("make", [
    lambda rng: gi.random_classC_market(rng, gi.random_tree(rng, min_depth=2)),
    lambda rng: gi.random_idiosyncratic_market(rng),
], ids=["classC", "factor"])
def test_market_json_round_trip_keeps_partitions(make):
    market = make(np.random.default_rng(92))
    once = hio.load_market(json.loads(json.dumps(hio.dump_market(market))))
    twice = hio.load_market(hio.dump_market(once))
    assert hio.dump_market(twice) == hio.dump_market(once)
    want = validate_market_class(market)
    parts = intermediate_partitions(market)
    for back in (once, twice):
        assert back.tree.ids == market.tree.ids
        assert (back.idio is None) == (market.idio is None)
        assert validate_market_class(back).labels == want.labels
        assert [p.blocks for p in intermediate_partitions(back)] == [p.blocks for p in parts]


def test_market_json_classC_blocks_section_is_not_read():
    """H_k comes from the payoff spans: a leftover `classC_blocks` section,
    even one that names no real node, leaves the market as it is."""
    rng = np.random.default_rng(93)
    market, truth = gi.random_classC_instance(rng, gi.random_tree(rng, min_depth=2))
    obj = hio.dump_market(market)
    assert "classC_blocks" not in obj
    obj["classC_blocks"] = {"1": [["no-such-node"]]}
    back = hio.load_market(obj)
    assert hio.dump_market(back) == hio.dump_market(market)
    assert [set(p.blocks) for p in intermediate_partitions(back)] == \
        [set(p.blocks) for p in truth]


def test_agent_json_beta_matrix_forms():
    tree = EventTree.single_path(2)
    tdump = hio.dump_tree(tree)
    endow = {nid: 1.0 for nid in tree.ids}
    ragged = hio.load_agent({"gamma": 2.0, "rho": 0.0, "endowment": endow,
                             "beta_matrix": [[], [0.3], [0.1, 0.2]]}, tree)
    assert ragged.habits[1, 0] == 0.3 and ragged.habits[2, 1] == 0.2
    static = hio.load_agent({"gamma": 2.0, "rho": 0.0, "beta": 0.3, "endowment": endow}, tree)
    assert static.habits[1, 0] == 0.3 and static.habits[2, 1] == 0.3
    with pytest.raises(SchemaError):
        hio.load_agent({"gamma": 2.0, "rho": 0.0, "endowment": endow}, tree)
    assert tdump["horizon"] == 2


def test_schema_errors_name_fields():
    with pytest.raises(SchemaError) as e:
        hio.load_tree({"horizon": 1})
    assert "nodes" in str(e.value)
    with pytest.raises(SchemaError) as e:
        hio.load_iid({"support": [{"x": 3.0}], "gamma": 2.0, "rho": 0.0, "horizon": 1})
    assert "support[0].p" in str(e.value)


@pytest.mark.parametrize("load", [
    lambda horizon: hio.load_tree(dict(hio.dump_tree(EventTree.single_path(1)), horizon=horizon)),
    lambda horizon: hio.load_iid({"support": [{"x": 3.0, "p": 1.0}], "gamma": 2.0, "rho": 0.0,
                                  "horizon": horizon}),
], ids=["tree", "iid"])
def test_integer_fields_reject_booleans(load):
    # bool is an int subclass: `true` once loaded as a one-period horizon
    with pytest.raises(SchemaError) as info:
        load(True)
    assert info.value.field in ("horizon", "iid.horizon")
    assert str(info.value).endswith("expected int")
    load(1)


# -- loaders: the entry-by-entry fallbacks name the same entry as before ------------

_TREE = EventTree.uniform(2, 2)        # ids r, 0, 1, 0.0, 0.1, 1.0, 1.1


def _node_edit(i, key, value):
    def edit(nodes):
        if value is KeyError:
            del nodes[i][key]
        else:
            nodes[i][key] = value
    return edit


@pytest.mark.parametrize("edit,field,message", [
    (_node_edit(2, "id", 7), "nodes[2].id", "expected str"),
    (_node_edit(3, "parent", 1), "nodes[3].parent", "expected node id or null"),
    (_node_edit(4, "prob", KeyError), "nodes[4].prob", "missing"),
    (_node_edit(1, "prob", True), "nodes[1].prob", "expected a finite number"),
    (_node_edit(1, "prob", 10 ** 400), "nodes[1].prob", "expected a finite number"),
    (_node_edit(5, "prob", math.nan), "nodes[5].prob", "expected a finite number"),
    (_node_edit(5, "prob", math.inf), "nodes[5].prob", "expected a finite number"),
    (lambda nodes: nodes.__setitem__(2, ["x"]), "nodes[2].id", "missing"),
    (_node_edit(3, "parent", "zz"), "nodes.parent", "unknown parent 'zz' of '0.0'"),
], ids=["id-int", "parent-int", "prob-missing", "prob-true", "prob-huge", "prob-nan",
        "prob-inf", "node-not-object", "parent-unknown"])
def test_load_tree_errors_name_the_node(edit, field, message):
    doc = hio.dump_tree(_TREE)
    edit(doc["nodes"])
    with pytest.raises(SchemaError) as info:
        hio.load_tree(json.loads(json.dumps(doc)))
    assert (info.value.field, str(info.value)) == (field, f"{field}: {message}")


@pytest.mark.parametrize("entries,message", [
    ({"zz": 1.0}, "unknown node id 'zz'"),
    ({"1": True}, "value at '1' must be a finite number"),
    ({"1": 10 ** 400}, "value at '1' must be a finite number"),
    ({"0.1": math.nan}, "value at '0.1' must be a finite number"),
    ({"0.1": math.inf}, "value at '0.1' must be a finite number"),
    ({"0.1": -math.inf}, "value at '0.1' must be a finite number"),
    ({"1": "1.0"}, "value at '1' must be a finite number"),
    ({"1": None}, "value at '1' must be a finite number"),
    # unknown ids and non-numbers are named in input order, before any NaN
    ({"0": math.nan, "zz": 1.0}, "unknown node id 'zz'"),
    # non-finite values are named in node order
    ({"1.1": math.nan, "0": math.nan}, "value at '0' must be a finite number"),
], ids=["unknown-id", "true", "huge", "nan", "inf", "-inf", "string", "null",
        "unknown-after-nan", "nan-node-order"])
def test_node_map_errors_name_the_entry(entries, message):
    endowment = {nid: 1.0 for nid in _TREE.ids}
    endowment.update(entries)
    agent = {"gamma": 2.0, "rho": 0.0, "beta": 0.2, "endowment": endowment}
    with pytest.raises(SchemaError) as info:
        hio.load_agent(json.loads(json.dumps(agent)), _TREE)
    assert (info.value.field, str(info.value)) == ("agent.endowment",
                                                   f"agent.endowment: {message}")


def test_loaders_accept_numpy_numbers_through_the_fallback():
    # numpy scalars are not plain floats, so they take the entry-by-entry
    # walk; the loaded values must equal the plain-float load
    doc = hio.dump_tree(_TREE)
    values = {nid: 1.0 + i / 7 for i, nid in enumerate(_TREE.ids)}
    plain = hio.load_agent({"gamma": 2.0, "rho": 0.0, "beta": 0.2, "endowment": values}, _TREE)
    wrapped = hio.load_agent({"gamma": 2.0, "rho": 0.0, "beta": 0.2,
                              "endowment": {k: np.float64(v) for k, v in values.items()}}, _TREE)
    assert np.array_equal(plain.endowment.values, wrapped.endowment.values)
    for node in doc["nodes"]:
        node["prob"] = np.float64(node["prob"])
    tree = hio.load_tree(doc)
    assert tree.ids == _TREE.ids and np.array_equal(tree.trans_prob, _TREE.trans_prob)


def test_equilibrium_json_round_trip():
    econ = gi.desk_heterogeneous_economy()
    from habitree.equilibrium import heterogeneous_equilibrium
    res = heterogeneous_equilibrium(econ)
    dumped = hio.dump_equilibrium(res)
    back = hio.load_equilibrium(json.loads(json.dumps(dumped)))
    assert np.max(np.abs(back.M.values - res.M.values)) == 0.0
    assert back.lambdas == res.lambdas
    assert np.max(np.abs(back.consumptions[1].values - res.consumptions[1].values)) == 0.0


# -- CLI ---------------------------------------------------------------------------


def test_cli_bond_curve_endpoints(iid_input):
    rc, out, err = run_cli(["bond-curve", "--input", iid_input, "--beta-grid", "0:1:0.5"])
    assert rc == 0, err
    lines = out.decode().strip().splitlines()
    assert lines[0] == "beta,value"
    first = float(lines[1].split(",")[1])
    last = float(lines[-1].split(",")[1])
    assert first == pytest.approx(25 / 288, abs=1e-15)
    assert last == pytest.approx(13 / 59, abs=1e-15)


def test_cli_determinism(iid_input):
    args = ["bond-curve", "--input", iid_input, "--beta-grid", "0:1:0.25"]
    rc1, out1, _ = run_cli(args)
    rc2, out2, _ = run_cli(args)
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_cli_lucas_curve(iid_input):
    rc, out, err = run_cli(["lucas-curve", "--input", iid_input, "--beta-grid", "0:1:0.5"])
    assert rc == 0, err
    lines = out.decode().strip().splitlines()
    vals = [float(l.split(",")[1]) for l in lines[1:]]
    assert vals[0] == pytest.approx(7 / 17, abs=1e-14)
    assert vals == sorted(vals)


def test_cli_spd_solve_bounds(market_agent_input, tmp_path):
    rc, out, err = run_cli(["spd", "--input", market_agent_input])
    assert rc == 0, err
    spd = json.loads(out)["spd"]
    assert spd["n0"] == 1.0

    rc, out, err = run_cli(["solve", "--input", market_agent_input])
    assert rc == 0, err
    solved = json.loads(out)
    assert solved["foc_residual"] < 1e-9

    rc, out, err = run_cli(["bounds", "--input", market_agent_input])
    assert rc == 0, err
    rep = json.loads(out)
    assert rep["min_slack"] >= -1e-9
    quantities = {(row["period"], row["quantity"]) for row in rep["periods"]}
    assert (0, "consumption") in quantities and (2, "wealth") in quantities
    for row in rep["periods"]:
        assert row["lower"] <= row["value"] + 1e-9 <= row["upper"] + 2e-9


def test_cli_asymptotics(market_agent_input):
    rc, out, err = run_cli(["asymptotics", "--input", market_agent_input,
                            "--eps0-grid", "1e1,1e2,1e3,1e4"])
    assert rc == 0, err
    text = out.decode()
    assert text.startswith("eps0,err_c,err_W")
    assert "# summary:" in text


def test_cli_asymptotics_checks_tol(tmp_path):
    # an incomplete market, so the sweep's solves are Newton's, which meet
    # 1e-9 but stagnate at roundoff above 1e-18
    rng = np.random.default_rng(70)
    tree = gi.random_tree(rng, min_depth=2)
    market = gi.random_general_market(rng, tree)
    assert not market.is_complete()
    obj = {"market": hio.dump_market(market),
           "agent": {"gamma": 2.0, "rho": 0.01, "beta": 0.2,
                     "endowment": {nid: 1.0 for nid in tree.ids}}}
    path = write_json(tmp_path, "sweep.json", obj)
    rc, out, err = run_cli(["asymptotics", "--input", path, "--tol", "1e-9"])
    assert rc == 0, err
    rc, out, err = run_cli(["asymptotics", "--input", path, "--tol", "1e-18"])
    assert rc == 3 and out == b""
    assert json.loads(err)["error"] == "ConvergenceError"


def test_cli_equilibrium_and_exit_codes(tmp_path):
    econ = gi.desk_heterogeneous_economy()
    obj = {"economy": {
        "tree": hio.dump_tree(econ.tree), "beta": econ.beta,
        "agents": [{"gamma": a.gamma, "rho": a.rho,
                    "endowment": {nid: float(a.endowment.values[i])
                                  for i, nid in enumerate(econ.tree.ids)}}
                   for a in econ.agents]}}
    path = write_json(tmp_path, "econ.json", obj)
    rc, out, err = run_cli(["equilibrium", "--input", path])
    assert rc == 0, err
    res = json.loads(out)
    assert res["residuals"]["h_inf"] < 1e-10

    # schema violation -> 2, field named on stderr
    obj_bad = json.loads(json.dumps(obj))
    del obj_bad["economy"]["beta"]
    path2 = write_json(tmp_path, "bad.json", obj_bad)
    rc, out, err = run_cli(["equilibrium", "--input", path2])
    assert rc == 2
    msg = json.loads(err)
    assert msg["error"] == "SchemaError" and "beta" in msg["field"]

    # existence condition violation -> 4
    tdump = hio.dump_tree(EventTree.single_path(1))
    obj_cond = {"economy": {"tree": tdump, "beta": 0.9,
                            "agents": [{"gamma": 2.0, "rho": 0.0,
                                        "endowment": {"n0": 1.0, "n1": 0.5}}]}}
    path3 = write_json(tmp_path, "cond.json", obj_cond)
    rc, out, err = run_cli(["equilibrium", "--input", path3])
    assert rc == 4
    assert json.loads(err)["error"] == "ConditionError"


def _desk_document():
    econ = gi.desk_heterogeneous_economy()
    return {"economy": {
        "tree": hio.dump_tree(econ.tree), "beta": econ.beta,
        "agents": [{"gamma": a.gamma, "rho": a.rho,
                    "endowment": {nid: float(a.endowment.values[i])
                                  for i, nid in enumerate(econ.tree.ids)}}
                   for a in econ.agents]}}


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_cli_non_finite_endowment_is_a_schema_error(tmp_path, value):
    obj = _desk_document()
    node = obj["economy"]["tree"]["nodes"][3]["id"]
    obj["economy"]["agents"][0]["endowment"][node] = value
    path = write_json(tmp_path, "nonfinite.json", obj)
    assert ("NaN" if value != value else "Infinity") in open(path).read()
    rc, out, err = run_cli(["equilibrium", "--input", path])
    assert rc == 2 and out == b""
    msg = json.loads(err)
    assert msg["error"] == "SchemaError"
    assert msg["field"] == "economy.agents[0].endowment"
    assert repr(node) in msg["message"]


@pytest.mark.parametrize("value", [float("nan"), float("-inf")])
def test_cli_non_finite_scalar_is_a_schema_error(tmp_path, value):
    obj = _desk_document()
    obj["economy"]["agents"][1]["rho"] = value
    path = write_json(tmp_path, "nonfinite.json", obj)
    rc, out, err = run_cli(["equilibrium", "--input", path])
    assert rc == 2 and out == b""
    assert json.loads(err)["field"] == "economy.agents[1].rho"


@pytest.mark.parametrize("edit,field", [
    (lambda o: o.update(gamma=10 ** 400), "iid.gamma"),
    (lambda o: o.update(beta=float("nan")), "iid.beta"),
    (lambda o: o["support"][0].update(x=float("inf")), "iid.support[0].x"),
])
def test_load_iid_rejects_numbers_beyond_the_float_range(edit, field):
    obj = {"support": [{"x": 3.0, "p": 0.5}, {"x": 4.0, "p": 0.5}],
           "gamma": 2.0, "rho": 0.0, "beta": 0.0, "horizon": 1}
    edit(obj)
    with pytest.raises(SchemaError) as info:
        hio.load_iid(obj)
    assert info.value.field == field


# a NaN tolerance would let every residual test pass
@pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf"])
def test_cli_bad_tolerance_is_a_schema_error(tmp_path, tol):
    path = write_json(tmp_path, "desk.json", _desk_document())
    rc, out, err = run_cli(["equilibrium", "--input", path, "--tol", tol])
    assert rc == 2 and out == b""
    assert json.loads(err)["field"] == "tol"


def test_cli_rejects_a_repeated_node_id(tmp_path):
    obj = _desk_document()
    node = obj["economy"]["tree"]["nodes"][3]["id"]
    # the first agent's endowment map names the node twice
    text = json.dumps(obj).replace('"endowment": {', f'"endowment": {{"{node}": 5.0, ', 1)
    path = tmp_path / "repeated.json"
    path.write_text(text)
    rc, out, err = run_cli(["equilibrium", "--input", str(path)])
    assert rc == 2 and out == b""
    msg = json.loads(err)
    assert (msg["error"], msg["field"]) == ("SchemaError", "input")
    assert repr(node) in msg["message"]


def test_cli_rejects_a_repeated_field(market_agent_input, tmp_path):
    text = open(market_agent_input).read().replace('"agent": {', '"agent": {"beta": 0.5, ', 1)
    path = tmp_path / "repeated.json"
    path.write_text(text)
    rc, out, err = run_cli(["solve", "--input", str(path)])
    assert rc == 2 and out == b""
    msg = json.loads(err)
    assert (msg["error"], msg["field"]) == ("SchemaError", "input")
    assert "'beta'" in msg["message"]


def test_cli_names_a_late_repeated_key_in_a_large_map(tmp_path):
    # the repeated key is the last of 200,000, so naming it must take one
    # pass over the object, not one count per key
    keys = [f"x{i}" for i in range(200_000)]
    body = ", ".join(f'"{k}": 1.0' for k in keys + keys[-1:])
    path = tmp_path / "repeated.json"
    path.write_text(f'{{"economy": {{"endowment": {{{body}}}}}}}')
    proc = subprocess.run([sys.executable, "-m", "habitree.cli", "equilibrium",
                           "--input", str(path)], capture_output=True, timeout=60)
    assert proc.returncode == 2 and proc.stdout == b""
    msg = json.loads(proc.stderr)
    assert (msg["error"], msg["field"]) == ("SchemaError", "input")
    assert repr(keys[-1]) in msg["message"]


def test_cli_malformed_json(tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("{not json")
    rc, out, err = run_cli(["equilibrium", "--input", str(path)])
    assert rc == 2


def test_cli_nonconvergence_exit_code(tmp_path):
    # a tolerance below the evaluation noise floor cannot be met
    econ = gi.desk_heterogeneous_economy()
    obj = {"economy": {
        "tree": hio.dump_tree(econ.tree), "beta": econ.beta,
        "agents": [{"gamma": a.gamma, "rho": a.rho,
                    "endowment": {nid: float(a.endowment.values[i])
                                  for i, nid in enumerate(econ.tree.ids)}}
                   for a in econ.agents]}}
    path = write_json(tmp_path, "tight.json", obj)
    rc, out, err = run_cli(["equilibrium", "--input", path, "--tol", "1e-18"])
    assert rc == 3
    assert json.loads(err)["error"] == "ConvergenceError"


def test_cli_verify_small_manifest(tmp_path):
    manifest = write_json(tmp_path, "manifest.json",
                          {"suites": {"tree-tower": 3, "perturbed-spd": 3}})
    rc, out, err = run_cli(["verify", "--input", manifest, "--seed", "7"])
    assert rc == 0, err
    rep = json.loads(out)
    assert rep["all_passed"] and rep["seed"] == 7
    names = [s["name"] for s in rep["suites"]]
    assert names == sorted(names)


@pytest.mark.parametrize("manifest", [
    {"suites": {"walras": "x"}},
    ["walras"],
    {"walras": -3},
    {"walras": 1.7},
    {"walras": True},
    {"suites": {"no-such-suite": 1}},
], ids=["string-count", "top-level-list", "negative", "float", "bool", "unknown-name"])
def test_cli_verify_rejects_malformed_manifest(tmp_path, capsys, manifest):
    path = write_json(tmp_path, "manifest.json", manifest)
    assert main(["verify", "--input", path]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err) == {"error": "SchemaError", "field": "suites", "message":
                               "suites: expected an object mapping suite names to "
                               "non-negative integer instance counts"}


def test_cli_verify_deterministic_given_seed(tmp_path):
    manifest = write_json(tmp_path, "manifest.json", {"suites": {"tree-tower": 2}})
    rc1, out1, _ = run_cli(["verify", "--input", manifest, "--seed", "11"])
    rc2, out2, _ = run_cli(["verify", "--input", manifest, "--seed", "11"])
    assert out1 == out2 and rc1 == rc2 == 0


def _schema_error_field(argv, capsys):
    """Exit code 2 with nothing on stdout; the field of the JSON error."""
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    return json.loads(err)["field"]


@pytest.mark.parametrize("command", ["solve", "bounds", "asymptotics"])
def test_cli_every_tolerance_is_checked(market_agent_input, capsys, command):
    argv = [command, "--input", market_agent_input, "--tol", "-1"]
    assert _schema_error_field(argv, capsys) == "tol"


@pytest.mark.parametrize("grid", ["1,2", "1,10,100,200", "0,10,100,1000", "10,1,100,1000"],
                         ids=["two-points", "under-3-decades", "zero-start", "decreasing"])
def test_cli_bad_eps0_grid_is_a_schema_error(market_agent_input, capsys, grid):
    argv = ["asymptotics", "--input", market_agent_input, "--eps0-grid", grid]
    assert _schema_error_field(argv, capsys) == "eps0-grid"


def test_cli_bond_maturity_must_be_at_least_one(iid_input, capsys):
    for argv in (["bond-curve", "--maturity", "0"],
                 ["bond-curve", "--input", iid_input, "--maturity", "-1"]):
        assert _schema_error_field(argv, capsys) == "maturity"


@pytest.mark.parametrize("argv", [
    ["unknown"],
    ["spd", "--tol", "1e-9"],
    ["solve", "--seed", "1"],
    ["lucas-curve", "--maturity", "3"],
    ["verify", "--tol", "1e-9"],
], ids=["unknown-command", "spd-tol", "solve-seed", "lucas-maturity", "verify-tol"])
def test_cli_rejects_a_flag_the_command_does_not_read(argv, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("command,flags", [
    ("spd", []),
    ("solve", ["--tol"]),
    ("bounds", ["--tol"]),
    ("asymptotics", ["--tol", "--eps0-grid"]),
    ("equilibrium", ["--tol"]),
    ("bond-curve", ["--beta-grid", "--maturity"]),
    ("lucas-curve", ["--beta-grid"]),
    ("verify", ["--seed"]),
])
def test_each_command_help_lists_only_the_flags_it_reads(capsys, command, flags):
    with pytest.raises(SystemExit) as info:
        main([command, "--help"])
    assert info.value.code == 0
    listed = set(re.findall(r"--[a-z0-9-]+", capsys.readouterr().out))
    assert listed == {"--help", "--input", "--output", *flags}


@pytest.mark.parametrize("spec", ["0.1,nan", "inf", "0:inf:0.1", "0:1:nan"])
def test_grids_reject_non_finite_values(spec):
    from habitree.cli import _parse_grid

    with pytest.raises(SchemaError):
        _parse_grid(spec, "beta-grid")


def test_grids_step_in_decimal():
    from habitree.cli import _parse_grid

    assert _parse_grid("0:1:0.01", "beta-grid") == [i / 100 for i in range(101)]
    assert _parse_grid("0:0.5:0.05", "beta-grid") == [i / 20 for i in range(11)]


def test_figure_data_grids(tmp_path):
    # the figure data are the curve commands' default output on the bundled
    # two-point growth economy
    def rows(command):
        path = tmp_path / f"{command}.csv"
        assert main([command, "--output", str(path)]) == 0
        header, *lines = path.read_text().splitlines()
        assert header == "beta,value"
        return [tuple(float(x) for x in line.split(",")) for line in lines]

    rows1 = rows("bond-curve")
    rows2 = rows("lucas-curve")
    assert len(rows1) == len(rows2) == 101
    betas = [b for b, _ in rows1]
    assert betas == sorted(betas)
    assert all(abs((b2 - b1) - 0.01) < 1e-12 for b1, b2 in zip(betas, betas[1:]))
    assert rows1[0][1] == pytest.approx(25 / 288, abs=1e-15)
    assert rows2[-1][1] == pytest.approx(0.9381854436689929, abs=1e-12)


def test_main_returns_zero_in_process(tmp_path, iid_input, capsys):
    rc = main(["bond-curve", "--input", iid_input, "--beta-grid", "0:1:0.5",
               "--output", str(tmp_path / "out.csv")])
    assert rc == 0
    text = (tmp_path / "out.csv").read_text()
    assert text.startswith("beta,value")


# -- endowments that differ only in scale ------------------------------------------

SCALE_EXPONENTS = range(-300, 301, 10)


def _scale_route(route):
    """(market, agent) whose solve takes ``route``: the closed form (complete
    market, gamma 4), or Newton started at the endowment, at the bond
    account or at the phase-1 LP point (gamma 2)."""
    if route == "closed-form":
        rng = np.random.default_rng(7)
        tree = gi.random_tree(rng, min_depth=2)
        market = gi.random_complete_market(rng, tree)
        return market, AgentSpec(4.0, 0.02, static_habit_matrix(0.2, tree.horizon),
                                 AdaptedProcess(tree, tree.horizon,
                                                rng.uniform(1.0, 2.0, tree.n_nodes)))
    if route == "lp":
        # a unit initial endowment and a habit above the bond's gross return
        tree = EventTree.uniform(1, 3)
        market = gi.random_general_market(np.random.default_rng(5), tree)
        vals = np.zeros(tree.n_nodes)
        vals[0] = 1.0
        return market, AgentSpec(2.0, 0.03, static_habit_matrix(2.0, 1),
                                 AdaptedProcess(tree, 1, vals))
    rng = np.random.default_rng(66)
    tree = gi.random_tree(rng, min_depth=2)
    market = gi.random_general_market(rng, tree)
    vals = rng.uniform(1.0, 2.0, size=tree.n_nodes)
    if route == "bond":
        vals[tree.depth_nodes[1][0]] = 0.0      # a negative endowment surplus
    return market, AgentSpec(2.0, 0.03, static_habit_matrix(0.3, tree.horizon),
                             AdaptedProcess(tree, tree.horizon, vals))


def _scaled_document(market, agent, scale):
    tree = market.tree
    return {"market": hio.dump_market(market),
            "agent": {"gamma": agent.gamma, "rho": agent.rho,
                      "beta_matrix": agent.habits.tolist(),
                      "endowment": dict(zip(tree.ids, (agent.endowment.values * scale).tolist()))}}


def _run_in_process(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("route", ["closed-form", "endowment", "bond", "lp"])
def test_solve_never_fails_to_converge_on_a_rescaled_endowment(route, tmp_path, capsys):
    """Endowment x 10^e for e = -300..300: the same plan wherever the
    supporting SPD R ~ 10^(-gamma e) is a normal float, exit 4 (rescale the
    endowment) where it is not, and never exit 3, which a tolerance below
    roundoff still gives."""
    market, agent = _scale_route(route)
    endowed = optimizer._Endowed(optimizer._Problem(market, agent), agent.endowment.values)
    if route == "closed-form":
        assert market.is_complete()
    else:
        assert not market.is_complete()
        feasible = np.min(endowed.Lbase) > optimizer.SURPLUS_FLOOR
        assert feasible == (route == "endowment")
        if not feasible:
            assert (optimizer._bond_start(endowed) is None) == (route == "lp")
    path = str(tmp_path / "in.json")

    def solve(e, *flags):
        with open(path, "w") as fh:
            json.dump(_scaled_document(market, agent, 10.0 ** e), fh)
        return _run_in_process(["solve", "--input", path, *flags], capsys)

    code, out, _ = solve(0)
    assert code == 0
    base = json.loads(out)
    c0 = np.array([base["consumption"][i] for i in market.tree.ids])
    logR = np.log10([base["supporting_spd"][i] for i in market.tree.ids])
    lo, hi = np.log10(np.finfo(float).tiny), np.log10(np.finfo(float).max)
    seen = set()
    for e in SCALE_EXPONENTS:
        code, out, err = solve(e)
        assert code != 3, (e, err)
        # R scales by 10^(-gamma e); one decade of margin either way
        shifted = logR - agent.gamma * e
        if shifted.min() > lo + 1.0 and shifted.max() < hi - 1.0:
            assert code == 0, (e, err)
            got = json.loads(out)
            c = np.array([got["consumption"][i] for i in market.tree.ids]) / 10.0 ** e
            assert np.max(np.abs(c - c0) / c0) < 1e-12, e
            assert got["method"] == base["method"]
        elif shifted.min() < lo - 1.0 or shifted.max() > hi + 1.0:
            assert code == 4, (e, err)
            assert "rescale the endowment" in json.loads(err)["message"]
        seen.add(code)
    assert seen == {0, 4}
    for e in (-300, 0, 300):
        code, _, err = solve(e, "--tol", "1e-18")
        assert code == 3 and json.loads(err)["error"] == "ConvergenceError", e


def test_bounds_and_asymptotics_succeed_at_every_endowment_scale(tmp_path, capsys):
    """Neither command prints R, so both succeed wherever the plan itself is
    representable: here at every e in -300..300 (gamma 4, whose R leaves
    the float range beyond about 77 decades), with the asymptotics grid
    scaled along."""
    rng = np.random.default_rng(1)
    market = gi.random_idiosyncratic_market(rng, deterministic_rate=True)
    tree = market.tree
    agent = AgentSpec(4.0, 0.02, static_habit_matrix(0.2, tree.horizon),
                      AdaptedProcess(tree, tree.horizon, rng.uniform(1.0, 2.0, tree.n_nodes)))
    path = str(tmp_path / "in.json")
    rates = []
    for e in SCALE_EXPONENTS:
        with open(path, "w") as fh:
            json.dump(_scaled_document(market, agent, 10.0 ** e), fh)
        code, out, err = _run_in_process(["bounds", "--input", path], capsys)
        assert code == 0 and not err, (e, err)
        assert json.loads(out)["min_slack"] >= -1e-9 * 10.0 ** e
        grid = ",".join(repr(10.0 ** (e + j)) for j in range(1, 6))
        code, out, err = _run_in_process(["asymptotics", "--input", path, "--eps0-grid", grid],
                                         capsys)
        assert code == 0 and not err, (e, err)
        rates.append(json.loads(out.split("# summary: ")[1])["fitted_rate"])
    assert max(rates) - min(rates) < 1e-6


DIGEST = Path(__file__).resolve().parents[1] / "scripts" / "cli_digest.py"


@pytest.mark.parametrize("change,status", [
    ({}, 0),
    ({"solve a.json": {"sha256": "2", "stdout": {"iterations": 3, "c": [1.0, 2.0000001]}}}, 0),
    ({"solve a.json": {"sha256": "2", "stdout": {"iterations": 4, "c": [1.0, 2.0]}}}, 1),
    ({"solve a.json": {"sha256": "2", "exit": 2}}, 1),
    ({"verify": {"sha256": "3", "stdout": "all passed"}}, 1),
])
def test_cli_digest_compare_exit_status(tmp_path, change, status):
    # exit 1 on a run found on one side only, or a differing exit code or
    # non-numeric field; numeric differences alone exit 0
    old = {"solve a.json": {"exit": 0, "sha256": "1", "stderr": None,
                            "stdout": {"iterations": 3, "c": [1.0, 2.0]}}}
    new = {name: dict(old.get(name, {"exit": 0, "stderr": None}), **run)
           for name, run in change.items()}
    new = dict(old, **new)
    paths = []
    for name, values in (("old", old), ("new", new)):
        paths.append(tmp_path / f"{name}.values.json")
        paths[-1].write_text(json.dumps(values))
    proc = subprocess.run([sys.executable, str(DIGEST), "compare", *map(str, paths)],
                          capture_output=True, text=True)
    assert proc.returncode == status, proc.stdout + proc.stderr


def test_cli_digest_compare_reports_residuals_as_absolute(tmp_path):
    run = {"exit": 0, "stderr": None}
    old = {"equilibrium a.json": dict(run, sha256="1", stdout={
        "spd": [1.0, 0.5], "walras_history": [-5e-17, 1e-18],
        "residuals": {"foc": 1e-15, "h_inf": 2e-11}}),
        "verify": dict(run, sha256="3", stdout={"suites": [{"name": "walras", "worst": 5e-15}]})}
    new = {"equilibrium a.json": dict(run, sha256="2", stdout={
        "spd": [1.0, 0.5000000001], "walras_history": [7e-17, 1e-18],
        "residuals": {"foc": 1e-15, "h_inf": 3e-11}}),
        "verify": dict(run, sha256="4", stdout={"suites": [{"name": "walras", "worst": 6e-15}]})}
    paths = []
    for name, values in (("old", old), ("new", new)):
        paths.append(tmp_path / f"{name}.values.json")
        paths[-1].write_text(json.dumps(values))
    proc = subprocess.run([sys.executable, str(DIGEST), "compare", *map(str, paths)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].endswith("max diff: residuals 1.0e-11 abs, spd 1.0e-10, "
                             "walras_history 1.2e-16 abs"), lines[0]
    assert lines[1].endswith("max diff: suites 1.0e-15 abs"), lines[1]


# -- the encoder writes json.dumps(obj, sort_keys=True, indent=2) byte for byte ------


def _reference_bytes(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True, indent=2) + "\n").encode()


_strings = st.text(st.one_of(st.sampled_from('"\\/\n\r\t\x00\x1f\x7f{}[],: \u00e9\u2603\U0001f600'),
                             st.characters()), max_size=6)
_scalars = st.one_of(
    _strings, st.integers(), st.booleans(), st.none(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.5, 1e300, 5e-324]))
_json_values = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(_strings, inner, max_size=4),
        # lists of {key: scalar} records, written in one pass when none is empty
        st.lists(st.dictionaries(_strings, _scalars, max_size=3), max_size=4)),
    max_leaves=24)


@settings(max_examples=300, deadline=None)
@given(_json_values)
def test_to_json_bytes_matches_json_dumps(obj):
    assert hio.to_json_bytes(obj) == _reference_bytes(obj)


@pytest.mark.parametrize("obj", [
    {}, [], [{}], [{}, {"a": 1}], [{"a": 1}, {}], [{"a": 1}, [1], {"b": 2}],
    [{"a": "},\n    {"}, {"b": -0.0}], {"t": {"u": [1, [2, {"w": math.inf}]]}},
    {1: {"b": 2}, 2.5: [1], -3: []}, {None: [1]}, {False: {"a": {}}}, {math.inf: [2]},
    "\u2603", 10 ** 30, math.nan, np.float64(0.1), [np.float64(-0.0), {"x": np.float64(2.5)}],
], ids=repr)
def test_to_json_bytes_edge_cases(obj):
    assert hio.to_json_bytes(obj) == _reference_bytes(obj)


@pytest.mark.parametrize("obj", [
    {"a": [object()]}, {"a": {"b": np.int64(1)}}, {1: [], "a": []}, {(1, 2): [1]},
], ids=["object", "numpy-int", "mixed-keys", "tuple-key"])
def test_to_json_bytes_rejects_what_json_rejects(obj):
    with pytest.raises(TypeError):
        _reference_bytes(obj)
    with pytest.raises(TypeError):
        hio.to_json_bytes(obj)


def _one_agent_document():
    doc = _desk_document()
    doc["economy"]["agents"] = doc["economy"]["agents"][:1]
    return doc


@pytest.mark.parametrize("command,document,extra", [
    ("spd", None, []),
    ("solve", None, []),
    ("bounds", None, []),
    ("asymptotics", None, ["--eps0-grid", "1e1,1e2,1e3,1e4"]),
    ("equilibrium", _one_agent_document, []),
    ("equilibrium", _desk_document, []),
    ("verify", lambda: {"suites": {"tree-tower": 2, "walras": 1}}, []),
], ids=["spd", "solve", "bounds", "asymptotics", "equilibrium-1", "equilibrium-N", "verify"])
def test_cli_outputs_encode_as_json_dumps(tmp_path, market_agent_input, monkeypatch,
                                          command, document, extra):
    encoded = []
    real = hio.to_json_bytes

    def checked(obj):
        encoded.append(obj)
        out = real(obj)
        assert out == _reference_bytes(obj)
        return out

    monkeypatch.setattr(hio, "to_json_bytes", checked)
    path = market_agent_input if document is None else write_json(tmp_path, "in.json", document())
    assert main([command, "--input", path, "--output", str(tmp_path / "out")] + extra) == 0
    assert len(encoded) == 1


def test_parser_is_built_once_and_parses_as_a_fresh_one():
    assert build_parser() is build_parser()
    argvs = [["bond-curve", "--beta-grid", "0:1:0.5", "--maturity", "3"], ["bond-curve"],
             ["asymptotics", "--eps0-grid", "1,2", "--tol", "1e-8"], ["verify", "--seed", "5"],
             ["solve", "--input", "x.json", "--output", "y.json"], ["asymptotics"]]
    for argv in argvs + argvs[::-1]:
        assert vars(build_parser().parse_args(argv)) == \
            vars(build_parser.__wrapped__().parse_args(argv))
