"""JSON wire formats.

Tree:    {"horizon": T, "nodes": [{"id": str, "parent": str|null, "prob": f}]}
Market:  tree fields plus "assets": [{"name", "prices": {id: f},
         "dividends": {id: f}}], "interest": {id: f}, and optionally
         "idio_factor": {depth(str): [[ids], ...]}.  The intermediate
         partitions H_k follow from the payoff spans and are not read.
Agent:   {"gamma": f, "rho": f, "beta": f | "beta_matrix": [[...], ...],
         "endowment": {id: f}}.
Economy: {"tree": {...}, "beta": f, "agents": [{"gamma", "rho", "endowment"}]}.
IID:     {"support": [{"x": f, "p": f}, ...], "gamma", "rho", "beta", "horizon"}.

All loaders raise SchemaError naming the offending field.  Integer fields
("horizon") reject JSON booleans.  Dumps are byte-deterministic: the bytes of
``json.dumps(obj, sort_keys=True, indent=2) + "\\n"``, that is sorted keys, a
two-space indent, floats as Python's shortest round-trip ``repr``, the
literals ``NaN``/``Infinity``/``-Infinity``, and ``\\uXXXX`` escapes for every
non-ASCII character.
"""

from __future__ import annotations

import functools
import math
from itertools import chain
from json.encoder import JSONEncoder, c_make_encoder, encode_basestring_ascii
from typing import Optional

import numpy as np

from .equilibrium import EconomyAgent, EconomySpec, EquilibriumResult, IIDEconomy
from .errors import SchemaError
from .market import Asset, MarketSpec
from .optimizer import AgentSpec
from .tree import AdaptedProcess, EventTree, Partition


def _finite(val, field: str, what: str = "expected a finite number") -> float:
    """val as a float; SchemaError(field, what) unless it is a finite JSON
    number (NaN and Infinity parse, but no model quantity takes them)."""
    if isinstance(val, (int, float)) and not isinstance(val, bool):
        try:
            if math.isfinite(val):
                return float(val)
        except OverflowError:          # an integer beyond the float range
            pass
    raise SchemaError(field, what)


def _need(obj: dict, field: str, kind, where: str):
    if not isinstance(obj, dict) or field not in obj:
        raise SchemaError(f"{where}.{field}" if where else field, "missing")
    val = obj[field]
    if kind is float:
        return _finite(val, f"{where}.{field}" if where else field)
    # bool is an int subclass; an integer field takes a plain integer
    if not isinstance(val, kind) or (kind is int and isinstance(val, bool)):
        raise SchemaError(f"{where}.{field}" if where else field,
                          f"expected {kind.__name__}")
    return val


def _finite_array(values) -> Optional[np.ndarray]:
    """values as a float array when every one is a plain float or int (no
    bool) that is finite as a float; None otherwise."""
    if set(map(type, values)) <= {float, int}:
        try:
            arr = np.fromiter(values, float, len(values))
        except OverflowError:          # an integer beyond the float range
            return None
        if np.all(np.isfinite(arr)):
            return arr
    return None


def load_tree(obj: dict) -> EventTree:
    horizon = _need(obj, "horizon", int, "")
    nodes = _need(obj, "nodes", list, "")
    try:
        triples = [(n["id"], n.get("parent"), n["prob"]) for n in nodes]
    except (TypeError, KeyError, AttributeError):   # not an object, or a field missing
        triples = None
    if triples:
        ids, parents, probs = zip(*triples)
        if (set(map(type, ids)) == {str} and set(map(type, parents)) <= {str, type(None)}
                and _finite_array(probs) is not None):
            return EventTree.from_edges(triples, horizon)
    # the field-by-field walk names the first malformed node
    triples = []
    for i, n in enumerate(nodes):
        where = f"nodes[{i}]"
        nid = _need(n, "id", str, where)
        parent = n.get("parent")
        if parent is not None and not isinstance(parent, str):
            raise SchemaError(f"{where}.parent", "expected node id or null")
        prob = _need(n, "prob", float, where)
        triples.append((nid, parent, prob))
    return EventTree.from_edges(triples, horizon)


def dump_tree(tree: EventTree) -> dict:
    # the root is node 0 and the only node without a parent
    parents = [None] + [tree.ids[p] for p in tree.parent[1:].tolist()]
    nodes = [{"id": nid, "parent": p, "prob": q}
             for nid, p, q in zip(tree.ids, parents, tree.trans_prob.tolist())]
    return {"horizon": tree.horizon, "nodes": nodes}


def _node_map_to_process(tree: EventTree, mapping: dict, field: str,
                         depths, default: Optional[float] = None) -> AdaptedProcess:
    vals = np.zeros(tree.n_nodes)
    seen = np.zeros(tree.n_nodes, dtype=bool)
    idx = list(map(tree._index.get, mapping))
    known = None if None in idx else _finite_array(mapping.values())
    if known is not None:
        vals[idx] = known
        seen[idx] = True
    else:
        # entry by entry: the first unknown id or non-number in input order
        # is named, else the first non-finite value in node order
        for nid, v in mapping.items():
            i = tree._index.get(nid)
            if i is None:
                raise SchemaError(field, f"unknown node id {nid!r}")
            if not isinstance(v, (int, float)) or isinstance(v, bool):
                raise SchemaError(field, f"value at {nid!r} must be a finite number")
            try:
                vals[i] = v
            except OverflowError:      # an integer beyond the float range
                vals[i] = math.inf
            seen[i] = True
        bad = np.flatnonzero(~np.isfinite(vals))
        if len(bad):
            raise SchemaError(field, f"value at {tree.ids[int(bad[0])]!r} must be a finite number")
    # nodes left out: an error or the default at the given depths, 0 elsewhere
    missing = np.flatnonzero(~seen & np.isin(tree.depth, list(depths)))
    if len(missing):
        if default is None:
            raise SchemaError(field, f"missing value at node {tree.ids[int(missing[0])]!r}")
        vals[missing] = default
    return AdaptedProcess(tree, tree.horizon, vals)


def _load_partitions(obj, tree: EventTree, field: str):
    if field not in obj or obj[field] is None:
        return None
    spec = _need(obj, field, dict, "")
    parts = []
    for k in range(1, tree.horizon + 1):
        key = str(k)
        if key not in spec:
            raise SchemaError(f"{field}.{key}", "missing depth")
        parts.append(Partition.from_node_ids(tree, k, spec[key]))
    return tuple(parts)


def load_market(obj: dict) -> MarketSpec:
    tree = load_tree(obj)
    interest = _node_map_to_process(tree, _need(obj, "interest", dict, ""),
                                    "interest", set(range(1, tree.horizon + 1)))
    assets = []
    for i, a in enumerate(_need(obj, "assets", list, "")):
        name = _need(a, "name", str, f"assets[{i}]")
        prices = _node_map_to_process(tree, _need(a, "prices", dict, f"assets[{i}]"),
                                      f"assets[{i}].prices", set(range(tree.horizon + 1)))
        dividends = _node_map_to_process(tree, a.get("dividends", {}),
                                         f"assets[{i}].dividends",
                                         set(range(1, tree.horizon + 1)), default=0.0)
        assets.append(Asset(name, prices, dividends))
    return MarketSpec(tree, tuple(assets), interest,
                      idio=_load_partitions(obj, tree, "idio_factor"))


def dump_market(market: MarketSpec) -> dict:
    tree = market.tree
    out = dump_tree(market.tree)
    # depths 1..T are the nodes after the root
    out["interest"] = _process_map(tree, market.interest.values, 1)
    out["assets"] = [{
        "name": a.name,
        "prices": _process_map(tree, a.prices.values),
        "dividends": _process_map(tree, a.dividends.values, 1),
    } for a in market.assets]
    if market.idio is not None:
        out["idio_factor"] = {str(part.depth): [[tree.ids[i] for i in b] for b in part.blocks]
                              for part in market.idio}
    return out


def load_agent(obj: dict, tree: EventTree) -> AgentSpec:
    gamma = _need(obj, "gamma", float, "agent")
    rho = _need(obj, "rho", float, "agent")
    endowment = _node_map_to_process(tree, _need(obj, "endowment", dict, "agent"),
                                     "agent.endowment", set(range(tree.horizon + 1)),
                                     default=0.0)
    T = tree.horizon
    if "beta_matrix" in obj:
        rows = _need(obj, "beta_matrix", list, "agent")
        if len(rows) != T + 1:
            raise SchemaError("agent.beta_matrix", f"need {T + 1} rows")
        mat = np.zeros((T + 1, T + 1))
        for k, row in enumerate(rows):
            # ragged form: row k lists beta^(k)_0..beta^(k)_{k-1}; square form allowed
            if not isinstance(row, list) or len(row) not in (k, T + 1):
                raise SchemaError("agent.beta_matrix",
                                  f"row {k} must have {k} entries (or {T + 1} in square form)")
            for l, v in enumerate(row):
                mat[k, l] = _finite(v, "agent.beta_matrix",
                                    f"row {k} entry {l} must be a finite number")
        habits = mat
    elif "beta" in obj:
        habits = float(_need(obj, "beta", float, "agent"))
    else:
        raise SchemaError("agent.beta", "need 'beta' or 'beta_matrix'")
    return AgentSpec(gamma, rho, habits, endowment)


def load_economy(obj: dict) -> EconomySpec:
    tree = load_tree(_need(obj, "tree", dict, "economy"))
    beta = _need(obj, "beta", float, "economy")
    agents = []
    for i, a in enumerate(_need(obj, "agents", list, "economy")):
        gamma = _need(a, "gamma", float, f"economy.agents[{i}]")
        rho = _need(a, "rho", float, f"economy.agents[{i}]")
        endow = _node_map_to_process(tree, _need(a, "endowment", dict, f"economy.agents[{i}]"),
                                     f"economy.agents[{i}].endowment",
                                     set(range(tree.horizon + 1)), default=0.0)
        agents.append(EconomyAgent(gamma, rho, endow))
    return EconomySpec(tree, beta, tuple(agents))


def load_iid(obj: dict) -> IIDEconomy:
    support = []
    for i, s in enumerate(_need(obj, "support", list, "iid")):
        support.append((_need(s, "x", float, f"iid.support[{i}]"),
                        _need(s, "p", float, f"iid.support[{i}]")))
    return IIDEconomy(tuple(support),
                      _need(obj, "gamma", float, "iid"),
                      _need(obj, "rho", float, "iid"),
                      _finite(obj.get("beta", 0.0), "iid.beta"),
                      _need(obj, "horizon", int, "iid"))


def _process_map(tree: EventTree, values: np.ndarray, first: int = 0) -> dict:
    """{id: value} over the nodes from index `first` on."""
    return dict(zip(tree.ids[first:], values[first:].tolist()))


def dump_equilibrium(result: EquilibriumResult) -> dict:
    tree = result.M.tree
    return {
        "tree": dump_tree(tree),
        "spd": _process_map(tree, result.M.values),
        "perturbed_spd": _process_map(tree, result.Mtilde.values),
        "lambdas": [float(l) for l in result.lambdas],
        "consumptions": [_process_map(tree, c.values) for c in result.consumptions],
        "residuals": {k: float(v) for k, v in sorted(result.residuals.items())},
        "walras_history": [float(w) for w in result.walras_history],
        "iterations": result.iterations,
        "method": result.method,
    }


def load_equilibrium(obj: dict) -> EquilibriumResult:
    tree = load_tree(_need(obj, "tree", dict, "equilibrium"))
    full = set(range(tree.horizon + 1))

    def proc(field):
        return _node_map_to_process(tree, _need(obj, field, dict, "equilibrium"), field, full)

    return EquilibriumResult(
        M=proc("spd"),
        Mtilde=proc("perturbed_spd"),
        lambdas=tuple(float(l) for l in _need(obj, "lambdas", list, "equilibrium")),
        consumptions=tuple(
            _node_map_to_process(tree, c, f"consumptions[{i}]", full)
            for i, c in enumerate(_need(obj, "consumptions", list, "equilibrium"))),
        residuals={k: float(v) for k, v in _need(obj, "residuals", dict, "equilibrium").items()},
        walras_history=tuple(float(w) for w in obj.get("walras_history", [])),
        iterations=int(obj.get("iterations", 0)),
        method=str(obj.get("method", "")),
    )


def dump_solve_result(result, tree: EventTree) -> dict:
    return {
        "tree": dump_tree(tree),
        "consumption": _process_map(tree, result.c.values),
        "wealth": _process_map(tree, result.W.values),
        "supporting_spd": _process_map(tree, result.R.values),
        "utility": float(result.utility),
        "foc_residual": float(result.foc_residual),
        "iterations": result.iterations,
        "method": result.method,
    }


_SCALARS = frozenset((str, int, float, bool, type(None)))


@functools.cache
def _flat_encoder(level: int):
    """The C encoder for a container of scalars whose items sit at indent
    `level`: json's own separators for that level, with the newline after
    the opening and before the closing bracket left out."""
    return c_make_encoder(None, JSONEncoder().default, encode_basestring_ascii, None,
                          ": ", ",\n" + "  " * level, True, False, True)


def _flat(obj, level: int) -> str:
    return "".join(_flat_encoder(level)(obj, level))


def _key(key) -> str:
    """A dict key as json writes it: non-string keys as their JSON scalar."""
    if not isinstance(key, str):
        if not (key is None or isinstance(key, (int, float))):
            raise TypeError(f"keys must be str, int, float, bool or None, "
                            f"not {type(key).__name__}")
        key = _flat(key, 0)
    return encode_basestring_ascii(key)


def _encode(obj, level: int, out: list) -> None:
    """Append json.dumps(obj, sort_keys=True, indent=2) at indent `level`
    to out.  Containers of scalars only, and lists of non-empty such
    dicts, take one C-encoder pass; only the nesting above them is walked
    here."""
    if isinstance(obj, dict):
        values, brackets = obj.values(), "{}"
    elif isinstance(obj, (list, tuple)):
        values, brackets = obj, "[]"
    else:
        out.append(_flat(obj, 0))
        return
    if not obj:
        out.append(brackets)
        return
    inner, outer = "\n" + "  " * (level + 1), "\n" + "  " * level
    if set(map(type, values)) <= _SCALARS:
        text = _flat(obj, level + 1)
        out.append(brackets[0] + inner + text[1:-1] + outer + brackets[1])
        return
    if (brackets == "[]" and set(map(type, obj)) == {dict} and all(obj)
            and set(map(type, chain.from_iterable(map(dict.values, obj)))) <= _SCALARS):
        # one pass at the dicts' item indent gives "[{a,b},<deeper>{c}]";
        # a raw newline only ever sits in a separator and no scalar ends in
        # "}", so "},<deeper>{" is exactly the seam between two dicts
        deeper = inner + "  "
        body = _flat(obj, level + 2)[2:-2].replace(
            "}," + deeper + "{", inner + "}," + inner + "{" + deeper)
        out.append("[" + inner + "{" + deeper + body + inner + "}" + outer + "]")
        return
    entries = ([(_key(k) + ": ", v) for k, v in sorted(obj.items())] if brackets == "{}"
               else [("", v) for v in obj])
    sep = brackets[0] + inner
    for prefix, value in entries:
        out.append(sep + prefix)
        _encode(value, level + 1, out)
        sep = "," + inner
    out.append(outer + brackets[1])


def to_json_bytes(obj) -> bytes:
    """Canonical JSON encoding, newline-terminated: the bytes of
    ``json.dumps(obj, sort_keys=True, indent=2) + "\\n"``, written mostly by
    json's C encoder, which ``json.dumps`` with an ``indent`` bypasses."""
    out = []
    _encode(obj, 0, out)
    out.append("\n")
    return "".join(out).encode()


def fmt17(x: float) -> str:
    """17-significant-digit decimal formatting for CSV output."""
    return format(float(x), ".17g")
