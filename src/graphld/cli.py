"""Command-line front door for sampling, empirical measures, rates, and Gibbs runs.

Every run is fully determined by its flags and seed: outputs are written with
sorted keys and fixed separators, and each output file embeds the library
version plus a hash of the echoed configuration, so identical invocations
produce byte-identical artifacts.  Structured data is JSON; tabular reports
are CSV.  The process exits 0 only when every requested check passes.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
from typing import List, Optional, Tuple

from . import __version__
from .measures import (
    DegreeLaw,
    DepthChain,
    TreeMeasure,
    _fsum_by,
    is_admissible,
    mtp_check,
    pair_measure,
    size_bias,
    tv_distance,
)
from .trees import _number_list, _of_type, branch_views

DEFAULT_TOL = 1e-9


# ---------------------------------------------------------------- serialization


def _config_hash(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _config(args, *names: str, **parsed) -> dict:
    """The echoed configuration: the subcommand, the named flags as given, and
    the parsed form of the others."""
    return {"subcommand": args.subcommand, **{k: getattr(args, k) for k in names}, **parsed}


# Rows per piece of an array that `_write_json` streams: only this many rows
# of a graph are held as Python lists and JSON text at a time.  The reader
# takes a graph file's rows in pieces of at most 16 * JSON_CHUNK_ROWS bytes.
JSON_CHUNK_ROWS = 1024
# The stand-in of a streamed array in the dumped payload; a command-line
# argument cannot hold a NUL, so no echoed flag spells it.
_ARRAY = "\0array\0"


def _write_json(path: str, payload: dict, config: dict) -> None:
    """Write ``payload`` and the run's metadata as one line of JSON with
    sorted keys and compact separators.  A numpy array in the payload is
    written as its ``tolist()`` would be, with the same bytes, a chunk of
    ``JSON_CHUNK_ROWS`` rows at a time."""
    meta = {"config": config, "config_hash": _config_hash(config), "version": __version__}
    arrays = []

    def stand_in(value):
        np = sys.modules.get("numpy")  # no array exists unless numpy is loaded
        if np is None or not isinstance(value, np.ndarray):
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
        arrays.append(value)
        return _ARRAY

    blob = json.dumps({**payload, **meta}, sort_keys=True, separators=(",", ":"),
                      default=stand_in)
    pieces = blob.split(json.dumps(_ARRAY))
    with open(path, "w") as f:
        for piece, a in zip(pieces, arrays):
            f.write(piece + "[")
            for i in range(0, len(a), JSON_CHUNK_ROWS):
                rows = json.dumps(a[i:i + JSON_CHUNK_ROWS].tolist(), separators=(",", ":"))
                f.write(("," if i else "") + rows[1:-1])
            f.write("]")
        f.write(pieces[-1] + "\n")


def _write_csv(path: str, rows: List[List], config: dict) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(["#config_hash", _config_hash(config)])
        w.writerow(["#version", __version__])
        for row in rows:
            w.writerow(row)


def _measure_csv_rows(m: TreeMeasure) -> List[List]:
    rows: List[List] = [["encoding", "weight"]]
    for t, w in m.items():
        rows.append([t.encoding.hex(), repr(w)])
    rows.append(["__non_tree_mass__", repr(m.non_tree_mass)])
    return rows


def _load_value(text: str):
    """A flag value: path to a JSON file, or an inline JSON literal."""
    if os.path.exists(text):
        with open(text) as f:
            return json.load(f)
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        raise ValueError(f"cannot parse {text!r}: not a file or JSON literal") from None


# A flag value of the wrong JSON type, or a weight that is JSON `true` or a
# string, raises ValueError naming the flag, such as `--nu[0]`; --alpha is
# read by `DegreeLaw.from_obj`, which also refuses non-canonical degree keys.
def _parse_vector(text: str, flag: str) -> Tuple[float, ...]:
    return tuple(_number_list(_load_value(text), flag))


def _parse_matrix(text: str, flag: str) -> Tuple[Tuple[float, ...], ...]:
    rows = _of_type(_load_value(text), list, flag)
    return tuple(tuple(_number_list(row, f"{flag}[{i}]")) for i, row in enumerate(rows))


def _load_levels(value) -> List[TreeMeasure]:
    """The levels of a chain file, or a single measure of depth h completed
    by its truncations to depths 1..h-1."""
    from .rates import _completed

    obj = _load_value(value)
    if isinstance(obj, dict) and "levels" in obj:
        levels = _of_type(obj["levels"], list, "levels")
        return [TreeMeasure.from_obj(o, "levels[{}].", h) for h, o in enumerate(levels)]
    if isinstance(obj, dict) and "measure" in obj:
        obj = obj["measure"]
    return _completed(TreeMeasure.from_obj(obj))


def _structured_error(message: str, kind: str) -> int:
    print(json.dumps({"error": {"type": kind, "message": message}},
                     sort_keys=True))
    return 2


# ---------------------------------------------------------------- subcommands


# Each command imports the modules it runs, so that a process loads only those.


def cmd_sample(args) -> int:
    from .samplers import (ModelConfig, SamplerGaveUp, assign_marks, make_rng, sample_cm,
                           sample_er, sample_fe)

    nu = _parse_vector(args.nu, "--nu")
    xi = _parse_matrix(args.xi, "--xi")
    alpha = DegreeLaw.from_obj(_load_value(args.alpha), "--alpha") if args.alpha else None
    ens = args.ensemble.upper()
    config = _config(
        args, "n", "kappa", "m", "seed", ensemble=ens, nu=list(nu), xi=[list(r) for r in xi],
        alpha=None if alpha is None else alpha.to_obj(),
    )
    if ens == "CM" and alpha is None:
        return _structured_error("CM sampling needs --alpha", "bad_config")
    if ens == "FE" and args.m is None and args.kappa is None:
        return _structured_error("FE sampling needs --m or --kappa", "bad_config")
    if ens == "ER" and args.kappa is None:
        return _structured_error("ER sampling needs --kappa", "bad_config")
    cfg = ModelConfig(ensemble=ens, nu=nu, xi=xi, kappa=args.kappa, alpha=alpha, m_n=args.m)
    rng = make_rng(args.seed)
    if ens == "CM":
        try:
            g = sample_cm(args.n, cfg, rng)
        except SamplerGaveUp as e:
            return _structured_error(str(e), "sampler_gave_up")
    elif ens == "FE":
        g = sample_fe(args.n, cfg.edge_count(args.n), rng)
    else:
        g = sample_er(args.n, cfg.kappa, rng)
    g = assign_marks(g, nu, xi, rng)
    graph = g._file_fields()
    _write_json(args.out, {"graph": graph, "n": g.n}, config)
    print(f"wrote {args.out} ({g.n} vertices, {len(graph['edges'])} edges)")
    return 0


def _piece_rows(piece, width: int):
    """The rows in ``piece``, a uint8 array of JSON text, as an int64 array
    of shape (k, 2) for width 2 and (k,) for width 0; None unless the text
    spells them as the writer does (``[0,12],[3,4]``, ``0,12``: integers of
    at most 18 digits, no sign and no leading zero)."""
    import numpy as np

    digit = piece - ord("0") < 10  # the uint8 difference wraps below "0"
    first, last = digit.copy(), digit.copy()
    first[1:] &= ~digit[:-1]
    last[:-1] &= ~digit[1:]
    start = np.flatnonzero(first)
    size = np.flatnonzero(last) + 1 - start
    # the text with each number cut to one "0"
    form = np.where(digit, ord("0"), piece)[first | ~digit].tobytes()
    row = b"[0,0]," if width else b"0,"
    if form != (row * ((len(form) + 1) // len(row)))[:-1] or size.max() > 18 \
            or ((piece[start] == ord("0")) & (size > 1)).any():
        return None
    at = np.flatnonzero(digit)
    values = np.add.reduceat((piece[at] - ord("0")) * 10 ** (np.repeat(start + size, size) - 1 - at),
                             np.cumsum(size) - size)
    return values.reshape(-1, 2) if width else values


def _field_rows(text: bytes, a: int, width: int):
    """(rows, end): the rows of the array that opens at ``text[a]`` and
    closes at ``text[end]``, read by ``_piece_rows`` a piece of at most
    ``16 * JSON_CHUNK_ROWS`` bytes at a time, cut after a row; None if the
    array is not in the writer's form."""
    import numpy as np

    if text.startswith(b"]", a + 1):
        return np.empty((0, 2) if width else 0, np.int64), a + 1
    end = text.find(b"]]" if width else b"]", a) + width // 2
    buf, sep, pieces = np.frombuffer(text, np.uint8), b"]," if width else b",", []
    a += 1
    while end > a:
        cut = end if end - a <= 16 * JSON_CHUNK_ROWS else \
            text.rfind(sep, a, a + 16 * JSON_CHUNK_ROWS) + len(sep) - 1
        rows = _piece_rows(buf[a:cut], width) if cut > a else None
        if rows is None:
            return None
        pieces.append(rows)
        if cut == end:
            return np.concatenate(pieces), end
        a = cut + 1
    return None


def _read_graph_file(path: str):
    """The MarkedGraph arguments of a graph file in the layout of
    ``_write_json``, its row fields read by ``_field_rows`` and the rest of
    the text by ``json``; None for any other file."""
    with open(path, "rb") as f:
        text = f.read()
    rows, cuts = [], [0]
    for key, width in ((b'"graph":{"edges":[', 2), (b',"emarks":[', 2), (b',"vmarks":[', 0)):
        a = text.find(key, cuts[-1])
        if a < 0:
            break
        got = _field_rows(text, a + len(key) - 1, width)
        if got is None:
            return None
        rows.append(got[0])
        cuts += [a + len(key) - 1, got[1] + 1]
    if len(rows) not in (1, 3):
        return None
    # the text with each row field replaced by a NaN: the writer's layout,
    # with no other NaN, and the NaNs as the graph's row fields
    nan, found = float("nan"), []
    skeleton = b"NaN".join(text[a:b] for a, b in zip(cuts[::2], [*cuts[1::2], len(text)]))
    try:
        obj = json.loads(skeleton, parse_constant=lambda c: found.append(c) or nan)
    except (ValueError, RecursionError):
        return None
    graph = obj.get("graph") if isinstance(obj, dict) else None
    names = ("edges", "emarks", "vmarks")[:len(rows)]
    if len(found) != len(rows) or not isinstance(graph, dict) \
            or set(graph) != {"n", *names} or any(graph[k] is not nan for k in names) \
            or (json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n").encode() != skeleton:
        return None
    edges, emarks, vmarks = rows if rows[1:] else (*rows, None, None)
    return graph["n"], edges, vmarks, emarks


def _load_graph(path: str):
    """The graph of a ``--graph`` value: a graph file, read by
    ``_read_graph_file`` if it is in the writer's layout, else, like any
    other file or inline JSON, by ``json`` and ``MarkedGraph.from_obj``."""
    from .samplers import MarkedGraph

    args = _read_graph_file(path) if os.path.isfile(path) else None
    if args is not None:
        return MarkedGraph(*args)
    obj = _load_value(path)
    if isinstance(obj, dict) and "graph" in obj:
        obj = obj["graph"]
    return MarkedGraph.from_obj(obj)


def cmd_empirical(args) -> int:
    from .empirical import component_measure, neighborhood_measure

    if args.depth < 0:
        raise ValueError(f"--depth {args.depth} is negative")
    config = _config(args, "graph", "depth", "out_prefix")
    g = _load_graph(args.graph)
    if g.n == 0:
        raise ValueError("the graph has no vertices, so it has no empirical measures")
    measures = [(f"U{h}", component_measure(g, h)) if h else ("L", neighborhood_measure(g))
                for h in range(args.depth + 1)]
    del g  # the graph's views are freed before the writer's strings are made
    outputs = []
    for name, m in measures:
        path = f"{args.out_prefix}_{name}"
        _write_json(f"{path}.json", {"measure": m.to_obj()}, config)
        _write_csv(f"{path}.csv", _measure_csv_rows(m), config)
        outputs.append(f"{path}.json")
    print("wrote " + ", ".join(outputs))
    return 0


def _forms() -> dict:
    """The three rate forms, by name."""
    from .rates import combinatorial_rate, component_rate, intermediate_rate

    return {"component": component_rate, "intermediate": intermediate_rate,
            "combinatorial": combinatorial_rate}


def _spread(vals: List[float]) -> float:
    """max - min of finite values; else 0.0 if all are equal, inf otherwise."""
    if all(math.isfinite(v) for v in vals):
        return max(vals) - min(vals)
    return 0.0 if len(set(vals)) == 1 else math.inf


def cmd_rate(args) -> int:
    from .rates import ReferenceLaw

    config = _config(args, "ensemble", "depth", "input", "law", "kappa", "form")
    levels = _load_levels(args.input)
    law = ReferenceLaw.from_obj(_load_value(args.law))
    beta = levels[0].mean_degree()  # a ValueError where level 1 has non-tree mass
    ensemble = args.ensemble.upper() if args.ensemble else None
    forms = _forms()
    wanted = list(forms) if args.form == "all" else [args.form]
    reports = {}
    try:
        for name in wanted:
            reports[name] = forms[name](
                levels, beta, law, ensemble=ensemble, kappa=args.kappa,
                depth=args.depth,
            )
    except ValueError as e:
        return _structured_error(str(e), "rate_error")
    payload = {"reports": {k: r.to_obj() for k, r in reports.items()}}
    if len(reports) > 1:
        payload["agreement"] = {
            "max_spread": _spread([r.value for r in reports.values()]),
            "values": {k: r.value for k, r in reports.items()},
        }
    _write_json(args.report, payload, config)
    for k, r in reports.items():
        print(f"{k}: value={r.value!r}")
    print(f"wrote {args.report}")
    return 0


def _pair_from_size_bias(level: TreeMeasure, h: int):
    """Pair law reassembled from the size-biased law with a uniform child cut."""
    return _fsum_by((key, w / t.root_degree)
                    for t, w in size_bias(level).items() for key in branch_views(t, h - 1))


def cmd_verify(args) -> int:
    from .rates import ReferenceLaw

    config = _config(args, "input", "law", "ensemble", "depth", "kappa", "tol")
    tol = args.tol
    if not tol >= 0:
        raise ValueError(f"--tol {tol!r} is not a nonnegative number")
    levels = _load_levels(args.input)
    depth = args.depth if args.depth is not None else len(levels)
    rows: List[dict] = []

    def add(check: str, detail: str, residual: float, row_tol: float) -> None:
        rows.append({
            "check": check,
            "detail": detail,
            "residual": residual,
            "tol": row_tol,
            "status": "PASS" if residual <= row_tol else "FAIL",
        })

    for h, level in enumerate(levels, start=1):
        mass = math.fsum(level.atoms.values()) + level.non_tree_mass
        add("normalization", f"level {h}", abs(mass - 1.0), tol)
        add("tree_support", f"level {h}", level.non_tree_mass, tol)
    chain = DepthChain(levels)
    if len(levels) >= 2:
        add("chain_consistency", f"levels 1..{len(levels)}",
            chain.truncation_defect(), tol)
    for h, level in enumerate(levels, start=1):
        if level.non_tree_mass > tol or level.mean_degree() <= 0:
            continue
        pm = pair_measure(level, h)
        _, defect = is_admissible(pm)
        add("admissibility", f"level {h}", defect, tol)
        add("pair_size_bias", f"level {h}", tv_distance(pm, _pair_from_size_bias(level, h)), tol)
    deepest = levels[-1]
    try:
        add("mass_transport", f"level {len(levels)}",
            mtp_check(deepest, len(levels)), tol)
    except ValueError as e:
        add("mass_transport", str(e), math.inf, tol)
    if args.law:
        law = ReferenceLaw.from_obj(_load_value(args.law))
        ensemble = args.ensemble.upper() if args.ensemble else None
        try:
            beta = levels[0].mean_degree()  # a ValueError where level 1 has non-tree mass
            vals = [form(chain, beta, law, ensemble=ensemble, kappa=args.kappa,
                         depth=depth).value for form in _forms().values()]
            add("three_form_agreement", f"depth {depth}", _spread(vals),
                max(tol, 1e-8))
        except ValueError as e:
            add("three_form_agreement", str(e), math.inf, max(tol, 1e-8))
    all_pass = all(r["status"] == "PASS" for r in rows)
    payload = {"rows": rows, "all_pass": all_pass}
    if args.report:
        _write_json(args.report, payload, config)
        _write_csv(
            os.path.splitext(args.report)[0] + ".csv",
            [["check", "detail", "residual", "tol", "status"]]
            + [[r["check"], r["detail"], repr(r["residual"]), repr(r["tol"]),
                r["status"]] for r in rows],
            config,
        )
    for r in rows:
        print(f"{r['status']} {r['check']} [{r['detail']}] "
              f"residual={r['residual']:.3e}")
    print("ALL PASS" if all_pass else "FAILURES PRESENT")
    return 0 if all_pass else 1


def cmd_gibbs(args) -> int:
    from .gibbs import GibbsProblem, _check_mc_size, conditional_mc, solve

    alpha = DegreeLaw.from_obj(_load_value(args.alpha), "--alpha")
    nu = _parse_vector(args.nu, "--nu")
    hfun = _parse_vector(args.hfun, "--hfun")
    config = _config(args, "c", "delta", "n", "samples", "seed", nu=list(nu),
                     hfun=list(hfun), alpha=alpha.to_obj())
    if args.samples < 0:
        raise ValueError(f"--samples {args.samples} is negative")
    try:
        problem = GibbsProblem(alpha, nu, hfun, args.c, args.delta)
    except ValueError as e:
        return _structured_error(str(e), "hypothesis_violation")
    if args.samples > 0:
        # before the solution is written, so that a failing run writes nothing
        try:
            _check_mc_size(args.n, args.samples)
        except ValueError as e:
            return _structured_error(str(e), "mc_error")
    try:
        solution = solve(problem)
        sol_obj = solution.to_obj()
    except ValueError as e:
        return _structured_error(str(e), "hypothesis_violation")
    sol_path = f"{args.out_prefix}_solution.json"
    _write_json(sol_path, {"solution": sol_obj}, config)
    print(f"lambda={solution.lam!r} value={solution.value!r}")
    print(f"wrote {sol_path}")
    if args.samples == 0:
        print("mc skipped (samples=0)")
        return 0
    from .samplers import make_rng

    try:
        rep = conditional_mc(
            problem, args.n, args.samples, make_rng(args.seed),
            solution=solution,
        )
    except (ValueError, RuntimeError) as e:
        return _structured_error(str(e), "mc_error")
    mc_path = f"{args.out_prefix}_mc.csv"
    # the scalar fields in their order, then the "joint:d,x" and "leaf:x" cells
    rows: List[List] = [["key", "value"]]
    cells: List[List] = []
    for key, value in rep.to_obj().items():
        if isinstance(value, dict):
            cells += [[f"{key.removesuffix('_emp')}:{k}", repr(w)] for k, w in value.items()]
        else:
            rows.append([key, repr(value)])
    rows += cells
    _write_csv(mc_path, rows, config)
    print(f"accepted={rep.accepted} acceptance_rate={rep.acceptance_rate!r} "
          f"joint_tv={rep.joint_tv!r}")
    print(f"wrote {mc_path}")
    return 0


def cmd_extend(args) -> int:
    from .rates import extension_chain

    config = _config(args, "input", "depth", "samples", "seed")
    levels = _load_levels(args.input)
    rho = levels[-1]
    h = rho.depth_bound
    if not 0 <= args.samples < 2**63:
        raise ValueError(f"--samples {args.samples} is not in [0, 2**63 - 1]")
    if args.depth < max(h, 1):
        raise ValueError(f"--depth {args.depth} is below 1 or the input's depth {h}")
    if args.samples > 0:
        from .samplers import _extension_table, make_rng

        atoms, p, _ = _extension_table(rho, h, args.depth)
        counts = make_rng(args.seed).multinomial(args.samples, p)
        out = TreeMeasure.from_counts({atoms[i]: int(counts[i]) for i in counts.nonzero()[0]},
                                      depth_bound=args.depth)
        payload = {"measure": out.to_obj(), "mode": "sampled"}
    else:
        chain = extension_chain(levels, args.depth)
        payload = {
            "levels": [chain.level(i).to_obj() for i in range(1, len(chain) + 1)],
            "mode": "exact",
        }
    _write_json(args.out, payload, config)
    print(f"wrote {args.out}")
    return 0


# ---------------------------------------------------------------- entry point


class _Parser(argparse.ArgumentParser):
    """Raises usage errors, so that ``main`` reports them as ``bad_input``."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="graphld",
        description="Marked sparse random graphs: sampling, local empirical "
                    "measures, large-deviation rates, Gibbs conditioning.",
    )
    sub = p.add_subparsers(dest="subcommand", required=True)

    s = sub.add_parser("sample", help="sample a marked graph")
    s.add_argument("--ensemble", required=True, choices=["cm", "fe", "er"])
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--nu", default="[1.0]", help="vertex mark law (JSON or file)")
    s.add_argument("--xi", default="[[1.0]]", help="edge mark pair law")
    s.add_argument("--alpha", help="degree law for cm (JSON object or file)")
    s.add_argument("--kappa", type=float, help="mean degree for er/fe")
    s.add_argument("--m", type=int, help="edge count for fe")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_sample)

    s = sub.add_parser("empirical", help="neighborhood + component measures")
    s.add_argument("--graph", required=True)
    s.add_argument("--depth", type=int, default=1)
    s.add_argument("--out-prefix", required=True)
    s.set_defaults(func=cmd_empirical)

    s = sub.add_parser("rate", help="evaluate the rate representations")
    s.add_argument("--ensemble", choices=["cm", "fe", "er"])
    s.add_argument("--depth", type=int)
    s.add_argument("--input", required=True, help="measure or level list JSON")
    s.add_argument("--law", required=True, help="reference law JSON")
    s.add_argument("--kappa", type=float)
    s.add_argument("--form", default="all",
                   choices=["all", "component", "intermediate", "combinatorial"])
    s.add_argument("--report", required=True)
    s.set_defaults(func=cmd_rate)

    s = sub.add_parser("verify", help="normalization/admissibility/MTP/rate checks")
    s.add_argument("--input", required=True)
    s.add_argument("--law")
    s.add_argument("--ensemble", choices=["cm", "fe", "er"])
    s.add_argument("--depth", type=int)
    s.add_argument("--kappa", type=float)
    s.add_argument("--tol", type=float, default=DEFAULT_TOL)
    s.add_argument("--report")
    s.set_defaults(func=cmd_verify)

    s = sub.add_parser("gibbs", help="solve the conditioning problem + MC check")
    s.add_argument("--alpha", required=True)
    s.add_argument("--nu", required=True)
    s.add_argument("--hfun", required=True)
    s.add_argument("--c", type=float, required=True)
    s.add_argument("--delta", type=float, default=0.05)
    s.add_argument("--n", type=int, default=40)
    s.add_argument("--samples", type=int, default=0)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out-prefix", default="gibbs")
    s.set_defaults(func=cmd_gibbs)

    s = sub.add_parser("extend", help="deeper laws from a depth-h law")
    s.add_argument("--input", required=True)
    s.add_argument("--depth", type=int, required=True)
    s.add_argument("--samples", type=int, default=0,
                   help="0: exact extension chain; >0: tree samples")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_extend)
    return p


def main(argv: Optional[List[str]] = None) -> int:
    """Run one subcommand; malformed input of any kind, usage errors included,
    and a graph too large for memory end in a structured ``bad_input`` error
    with exit code 2 instead of a traceback."""
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ValueError, RuntimeError, LookupError, TypeError, OSError, ArithmeticError,
            MemoryError) as e:
        return _structured_error(f"{type(e).__name__}: {e}", "bad_input")


if __name__ == "__main__":
    sys.exit(main())
