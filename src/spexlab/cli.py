"""Command-line front end: constructions, checks, oracles, fits, claims.

Every subcommand prints one JSON report with a versioned schema and exits
0 on success, 1 when an assertion fails (the first failing assertion is
named on stderr), and 2 on bad usage or invalid arguments. Graphs travel
as graph6, on stdin/stdout or through flags; rationals are "p/q" strings.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import re
import sys
from fractions import Fraction

from . import __version__, verify as verify_mod
from .asymptotics import experiment
from .constructions import build_named, cx1_family, cx2_package
from .graph6 import Graph6Error, decode_graph6, encode_graph6
from .graphs import Graph, Partition, complete
from .oracle import RestrictedSpace, ex_oracle, restricted_ex, spex_oracle
from .patterns import ForbiddenFamily, chromatic_number, is_free
from .spectral import quotient_matrix, spectral_radius

_SCHEMA = 1
_CONFIG_KEYS = ("jobs",)

_CONSTRUCT_LABELS = {
    "f1": ("F1",),
    "cx1": ("G", "H"),
    "cx2": ("G", "H", "H_prime"),
    "star-path": ("G_star", "G_path"),
}


def _jsonable(obj):
    if isinstance(obj, Fraction):
        if obj.denominator == 1:
            return int(obj)
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(x) for x in obj]
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    if hasattr(obj, "as_dict"):
        return _jsonable(obj.as_dict())
    return str(obj)


def _drop_timings(obj):
    """Remove elapsed-seconds entries so reruns are byte-identical."""
    if isinstance(obj, dict):
        return {k: _drop_timings(v) for k, v in obj.items() if k != "elapsed"}
    if isinstance(obj, list):
        return [_drop_timings(x) for x in obj]
    return obj


def _emit(args, payload: dict) -> None:
    report = {"schema": _SCHEMA, "version": __version__}
    if args.no_timestamps:
        payload = _drop_timings(payload)
    else:
        report["timestamp"] = datetime.datetime.now(
            datetime.timezone.utc).isoformat(timespec="seconds")
    report.update(payload)
    json.dump(_jsonable(report), sys.stdout, indent=2)
    sys.stdout.write("\n")


def _read_config(path: str | None) -> dict:
    if not path:
        return {}
    conf = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            key, val = (part.strip() for part in line.split("=", 1))
            if key not in _CONFIG_KEYS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}; "
                                 f"accepted keys: {', '.join(_CONFIG_KEYS)}")
            conf[key] = val
    return conf


def _resolve_jobs(args, config: dict) -> int:
    """Flag, then config, then SPEXLAB_JOBS; at least 1, at most the CPUs."""
    if args.jobs is not None:
        jobs = args.jobs
    elif "jobs" in config:
        jobs = int(config["jobs"])
    else:
        jobs = int(os.environ.get("SPEXLAB_JOBS") or 1)
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    return min(jobs, os.cpu_count() or 1)


def _parse_params(text: str | None) -> dict:
    """Parse "r=3,k=6" into {"r": 3, "k": 6} (ints where possible)."""
    params: dict = {}
    if not text:
        return params
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise ValueError(f"bad parameter {chunk!r}, expected key=value")
        key, val = chunk.split("=", 1)
        key, val = key.strip(), val.strip()
        try:
            params[key] = int(val)
        except ValueError:
            try:
                params[key] = float(val)
            except ValueError:
                params[key] = val
    return params


def _read_graph(args) -> Graph:
    if getattr(args, "graph6", None):
        return decode_graph6(args.graph6)
    for line in sys.stdin:
        line = line.strip()
        if line:
            return decode_graph6(line)
    raise ValueError("no graph6 input on stdin and no --graph6 flag")


def _parse_partition(text: str, n: int) -> Partition:
    """Parse "0 1 2; 3 4" (or commas) into a Partition of n vertices."""
    classes = []
    for part in text.split(";"):
        verts = [int(tok) for tok in re.split(r"[,\s]+", part.strip()) if tok]
        if verts:
            classes.append(tuple(verts))
    part = Partition(classes)
    if part.n != n:
        raise ValueError(f"partition covers {part.n} vertices, graph has {n}")
    return part


def _load_family(spec: str, params: dict) -> ForbiddenFamily:
    """A family from a graph6-lines file or a named built-in.

    Built-ins: K<r> (single clique), cx1 (needs r, k, m), cx2 (needs p, m).
    Files and cliques take no parameters; a key the family does not take
    is an error.
    """
    named = {"cx1": ("r", "k", "m"), "cx2": ("p", "m")}
    is_file = os.path.exists(spec)
    clique = re.fullmatch(r"[Kk](\d+)", spec)
    if is_file or clique:
        taken = ()
    elif spec in named:
        taken = named[spec]
    else:
        raise ValueError(f"family {spec!r} is neither a file nor a built-in "
                         f"(K<r>, cx1, cx2)")
    unknown = [k for k in params if k not in taken]
    if unknown:
        raise ValueError(f"family {spec} takes no parameter "
                         f"{', '.join(unknown)}; it takes "
                         f"{', '.join(taken) or 'none'}")
    need = [k for k in taken if k not in params]
    if need:
        raise ValueError(f"family {spec} needs --params {','.join(need)}")
    if is_file:
        with open(spec, encoding="utf-8") as fh:
            members = [decode_graph6(line.strip())
                       for line in fh if line.strip()]
        if not members:
            raise ValueError(f"family file {spec} holds no graphs")
        return ForbiddenFamily(members, name=os.path.basename(spec))
    if clique:
        order = int(clique.group(1))
        return ForbiddenFamily([complete(order)], name=f"K{order}")
    if spec == "cx1":
        return cx1_family(params["r"], params["k"], params["m"])
    return cx2_package(params["p"], params["m"]).family


def _graph_entry(label: str, g: Graph) -> dict:
    entry = {"label": label, "graph6": encode_graph6(g),
             "n": g.n, "edges": g.edge_count}
    if g.partition is not None:
        entry["partition"] = [list(c) for c in g.partition.classes]
    return entry


def _cmd_construct(args, config) -> int:
    params = _parse_params(args.params)
    built = build_named(args.name, params)
    labels = _CONSTRUCT_LABELS.get(built.id,
                                   tuple(f"g{i}" for i in range(len(built.graphs))))
    payload = {
        "construction": built.id,
        "parameters": built.parameters,
        "graphs": [_graph_entry(lab, g)
                   for lab, g in zip(labels, built.graphs)],
    }
    if built.family is not None:
        payload["family"] = {
            "name": built.family.name,
            "members": [encode_graph6(m) for m in built.family.members],
        }
    _emit(args, payload)
    return 0


def _cmd_free_check(args, config) -> int:
    params = _parse_params(args.params)
    g = _read_graph(args)
    fam = _load_family(args.family, params)
    free = is_free(g, fam)
    _emit(args, {"family": fam.name, "n": g.n,
                 "graph6": encode_graph6(g), "free": free})
    return 0


def _cmd_chromatic(args, config) -> int:
    g = _read_graph(args)
    _emit(args, {"n": g.n, "graph6": encode_graph6(g),
                 "chi": chromatic_number(g)})
    return 0


def _cmd_lambda(args, config) -> int:
    g = _read_graph(args)
    res = spectral_radius(g)
    _emit(args, {"n": g.n, "graph6": encode_graph6(g),
                 "lambda": res.value, "residual": res.residual})
    return 0


def _cmd_quotient(args, config) -> int:
    g = _read_graph(args)
    part = _parse_partition(args.partition, g.n) if args.partition \
        else g.partition
    if part is None:
        raise ValueError("graph carries no partition; pass --partition")
    q = quotient_matrix(g, part)
    poly = q.char_poly()
    _emit(args, {"n": g.n, "classes": [list(c) for c in part.classes],
                 "matrix": [list(row) for row in q.entries],
                 "char_poly": list(poly.coeffs)})
    return 0


def _cmd_ex(args, config) -> int:
    params = _parse_params(args.params)
    fam = _load_family(args.family, params)
    rep = ex_oracle(args.n, fam, allow_large=args.allow_large,
                    jobs=_resolve_jobs(args, config))
    _emit(args, rep.as_dict())
    return 0


def _cmd_spex(args, config) -> int:
    params = _parse_params(args.params)
    fam = _load_family(args.family, params)
    rep = spex_oracle(args.n, fam, allow_large=args.allow_large,
                      jobs=_resolve_jobs(args, config))
    _emit(args, rep.as_dict())
    return 0


def _cmd_restricted_ex(args, config) -> int:
    params = _parse_params(args.params)
    fam = _load_family(args.family, params)
    space = RestrictedSpace(args.r, args.max_tree_order,
                            part=args.part, edit_budget=args.edit_budget)
    rep = restricted_ex(args.n, fam, space)
    _emit(args, rep.as_dict())
    return 0


def _cmd_fit(args, config) -> int:
    params = _parse_params(args.params)
    ns = [int(x) for x in args.ns.split(",")] if args.ns else None
    fit = experiment(args.experiment, params, ns=ns)
    if args.data_out:
        with open(args.data_out, "w", encoding="utf-8") as fh:
            for n, dlam in fit.samples:
                fh.write(f"{n} {n * dlam:.12g}\n")
    _emit(args, {"experiment": args.experiment.replace("-", "_"),
                 "params": params, "fit": fit.as_dict()})
    return 0


def _cmd_verify(args, config) -> int:
    claims = list(verify_mod.CLAIM_IDS) if args.all else (args.claim or [])
    if not claims:
        raise ValueError("pass --claim <id> (repeatable) or --all")
    params = _parse_params(args.params)
    jobs = _resolve_jobs(args, config)
    reports = [verify_mod.run_claim(cid, params or None, jobs=jobs)
               for cid in claims]
    ok = all(rep["ok"] for rep in reports)
    _emit(args, {"claims": reports, "ok": ok})
    if not ok:
        print(f"FAILED: {verify_mod.first_failure(reports)}", file=sys.stderr)
        return 1
    return 0


def _add_graph_input(p: argparse.ArgumentParser) -> None:
    p.add_argument("--graph6", help="graph6 string (default: read stdin)")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=None,
                        help="key = value config file")
    common.add_argument("--no-timestamps", action="store_true",
                        help="omit timestamps for byte-identical reruns")
    # only ex, spex and verify (its oracle claims) read --jobs
    parallel = argparse.ArgumentParser(add_help=False)
    parallel.add_argument("--jobs", type=int, default=None,
                          help="parallel workers, 1 to the CPU count "
                               "(default 1)")

    top = argparse.ArgumentParser(
        prog="spexlab",
        description="Spectral extremal graph constructions, oracles, "
                    "and claim verification.")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", parents=[common],
                       help="emit a named construction as graph6 + JSON")
    p.add_argument("--name", required=True,
                   choices=sorted(_CONSTRUCT_LABELS))
    p.add_argument("--params", help="comma list, e.g. r=3,k=6,n=55")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("free-check", parents=[common],
                       help="test family-freeness of a graph")
    _add_graph_input(p)
    p.add_argument("--family", required=True,
                   help="graph6-lines file or built-in (K<r>, cx1, cx2)")
    p.add_argument("--params", help="family parameters, e.g. r=3,k=6,m=5")
    p.set_defaults(func=_cmd_free_check)

    p = sub.add_parser("chromatic", parents=[common],
                       help="exact chromatic number")
    _add_graph_input(p)
    p.set_defaults(func=_cmd_chromatic)

    p = sub.add_parser("lambda", parents=[common],
                       help="spectral radius on the equitable quotient")
    _add_graph_input(p)
    p.set_defaults(func=_cmd_lambda)

    p = sub.add_parser("quotient", parents=[common],
                       help="equitable quotient matrix and char poly")
    _add_graph_input(p)
    p.add_argument("--partition",
                   help='classes like "0 1 2; 3 4" (default: stored)')
    p.set_defaults(func=_cmd_quotient)

    for name, fn, blurb in (
            ("ex", _cmd_ex, "exhaustive extremal edge count"),
            ("spex", _cmd_spex, "exhaustive spectral extremal set")):
        p = sub.add_parser(name, parents=[common, parallel], help=blurb)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--family", required=True)
        p.add_argument("--params", help="family parameters")
        p.add_argument("--allow-large", action="store_true",
                       help="lift the enumeration size guardrail")
        p.set_defaults(func=fn)

    p = sub.add_parser("restricted-ex", parents=[common],
                       help="edge maximum over the structured space")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--family", required=True)
    p.add_argument("--params", help="family parameters")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--max-tree-order", type=int, required=True)
    p.add_argument("--part", default="any",
                   choices=("any", "smallest", "largest"))
    p.add_argument("--edit-budget", type=int, default=0)
    p.set_defaults(func=_cmd_restricted_ex)

    p = sub.add_parser("fit", parents=[common],
                       help="run a 1/n experiment and extrapolate")
    p.add_argument("--experiment", required=True,
                   help="star_vs_path | edge_add | transfer_shift | cx1_gap")
    p.add_argument("--params", help="e.g. r=3,k=6")
    p.add_argument("--ns", help="comma list of sizes (default: auto)")
    p.add_argument("--data-out",
                   help="write two-column (n, n*dlam) data here")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("verify", parents=[common, parallel],
                       help="replay desk-scale claims")
    p.add_argument("--claim", action="append",
                   help=f"one of {', '.join(verify_mod.CLAIM_IDS)} "
                        "(repeatable)")
    p.add_argument("--all", action="store_true", help="run every claim")
    p.add_argument("--params", help="extra claim parameters")
    p.set_defaults(func=_cmd_verify)

    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _read_config(args.config)
        return args.func(args, config)
    except (ValueError, Graph6Error, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
