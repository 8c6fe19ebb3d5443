"""Command-line frontend and experiment harness.

Subcommands: membership, copositive, clique, qpbound, gen, bench.  Exit
codes follow a decidedness contract: 0 for a decided outcome, 2 for
inconclusive / not-identified, 1 for errors (usage errors included), so shell
pipelines can branch on whether a run settled its question.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
import time
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from . import cones, copositivity, instances
from .copositivity import CopoConfig, test_copositive
from .instances import (
    GENERATOR_ID,
    complete_graph,
    format_dimacs,
    gen_gnp_graph,
    gen_planted_qp,
    gen_random_spn,
    load_dimacs,
    max_clique_matrix,
    plant_clique,
    std_qp_matrix,
)
from .linalg import as_float, as_sym_matrix, check_int, format_matrix, load_matrix

EXIT_DECIDED = 0
EXIT_ERROR = 1
EXIT_INCONCLUSIVE = 2

# user-facing cone flags and their library names, in cones.CONE_ORDER
_SPELLINGS = {"Fplus": "F+", "Fpm": "F+-"}  # the two flags that differ
CONE_FLAGS = {_SPELLINGS.get(c, c): c for c in cones.CONE_ORDER}
# the flags a partition (copositive, clique, qpbound, bench rows) accepts
PARTITION_FLAGS = {k: v for k, v in CONE_FLAGS.items() if v in copositivity.FAMILIES}
# the outcomes that settle a request's question
DECIDED = (cones.MEMBER, copositivity.COPOSITIVE, copositivity.NOT_COPOSITIVE)

@dataclass
class RunRecord:
    """One run of one task on one instance; the unit of all emitted tables."""

    command: str
    input_digest: str
    config: dict = field(default_factory=dict)
    outcome: str = ""
    alpha_star: float | None = None
    certificate: list | None = None
    iterations: int = 0
    lp_calls: int = 0
    wall_time: float = 0.0
    seed: str = ""
    generator_id: str = GENERATOR_ID

    # one rule per CSV cell: str fields verbatim, None as an empty cell,
    # everything else as JSON
    def to_csv_row(self) -> list:
        row = []
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type != "str":
                value = "" if value is None else json.dumps(value, sort_keys=True)
            row.append(value)
        return row


CSV_FIELDS = tuple(f.name for f in fields(RunRecord))


def matrix_digest(a: np.ndarray) -> str:
    return hashlib.sha256(format_matrix(a).encode()).hexdigest()[:12]


def write_records(records, fmt: str, out) -> None:
    if fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(CSV_FIELDS)
        for r in records:
            writer.writerow(r.to_csv_row())
    elif fmt == "json":
        for r in records:
            out.write(json.dumps(asdict(r), sort_keys=True) + "\n")
    elif fmt == "table":
        for r in records:
            alpha = "" if r.alpha_star is None else f"{r.alpha_star:.6g}"
            cone = r.config.get("cone", "")
            out.write(
                f"{r.command:<12} cone={cone:<4} {r.outcome:<16} alpha={alpha:<12} "
                f"iter={r.iterations:<8} lp={r.lp_calls:<8} "
                f"t={r.wall_time:.3f}s seed={r.seed}\n"
            )
    else:
        raise ValueError(f"unknown format {fmt!r}")


def _cone(flag, accepted=CONE_FLAGS) -> str:
    """The library name of a cone flag; a flag outside accepted is an error
    that names the accepted ones."""
    flag = flag.strip()
    if flag not in accepted:
        raise ValueError(f"unknown cone {flag!r}; choose from {','.join(accepted)}")
    return accepted[flag]


def _copo_config(request: dict) -> CopoConfig:
    """The CopoConfig of a request's cone, max_iter and time_limit (the
    argparse dests), each None where the request gave none, so CopoConfig's
    own defaults fill those in; a cone flag outside the choices names them."""
    given = {"max_iterations": request["max_iter"], "time_limit": request["time_limit"]}
    if request["cone"] is not None:
        given["cone_family"] = _cone(request["cone"], PARTITION_FLAGS)
    return CopoConfig(**{k: v for k, v in given.items() if v is not None})


def _records(command: str, a, task, config: dict, seed: str = "") -> list:
    """Run one validated request: a CopoConfig's copositivity test, one
    record on its own clock, or one membership_report on the cone families
    in task, one record per verdict on the report's clock.  Each record's
    config is the request's context plus what ran: the cone's flag, and a
    CopoConfig's budgets; lp_calls is 1 for G, F+, F+- (one staged LP) and L."""
    rec = RunRecord(command, matrix_digest(a), config, seed=seed)
    if isinstance(task, CopoConfig):
        res = test_copositive(a, task)
        family = task.cone_family
        rec.config = {**config, "cone": _SPELLINGS.get(family, family),
                      "max_iter": task.max_iterations, "time_limit": task.time_limit}
        rec.outcome, rec.wall_time = res.outcome, res.stats["wall_time"]
        rec.certificate = None if res.certificate is None else list(res.certificate)
        rec.iterations, rec.lp_calls = res.stats["iterations"], res.stats["lp_calls"]
        return [rec]
    started = time.monotonic()
    verdicts = cones.membership_report(a, task)
    rec.wall_time = time.monotonic() - started
    return [replace(rec, config={**config, "cone": _SPELLINGS.get(v.cone, v.cone)},
                    outcome=v.status, alpha_star=v.alpha_star,
                    lp_calls=int(v.cone in (*cones.LP_FAMILIES, "L"))) for v in verdicts]


def _emit(records, args) -> None:
    """Write records in --format to --out, or to stdout without --out."""
    if args.out is None:
        write_records(records, args.format, sys.stdout)
        return
    with open(args.out, "w", newline="") as out:
        write_records(records, args.format, out)


def _exit_code(decided: bool) -> int:
    return EXIT_DECIDED if decided else EXIT_INCONCLUSIVE


def cmd_membership(args) -> int:
    a = load_matrix(args.matrix)
    records = _records("membership", a, [_cone(f) for f in args.cone.split(",")], {})
    _emit(records, args)
    return _exit_code(any(r.outcome in DECIDED for r in records))


def cmd_copositive(args) -> int:
    a = load_matrix(args.matrix)
    (rec,) = _records("copositive", a, _copo_config(vars(args)), {})
    _emit([rec], args)
    return _exit_code(rec.outcome in DECIDED)


def cmd_clique(args) -> int:
    g = load_dimacs(args.graph)
    omega = instances.clique_number(g, _copo_config(vars(args)))
    if omega is None:
        print("inconclusive: partition budget exhausted")
        return EXIT_INCONCLUSIVE
    print(f"clique_number {omega}")
    return EXIT_DECIDED


def cmd_qpbound(args) -> int:
    q = load_matrix(args.matrix)
    bound = instances.qp_optimum(q, _copo_config(vars(args)), eta=args.eta)
    print(f"interval [{bound.lo!r}, {bound.hi!r}] converged={bound.converged}")
    return _exit_code(bound.converged)


def cmd_gen(args) -> int:
    check_int("gen seed", args.seed, 0)  # numpy's own error names no flag
    if args.kind == "spn":
        payload = format_matrix(gen_random_spn(args.n, args.seed)[0])
    elif args.kind == "plantedqp":
        inst = gen_planted_qp(args.n, args.support, args.t, seed=args.seed)
        payload = format_matrix(inst.Q)
    else:  # gnp, the parser's last choice
        g = gen_gnp_graph(args.n, args.p, seed=args.seed)
        if args.clique:
            g = plant_clique(g, args.clique, seed=args.seed)
        payload = format_dimacs(g)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
    return EXIT_DECIDED


# what each kind of bench value must be; a bool is never a number
_KINDS = {int: "an integer", float: "a number", str: "a string",
          dict: "a JSON object", list: "a JSON list"}


def _typed(value, kind: type, what: str):
    """value as kind, a whole number as a float; any other value, a bool or
    1.5 for an integer say, is an error that names what was read."""
    whole = kind is float and isinstance(value, int)
    if isinstance(value, bool) or not (whole or isinstance(value, kind)):
        raise ValueError(f"bench {what} must be {_KINDS[kind]}, got {value!r}")
    return as_float(f"bench {what}", value) if whole else value


class _Spec:
    """A bench suite, row or instance, read field by field; done() refuses
    a field that no read asked for, so a misspelled one cannot fall back to
    its default unseen."""

    def __init__(self, fields: dict):
        self.fields, self.read = fields, set()

    def __call__(self, name: str, kind: type, default=...):
        """The field name, by _typed; an absent field is its default, and an
        error when it has none (...)."""
        self.read.add(name)
        if name in self.fields:
            return _typed(self.fields[name], kind, f"field {name!r}")
        if default is ...:
            raise ValueError(f"bench field {name!r} is missing")
        return default

    def done(self) -> None:
        for name in self.fields:
            if name not in self.read:
                raise ValueError(f"bench field {name!r} is not read")


def _bench_instance(spec: _Spec, seed_seq) -> np.ndarray:
    kind = spec("kind", str)
    if kind == "spn":
        return gen_random_spn(spec("n", int), seed_seq)[0]
    if kind == "kgamma":
        n = spec("n", int)
        return max_clique_matrix(complete_graph(n), spec("gamma", float))
    if kind == "plantedqp":
        n, support = spec("n", int), spec("support", int)
        inst = gen_planted_qp(n, support, spec("t", float), seed=seed_seq)
        return std_qp_matrix(inst.Q, spec("gamma", float, 0.0))
    if kind == "file":
        return load_matrix(spec("path", str))
    raise ValueError(f"unknown instance kind {kind!r}")


def _bench_request(index: int, row: _Spec, master: int) -> tuple:
    """A bench row's validated (matrix, task, config) for _records.  Its
    instance draws from the stream of master extended by the row index, so
    any row can be regenerated in isolation."""
    instance = _Spec(row("instance", dict))
    seeds = np.random.SeedSequence([master, index])
    a = as_sym_matrix(_bench_instance(instance, seeds))
    instance.done()
    config = {"row": index, "task": row("task", str, "membership"),
              "instance": instance.fields}
    cone = row("cone", str, None)  # None where the row leaves it out
    if config["task"] == "membership":
        request = a, [CopoConfig.cone_family if cone is None else _cone(cone)], config
    elif config["task"] == "copositive":
        given = {"cone": cone, "max_iter": row("max_iter", int, None),
                 "time_limit": row("time_limit", float, None)}
        request = a, _copo_config(given), config
    else:
        raise ValueError(f"unknown task {config['task']!r}")
    row.done()
    return request


def _bench_requests(suite: _Spec, master: int) -> list:
    """The requests of every row, each row repeat times, indexed in that
    order; an error names the row by its place in the suite's rows."""
    rows = suite("rows", list)
    if not rows:
        raise ValueError("bench field 'rows' must list at least one row")
    suite.done()
    requests = []
    for written, row in enumerate(rows):
        try:
            row = _Spec(_typed(row, dict, "row"))
            repeat = row("repeat", int, 1)
            for _ in range(check_int("bench field 'repeat'", repeat, 1)):
                requests.append(_bench_request(len(requests), row, master))
        except (OSError, ValueError) as exc:
            raise ValueError(f"{exc} (row {written})") from exc
    return requests


def _summary_records(records: list) -> list:
    """One summary per (task, cone)."""
    groups: dict = {}
    for r in records:
        key = (r.config["task"], r.config["cone"])
        bucket = groups.setdefault(key, {"runs": 0, "decided": 0, "time": 0.0})
        bucket["runs"] += 1
        bucket["time"] += r.wall_time
        bucket["decided"] += r.outcome in DECIDED
    out = []
    for (task, cone), b in sorted(groups.items()):
        config = {"task": task, "cone": cone, "runs": b["runs"]}
        out.append(RunRecord("summary", "", config, wall_time=b["time"] / b["runs"],
                             outcome=f"decided={b['decided']}/{b['runs']}"))
    return out


def cmd_bench(args) -> int:
    with open(args.suite) as fh:
        suite = _Spec(_typed(json.load(fh), dict, "suite"))
    seed = suite("seed", int, 0)  # checked even under --seed
    # SeedSequence's own error would blame row 0
    master = check_int("bench seed", seed if args.seed is None else args.seed, 0)
    # every row is validated, its instance too, before the first one runs
    requests = _bench_requests(suite, master)
    records = [
        rec
        for i, (a, task, config) in enumerate(requests)
        for rec in _records("bench", a, task, config, f"{master}/{i}")
    ]
    _emit(records + _summary_records(records), args)
    return _exit_code(all(r.outcome in DECIDED for r in records))


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1: argparse's 2 means "inconclusive" here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="conekit",
        description="Cone membership tests and copositivity runs.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def partition_flags(p):
        p.add_argument("--cone")
        p.add_argument("--max-iter", type=int)
        p.add_argument("--time-limit", type=float)

    def record_flags(p, default_format):
        p.add_argument(
            "--format", choices=("csv", "json", "table"), default=default_format
        )
        p.add_argument("--out", default=None)

    p = sub.add_parser("membership", help="one membership report, a record per cone")
    p.add_argument("matrix")
    p.add_argument("--cone", default=",".join(CONE_FLAGS))
    record_flags(p, "table")
    p.set_defaults(func=cmd_membership)

    p = sub.add_parser("copositive", help="simplicial-partition copositivity test")
    p.add_argument("matrix")
    partition_flags(p)
    record_flags(p, "table")
    p.set_defaults(func=cmd_copositive)

    p = sub.add_parser("clique", help="clique number by simplicial partition")
    p.add_argument("graph")
    partition_flags(p)
    p.set_defaults(func=cmd_clique)

    p = sub.add_parser("qpbound", help="bracket the simplex-QP optimum")
    p.add_argument("matrix")
    partition_flags(p)
    p.add_argument("--eta", type=float, default=0.1)
    p.set_defaults(func=cmd_qpbound)

    p = sub.add_parser("gen", help="generate instances")
    p.add_argument("kind", choices=("spn", "plantedqp", "gnp"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--support", type=int, default=3)
    p.add_argument("--t", type=float, default=-10.0)
    p.add_argument("--p", type=float, default=0.5)
    p.add_argument("--clique", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("bench", help="run a declarative suite to CSV/JSON")
    p.add_argument("suite", help="suite spec (JSON)")
    p.add_argument("--seed", type=int, default=None)
    record_flags(p, "csv")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return EXIT_ERROR
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
