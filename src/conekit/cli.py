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
from dataclasses import asdict, dataclass, field, fields

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
from .linalg import as_sym_matrix, format_matrix, load_matrix

EXIT_DECIDED = 0
EXIT_ERROR = 1
EXIT_INCONCLUSIVE = 2

# user-facing cone flags and their library names, in cones.CONE_ORDER
_SPELLINGS = {"Fplus": "F+", "Fpm": "F+-"}  # the two flags that differ
CONE_FLAGS = {_SPELLINGS.get(c, c): c for c in cones.CONE_ORDER}
# the flags a partition (copositive, clique, qpbound, bench rows) accepts
PARTITION_FLAGS = {k: v for k, v in CONE_FLAGS.items() if v in copositivity.FAMILIES}
# CopoConfig's defaults under a request config's names (the argparse dests)
PARTITION_DEFAULTS = {
    "cone": _SPELLINGS.get(CopoConfig.cone_family, CopoConfig.cone_family),
    "alg": 2 if CopoConfig.use_alg2 else 1,
    "max_iter": CopoConfig.max_iterations,
    "time_limit": CopoConfig.time_limit,
}
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
            out.write(
                f"{r.command:<12} {r.outcome:<16} alpha={alpha:<12} "
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


def _copo_config(config: dict) -> CopoConfig:
    """The partition settings of a request config, read from its cone, alg,
    max_iter and time_limit (the argparse dests); a cone flag or alg outside
    the choices is an error that names them."""
    if config["alg"] not in (1, 2):
        raise ValueError(f"unknown alg {config['alg']!r}; choose from 1,2")
    return CopoConfig(
        cone_family=_cone(config["cone"], PARTITION_FLAGS),
        use_alg2=config["alg"] == 2,
        max_iterations=config["max_iter"],
        time_limit=config["time_limit"],
    )


def _record(command: str, a, task, config: dict, seed: str = "") -> RunRecord:
    """Run one validated request on its own clock: a membership test when
    task is a cone family, a copositivity test when it is a CopoConfig."""
    started = time.monotonic()
    rec = RunRecord(command, matrix_digest(a), config, seed=seed)
    if isinstance(task, CopoConfig):
        rec.config = {**config, "alg": task.alg}  # the algorithm that runs
        res = test_copositive(a, task)
        rec.outcome, rec.wall_time = res.outcome, res.stats["wall_time"]
        rec.certificate = None if res.certificate is None else list(res.certificate)
        rec.iterations, rec.lp_calls = res.stats["iterations"], res.stats["lp_calls"]
    else:
        v = cones.membership_report(a, [task])[0]
        rec.outcome, rec.alpha_star = v.status, v.alpha_star
        rec.lp_calls = int(task in cones.LP_FAMILIES)
        rec.wall_time = time.monotonic() - started
    return rec


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
    families = {_cone(flag) for flag in args.cone.split(",")}
    records = [
        _record("membership", a, family, {"cone": flag})
        for flag, family in CONE_FLAGS.items()
        if family in families
    ]
    _emit(records, args)
    return _exit_code(any(r.outcome in DECIDED for r in records))


def cmd_copositive(args) -> int:
    a = load_matrix(args.matrix)
    config = {k: getattr(args, k) for k in ("cone", "alg", "max_iter", "time_limit")}
    rec = _record("copositive", a, _copo_config(config), config)
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
    if args.seed < 0:  # numpy's own error names no flag
        raise ValueError(f"gen seed must be at least 0, got {args.seed}")
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
    return float(value) if whole else value


def _field(spec: dict, name: str, kind: type, default=None):
    """The field name of a bench suite, row or instance, read by _typed; an
    absent field is its default, and an error when it has none (None)."""
    if name in spec:
        return _typed(spec[name], kind, f"field {name!r}")
    if default is None:
        raise ValueError(f"bench field {name!r} is missing")
    return default


def _bench_instance(spec: dict, seed_seq) -> np.ndarray:
    kind = _field(spec, "kind", str)
    if kind == "spn":
        return gen_random_spn(_field(spec, "n", int), seed_seq)[0]
    if kind == "kgamma":
        n = _field(spec, "n", int)
        return max_clique_matrix(complete_graph(n), _field(spec, "gamma", float))
    if kind == "plantedqp":
        n, support = _field(spec, "n", int), _field(spec, "support", int)
        inst = gen_planted_qp(n, support, _field(spec, "t", float), seed=seed_seq)
        return std_qp_matrix(inst.Q, _field(spec, "gamma", float, 0.0))
    if kind == "file":
        return load_matrix(_field(spec, "path", str))
    raise ValueError(f"unknown instance kind {kind!r}")


def _bench_request(index: int, row: dict, master: int) -> tuple:
    """A bench row's validated (matrix, task, config) for _record.  Its
    instance draws from the stream of master extended by the row index, so
    any row can be regenerated in isolation."""
    instance = _field(row, "instance", dict)
    seeds = np.random.SeedSequence([master, index])
    a = as_sym_matrix(_bench_instance(instance, seeds))
    config = {"row": index, "task": _field(row, "task", str, "membership"),
              "cone": _field(row, "cone", str, PARTITION_DEFAULTS["cone"]),
              "instance": instance}
    if config["task"] == "membership":
        return a, _cone(config["cone"]), config
    if config["task"] == "copositive":
        for name, kind in (("alg", int), ("max_iter", int), ("time_limit", float)):
            config[name] = _field(row, name, kind, PARTITION_DEFAULTS[name])
        return a, _copo_config(config), config
    raise ValueError(f"unknown task {config['task']!r}")


def _bench_requests(suite: dict, master: int) -> list:
    """The requests of every row, each row repeat times, indexed in that
    order; an error names the row by its place in the suite's rows."""
    rows = _field(suite, "rows", list)
    if not rows:
        raise ValueError("bench field 'rows' must list at least one row")
    requests = []
    for written, row in enumerate(rows):
        try:
            repeat = _field(_typed(row, dict, "row"), "repeat", int, 1)
            if repeat < 1:
                raise ValueError(
                    f"bench field 'repeat' must be at least 1, got {repeat}")
            for _ in range(repeat):
                requests.append(_bench_request(len(requests), row, master))
        except (OSError, ValueError) as exc:
            raise ValueError(f"{exc} (row {written})") from exc
    return requests


def _summary_records(records: list) -> list:
    """One summary per (task, cone, alg); alg is None for membership rows."""
    groups: dict = {}
    for r in records:
        key = (r.config.get("task"), r.config.get("cone", "?"), r.config.get("alg"))
        bucket = groups.setdefault(key, {"runs": 0, "decided": 0, "time": 0.0})
        bucket["runs"] += 1
        bucket["time"] += r.wall_time
        bucket["decided"] += r.outcome in DECIDED
    out = []
    for (task, cone, alg), b in sorted(groups.items(), key=lambda kv: str(kv[0])):
        config = {"task": task, "cone": cone, "alg": alg, "runs": b["runs"]}
        out.append(RunRecord("summary", "", config, wall_time=b["time"] / b["runs"],
                             outcome=f"decided={b['decided']}/{b['runs']}"))
    return out


def cmd_bench(args) -> int:
    with open(args.suite) as fh:
        suite = _typed(json.load(fh), dict, "suite")
    seed = _field(suite, "seed", int, 0)  # checked even under --seed
    master = seed if args.seed is None else args.seed
    if master < 0:  # SeedSequence's own error would blame row 0
        raise ValueError(f"bench seed must be at least 0, got {master}")
    # every row is validated, its instance too, before the first one runs
    requests = _bench_requests(suite, master)
    records = [
        _record("bench", a, task, config, f"{master}/{i}")
        for i, (a, task, config) in enumerate(requests)
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
        p.add_argument("--alg", type=int, choices=(1, 2))
        p.add_argument("--max-iter", type=int)
        p.add_argument("--time-limit", type=float)
        p.set_defaults(**PARTITION_DEFAULTS)

    def record_flags(p, default_format):
        p.add_argument(
            "--format", choices=("csv", "json", "table"), default=default_format
        )
        p.add_argument("--out", default=None)

    p = sub.add_parser("membership", help="per-cone membership report")
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
