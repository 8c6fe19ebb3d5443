"""Command-line frontend and experiment harness.

Subcommands: membership, copositive, clique, qpbound, gen, bench.  Exit
codes follow a decidedness contract: 0 for a decided outcome, 2 for
inconclusive / not-identified, 1 for errors, so shell pipelines can branch
on whether a run settled its question.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
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
    gen_gnp_graph,
    gen_planted_qp,
    gen_random_spn,
    load_dimacs,
    max_clique_matrix,
    plant_clique,
    save_dimacs,
    std_qp_matrix,
)
from .linalg import format_matrix, load_matrix

EXIT_DECIDED = 0
EXIT_ERROR = 1
EXIT_INCONCLUSIVE = 2

# user-facing cone flags and their internal family names
CONE_FLAGS = {
    "N": "N",
    "DD": "DD",
    "H": "H",
    "G": "G",
    "F+": "Fplus",
    "F+-": "Fpm",
    "L": "L",
}
_FLAG_OF_FAMILY = {v: k for k, v in CONE_FLAGS.items()}

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

    def to_obj(self) -> dict:
        return asdict(self)

    @classmethod
    def from_obj(cls, obj: dict) -> "RunRecord":
        return cls(**obj)

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

    @classmethod
    def from_csv_row(cls, row: dict) -> "RunRecord":
        values = {}
        for f in fields(cls):
            text = row[f.name]
            if f.type != "str":
                text = None if text == "" else json.loads(text)
            values[f.name] = text
        return cls(**values)


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
            out.write(json.dumps(r.to_obj(), sort_keys=True) + "\n")
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


def read_records_csv(text: str) -> list:
    return [RunRecord.from_csv_row(row) for row in csv.DictReader(io.StringIO(text))]


def read_records_json(text: str) -> list:
    return [
        RunRecord.from_obj(json.loads(line))
        for line in text.splitlines()
        if line.strip()
    ]


def _parse_cones(arg: str) -> list:
    families = []
    for tok in arg.split(","):
        tok = tok.strip()
        if tok not in CONE_FLAGS:
            raise ValueError(
                f"unknown cone {tok!r}; choose from {','.join(CONE_FLAGS)}"
            )
        families.append(CONE_FLAGS[tok])
    return families


def _emit(records, args) -> None:
    """Write records in --format to --out, or to stdout without --out."""
    if args.out is None:
        write_records(records, args.format, sys.stdout)
        return
    with open(args.out, "w", newline="") as out:
        write_records(records, args.format, out)


def cmd_membership(args) -> int:
    a = load_matrix(args.matrix)
    families = _parse_cones(args.cone)
    started = time.monotonic()
    verdicts = cones.membership_report(a, cones=families, eps_alpha=args.eps)
    elapsed = time.monotonic() - started
    digest = matrix_digest(a)
    records = []
    for v in verdicts:
        flag = _FLAG_OF_FAMILY.get(v.cone.replace("_hat", ""), v.cone)
        records.append(
            RunRecord(
                command="membership",
                input_digest=digest,
                config={"cone": flag, "eps": args.eps},
                outcome=v.status,
                alpha_star=v.alpha_star,
                wall_time=elapsed / max(1, len(verdicts)),
                seed="",
            )
        )
    _emit(records, args)
    any_member = any(v.is_member for v in verdicts)
    return EXIT_DECIDED if any_member else EXIT_INCONCLUSIVE


def _copo_config(args) -> CopoConfig:
    """The partition settings shared by every subcommand that runs one."""
    return CopoConfig(
        cone_family=CONE_FLAGS[args.cone],
        use_alg2=(args.alg == 2),
        max_iterations=args.max_iter,
        time_limit=args.time_limit,
        eps_alpha=args.eps,
    )


def _copositive_record(
    a, cfg: CopoConfig, command: str, config: dict, seed: str = ""
) -> RunRecord:
    res = test_copositive(a, cfg)
    return RunRecord(
        command=command,
        input_digest=matrix_digest(a),
        config=config,
        outcome=res.outcome,
        certificate=None if res.certificate is None else list(res.certificate),
        iterations=res.stats["iterations"],
        lp_calls=res.stats["lp_calls"],
        wall_time=res.stats["wall_time"],
        seed=seed,
    )


def cmd_copositive(args) -> int:
    a = load_matrix(args.matrix)
    config = {
        "cone": args.cone,
        "alg": args.alg,
        "max_iter": args.max_iter,
        "time_limit": args.time_limit,
        "eps": args.eps,
    }
    rec = _copositive_record(a, _copo_config(args), "copositive", config)
    _emit([rec], args)
    if rec.outcome == copositivity.INCONCLUSIVE:
        return EXIT_INCONCLUSIVE
    return EXIT_DECIDED


def cmd_clique(args) -> int:
    g = load_dimacs(args.graph)
    omega = instances.clique_number(g, _copo_config(args))
    if omega is None:
        print("inconclusive: probe budget exhausted")
        return EXIT_INCONCLUSIVE
    print(f"clique_number {omega}")
    return EXIT_DECIDED


def cmd_qpbound(args) -> int:
    q = load_matrix(args.matrix)
    bound = instances.qp_optimum(q, _copo_config(args), eta=args.eta)
    print(f"interval [{bound.lo!r}, {bound.hi!r}] converged={bound.converged}")
    return EXIT_DECIDED if bound.converged else EXIT_INCONCLUSIVE


def cmd_gen(args) -> int:
    seed = args.seed
    if args.kind == "spn":
        a, _, _ = gen_random_spn(args.n, seed)
        payload = format_matrix(a)
    elif args.kind == "plantedqp":
        inst = gen_planted_qp(args.n, args.support, args.t, seed=seed)
        payload = format_matrix(inst.Q)
    elif args.kind == "gnp":
        g = gen_gnp_graph(args.n, args.p, seed=seed)
        if args.clique:
            g = plant_clique(g, args.clique, seed=seed)
        payload = None
    else:
        raise ValueError(f"unknown kind {args.kind!r}")
    if args.kind == "gnp":
        if args.out:
            save_dimacs(g, args.out)
        else:
            sys.stdout.write(f"p edge {g.n} {g.m}\n")
            for i, j in sorted(g.edges):
                sys.stdout.write(f"e {i + 1} {j + 1}\n")
    else:
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(payload)
        else:
            sys.stdout.write(payload)
    return EXIT_DECIDED


def _row_seed(master: int, index: int) -> np.random.SeedSequence:
    # per-row stream: master entropy extended by the row index, so any row
    # can be regenerated in isolation
    return np.random.SeedSequence([master, index])


def _bench_instance(spec: dict, seed_seq) -> np.ndarray:
    kind = spec["kind"]
    if kind == "spn":
        a, _, _ = gen_random_spn(int(spec["n"]), seed_seq)
        return a
    if kind == "kgamma":
        return max_clique_matrix(complete_graph(int(spec["n"])), float(spec["gamma"]))
    if kind == "plantedqp":
        inst = gen_planted_qp(
            int(spec["n"]), int(spec["support"]), float(spec["t"]), seed=seed_seq
        )
        return std_qp_matrix(inst.Q, float(spec.get("gamma", 0.0)))
    if kind == "file":
        return load_matrix(spec["path"])
    raise ValueError(f"unknown instance kind {kind!r}")


def _bench_row(index: int, row: dict, master: int) -> RunRecord:
    seed_seq = _row_seed(master, index)
    a = _bench_instance(row["instance"], seed_seq)
    task = row.get("task", "membership")
    cone_flag = row.get("cone", "F+-")
    family = CONE_FLAGS[cone_flag]
    config = {
        "row": index,
        "task": task,
        "cone": cone_flag,
        "instance": row["instance"],
    }
    seed = f"{master}/{index}"
    if task == "membership":
        started = time.monotonic()
        verdicts = cones.membership_report(a, cones=[family])
        v = verdicts[0]
        return RunRecord(
            command="bench",
            input_digest=matrix_digest(a),
            config=config,
            outcome=v.status,
            alpha_star=v.alpha_star,
            lp_calls=1 if family in cones.LP_FAMILIES else 0,
            wall_time=time.monotonic() - started,
            seed=seed,
        )
    if task == "copositive":
        cfg = CopoConfig(
            cone_family=family,
            use_alg2=int(row.get("alg", 2)) == 2,
            max_iterations=int(row.get("max_iter", CopoConfig.max_iterations)),
            time_limit=float(row.get("time_limit", CopoConfig.time_limit)),
        )
        return _copositive_record(a, cfg, "bench", config, seed)
    raise ValueError(f"unknown task {task!r}")


def _expand_suite(suite: dict) -> list:
    rows = []
    for row in suite["rows"]:
        repeat = int(row.get("repeat", 1))
        base = {k: v for k, v in row.items() if k != "repeat"}
        rows.extend(dict(base) for _ in range(repeat))
    return rows


def _summary_records(records: list) -> list:
    by_cone: dict = {}
    for r in records:
        cone = r.config.get("cone", "?")
        bucket = by_cone.setdefault(cone, {"runs": 0, "decided": 0, "time": 0.0})
        bucket["runs"] += 1
        bucket["time"] += r.wall_time
        if r.outcome in (cones.MEMBER, copositivity.COPOSITIVE,
                         copositivity.NOT_COPOSITIVE):
            bucket["decided"] += 1
    out = []
    for cone in sorted(by_cone):
        b = by_cone[cone]
        out.append(
            RunRecord(
                command="summary",
                input_digest="",
                config={"cone": cone, "runs": b["runs"]},
                outcome=f"decided={b['decided']}/{b['runs']}",
                wall_time=b["time"] / b["runs"],
                seed="",
            )
        )
    return out


def cmd_bench(args) -> int:
    with open(args.suite) as fh:
        suite = json.load(fh)
    master = int(args.seed if args.seed is not None else suite.get("seed", 0))
    rows = _expand_suite(suite)
    records = [_bench_row(i, row, master) for i, row in enumerate(rows)]
    records = records + _summary_records(records)
    _emit(records, args)
    any_inconclusive = any(
        r.outcome
        in (copositivity.INCONCLUSIVE, cones.NOT_IDENTIFIED)
        for r in records
        if r.command == "bench"
    )
    return EXIT_INCONCLUSIVE if any_inconclusive else EXIT_DECIDED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conekit",
        description="Cone membership tests and copositivity runs.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def cone_flags(p, default):
        p.add_argument("--cone", default=default)
        p.add_argument("--eps", type=float, default=cones.EPS_ALPHA)

    def partition_flags(p, max_iter):
        p.add_argument("--alg", type=int, choices=(1, 2), default=2)
        p.add_argument("--max-iter", type=int, default=max_iter)
        p.add_argument("--time-limit", type=float, default=CopoConfig.time_limit)

    def record_flags(p, default_format):
        p.add_argument(
            "--format", choices=("csv", "json", "table"), default=default_format
        )
        p.add_argument("--out", default=None)

    p = sub.add_parser("membership", help="per-cone membership report")
    p.add_argument("matrix")
    cone_flags(p, "N,DD,H,G,F+,F+-,L")
    record_flags(p, "table")
    p.set_defaults(func=cmd_membership)

    p = sub.add_parser("copositive", help="simplicial-partition copositivity test")
    p.add_argument("matrix")
    cone_flags(p, "F+-")
    partition_flags(p, CopoConfig.max_iterations)
    record_flags(p, "table")
    p.set_defaults(func=cmd_copositive)

    # the reductions run many probes, each with a smaller iteration budget
    p = sub.add_parser("clique", help="clique number via copositivity probes")
    p.add_argument("graph")
    cone_flags(p, "F+-")
    partition_flags(p, 200_000)
    p.set_defaults(func=cmd_clique)

    p = sub.add_parser("qpbound", help="bracket the simplex-QP optimum")
    p.add_argument("matrix")
    cone_flags(p, "F+-")
    partition_flags(p, 200_000)
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
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
