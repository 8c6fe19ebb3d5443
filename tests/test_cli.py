import io
import json
import subprocess
import sys

import numpy as np
import pytest

from conekit import instances
from conekit.cli import (
    RunRecord,
    _copo_config,
    build_parser,
    main,
    read_records_csv,
    read_records_json,
    write_records,
)
from conekit.linalg import format_matrix

M1 = np.array([[2.0, 2.0, 2.0], [2.0, 2.0, -3.0], [2.0, -3.0, 6.0]])
M2 = np.array([[1.0, 5.0, -2.0], [5.0, 1.0, -2.0], [-2.0, -2.0, 4.0]])


@pytest.fixture
def m1_path(tmp_path):
    p = tmp_path / "m1.txt"
    p.write_text(format_matrix(M1))
    return str(p)


@pytest.fixture
def m2_path(tmp_path):
    p = tmp_path / "m2.txt"
    p.write_text(format_matrix(M2))
    return str(p)


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "conekit.cli", *args],
        capture_output=True,
        text=True,
    )


def test_membership_exit_codes_subprocess(m1_path, m2_path, tmp_path):
    r = run_cli("membership", m1_path, "--cone", "H,G")
    assert r.returncode == 0
    assert "member" in r.stdout and "not_identified" in r.stdout

    r = run_cli("membership", m2_path, "--cone", "H")
    assert r.returncode == 2

    bad = tmp_path / "bad.txt"
    bad.write_text("3\n1 2\n")
    r = run_cli("membership", str(bad))
    assert r.returncode == 1
    assert "error" in r.stderr


def test_membership_unknown_cone_errors(m1_path):
    assert main(["membership", m1_path, "--cone", "ZZ"]) == 1


def test_copositive_exit_codes(tmp_path):
    k5 = instances.max_clique_matrix(instances.complete_graph(5), 5.5)
    p = tmp_path / "b55.txt"
    p.write_text(format_matrix(k5))
    assert main(["copositive", str(p)]) == 0

    k5 = instances.max_clique_matrix(instances.complete_graph(5), 4.5)
    p.write_text(format_matrix(k5))
    out = tmp_path / "rec.jsonl"
    assert main(["copositive", str(p), "--format", "json", "--out", str(out)]) == 0
    rec = read_records_json(out.read_text())[0]
    assert rec.outcome == "not_copositive"
    assert rec.certificate is not None
    v = np.array(rec.certificate)
    assert float(v @ k5 @ v) < 0.0

    # boundary matrix, entrywise family, tiny budget: inconclusive
    k5 = instances.max_clique_matrix(instances.complete_graph(5), 5.0)
    p.write_text(format_matrix(k5))
    assert main(
        ["copositive", str(p), "--cone", "N", "--max-iter", "20"]
    ) == 2


def test_clique_subcommand(tmp_path, capsys):
    p = tmp_path / "k4.col"
    instances.save_dimacs(instances.complete_graph(4), p)
    assert main(["clique", str(p)]) == 0
    assert "clique_number 4" in capsys.readouterr().out


def test_qpbound_subcommand(tmp_path, capsys):
    inst = instances.gen_planted_qp(6, 3, -10.0, seed=0)
    p = tmp_path / "q.txt"
    p.write_text(format_matrix(inst.Q))
    assert main(["qpbound", str(p), "--eta", "0.1"]) == 0
    out = capsys.readouterr().out
    lo, hi = out.split("[")[1].split("]")[0].split(",")
    assert float(lo) - 1e-9 <= -10.0 <= float(hi) + 1e-9


def test_reductions_honour_max_iter(tmp_path):
    # one partition iteration per probe settles neither instance
    g = tmp_path / "k4.col"
    instances.save_dimacs(instances.complete_graph(4), g)
    assert main(["clique", str(g), "--max-iter", "1"]) == 2
    q = tmp_path / "q.txt"
    q.write_text(format_matrix(instances.gen_planted_qp(6, 3, -10.0, seed=0).Q))
    assert main(["qpbound", str(q), "--max-iter", "1"]) == 2


def test_flags_a_subcommand_does_not_read_are_rejected():
    for argv in (
        ["membership", "A.txt", "--max-iter", "5"],
        ["membership", "A.txt", "--alg", "1"],
        ["qpbound", "Q.txt", "--out", "x.json"],
        ["clique", "g.col", "--format", "json"],
        ["qpbound", "Q.txt", "--budget", "5"],
    ):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)


def test_eps_reaches_the_partition_config():
    for argv in (["qpbound", "Q.txt"], ["clique", "g.col"]):
        args = build_parser().parse_args(argv + ["--eps", "1e-6"])
        assert _copo_config(args).eps_alpha == 1e-6


def test_gen_roundtrip(tmp_path):
    out = tmp_path / "a.txt"
    assert main(["gen", "spn", "--n", "6", "--seed", "9", "--out", str(out)]) == 0
    from conekit.linalg import load_matrix

    a = load_matrix(out)
    b, _, _ = instances.gen_random_spn(6, 9)
    assert np.allclose(a, b)

    gout = tmp_path / "g.col"
    assert main(
        ["gen", "gnp", "--n", "8", "--p", "0.4", "--seed", "3", "--out", str(gout)]
    ) == 0
    g = instances.load_dimacs(gout)
    assert g.n == 8


def test_runrecord_roundtrip_json_and_csv():
    rec = RunRecord(
        command="bench",
        input_digest="abc123",
        config={"cone": "F+-", "row": 3},
        outcome="member",
        alpha_star=0.25,
        certificate=[0.5, 0.5],
        iterations=7,
        lp_calls=2,
        wall_time=0.125,
        seed="42/3",
    )
    # None fields are empty CSV cells
    empty = RunRecord(
        command="copositive",
        input_digest="abc123",
        config={"cone": "N", "alg": 2},
        outcome="inconclusive",
        alpha_star=None,
        certificate=None,
        iterations=10,
        wall_time=0.5,
    )
    for r in (rec, empty):
        assert RunRecord.from_obj(json.loads(json.dumps(r.to_obj()))) == r

    buf = io.StringIO()
    write_records([rec, empty], "csv", buf)
    assert buf.getvalue().splitlines() == [
        "command,input_digest,config,outcome,alpha_star,certificate,iterations,"
        "lp_calls,wall_time,seed,generator_id",
        'bench,abc123,"{""cone"": ""F+-"", ""row"": 3}",member,0.25,"[0.5, 0.5]",'
        "7,2,0.125,42/3,numpy-pcg64",
        'copositive,abc123,"{""alg"": 2, ""cone"": ""N""}",inconclusive,,,10,0,0.5,,'
        "numpy-pcg64",
    ]
    assert read_records_csv(buf.getvalue()) == [rec, empty]


def _suite(tmp_path, rows, seed=11):
    p = tmp_path / "suite.json"
    p.write_text(json.dumps({"seed": seed, "rows": rows}))
    return str(p)


def test_bench_row_count_and_summary(tmp_path):
    suite = _suite(
        tmp_path,
        [
            {
                "instance": {"kind": "spn", "n": 5},
                "task": "membership",
                "cone": c,
                "repeat": 4,
            }
            for c in ("H", "G", "F+", "F+-")
        ],
    )
    out = tmp_path / "bench.csv"
    rc = main(["bench", suite, "--out", str(out)])
    assert rc in (0, 2)
    records = read_records_csv(out.read_text())
    bench_rows = [r for r in records if r.command == "bench"]
    summary_rows = [r for r in records if r.command == "summary"]
    assert len(bench_rows) == 16
    assert {r.config["cone"] for r in summary_rows} == {"H", "G", "F+", "F+-"}


def test_bench_determinism_modulo_wall_time(tmp_path):
    suite = _suite(
        tmp_path,
        [
            {"instance": {"kind": "spn", "n": 5}, "task": "membership",
             "cone": "F+-", "repeat": 3},
            {"instance": {"kind": "kgamma", "n": 4, "gamma": 4.5},
             "task": "copositive", "cone": "F+-"},
        ],
    )
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        main(["bench", suite, "--out", str(out)])
        recs = read_records_csv(out.read_text())
        for r in recs:
            r.wall_time = 0.0
        outs.append(recs)
    assert outs[0] == outs[1]


def test_bench_inconclusive_exit(tmp_path):
    suite = _suite(
        tmp_path,
        [
            {"instance": {"kind": "kgamma", "n": 4, "gamma": 4.0},
             "task": "copositive", "cone": "N", "max_iter": 10},
        ],
    )
    assert main(["bench", suite]) == 2


def test_bench_bad_suite_errors(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    assert main(["bench", str(p)]) == 1
