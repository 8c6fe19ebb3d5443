import csv
import io
import itertools
import json
import shlex
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from conekit import cli, cones, instances, lp
from conekit.cli import (
    RunRecord,
    build_parser,
    main,
    write_records,
)
from conekit.linalg import format_matrix, load_matrix

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


def json_records(text):
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def csv_records(text):
    return list(csv.DictReader(io.StringIO(text)))


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


def test_membership_unknown_cone_errors(m1_path, tmp_path, capsys):
    every, partition = "N,DD,H,G,F+,F+-,L", "N,H,G,F+,F+-"
    graph = tmp_path / "k3.col"
    graph.write_text(instances.format_dimacs(instances.complete_graph(3)))
    cases = [
        (["membership", m1_path, "--cone", "ZZ"], every),
        (["membership", m1_path, "--cone", "H,ZZ"], every),
        (["copositive", m1_path, "--cone", "X"], partition),
        (["copositive", m1_path, "--cone", "DD"], partition),
        (["copositive", m1_path, "--cone", "F+-,G"], partition),
        (["qpbound", m1_path, "--cone", "L"], partition),
        (["clique", str(graph), "--cone", "X"], partition),
    ]
    for task, accepted in (("membership", every), ("copositive", partition)):
        p = tmp_path / f"{task}.json"
        row = {"instance": {"kind": "spn", "n": 4}, "task": task, "cone": "X"}
        p.write_text(json.dumps({"rows": [row]}))
        cases.append((["bench", str(p)], accepted))
    for argv, accepted in cases:
        assert main(argv) == 1, argv
        err = capsys.readouterr().err
        assert "unknown cone" in err and f"choose from {accepted}" in err, argv


def test_membership_records_one_lp_per_lp_cone(m1_path, capsys):
    assert main(["membership", m1_path, "--format", "json"]) == 0
    records = json_records(capsys.readouterr().out)
    lp_calls = {r["config"]["cone"]: r["lp_calls"] for r in records}
    assert lp_calls == {"N": 0, "DD": 0, "H": 0, "G": 1, "F+": 1, "F+-": 1, "L": 1}


def test_membership_table_names_each_cone(m1_path, capsys):
    assert main(["membership", m1_path, "--cone", "H,G"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[:2] for line in lines] == [["membership", "cone=H"],
                                                    ["membership", "cone=G"]]


@pytest.mark.parametrize("flags, solves", [(["--cone", "G,F+,F+-"], 1), ([], 2)],
                         ids=["lp-families", "default"])
def test_membership_is_one_report(flags, solves, tmp_path, monkeypatch, capsys):
    # one request is one membership_report: one eigendecomposition, G, F+
    # and F+- as the stages of one simplex (and L's LP by default), and one
    # record per verdict, in CONE_ORDER, on the report's clock
    path = tmp_path / "a.txt"
    path.write_text(format_matrix(instances.gen_random_spn(16, 0)[0]))
    a = load_matrix(str(path))
    wanted = flags[1].split(",") if flags else list(cli.CONE_FLAGS)
    reference = cones.membership_report(a, [cli.CONE_FLAGS[f] for f in wanted])
    calls = {"report": 0, "eigen": 0, "solve": 0}

    def counted(name, run):
        def spy(*args, **kwargs):
            calls[name] += 1
            return run(*args, **kwargs)
        return spy

    monkeypatch.setattr(cones, "membership_report",
                        counted("report", cones.membership_report))
    monkeypatch.setattr(cones, "eigen_decompose", counted("eigen", cones.eigen_decompose))
    monkeypatch.setattr(lp, "solve", counted("solve", lp.solve))
    assert main(["membership", str(path), *flags, "--format", "json"]) == 0
    assert calls == {"report": 1, "eigen": 1, "solve": solves}
    records = json_records(capsys.readouterr().out)
    assert [(r["config"]["cone"], r["outcome"], r["alpha_star"]) for r in records] == [
        (f, v.status, v.alpha_star) for f, v in zip(wanted, reference)]
    assert len({r["wall_time"] for r in records}) == 1


def test_copositive_exit_codes(tmp_path):
    k5 = instances.max_clique_matrix(instances.complete_graph(5), 5.5)
    p = tmp_path / "b55.txt"
    p.write_text(format_matrix(k5))
    assert main(["copositive", str(p)]) == 0

    k5 = instances.max_clique_matrix(instances.complete_graph(5), 4.5)
    p.write_text(format_matrix(k5))
    out = tmp_path / "rec.jsonl"
    assert main(["copositive", str(p), "--format", "json", "--out", str(out)]) == 0
    rec = json_records(out.read_text())[0]
    assert rec["outcome"] == "not_copositive"
    assert rec["certificate"] is not None
    v = np.array(rec["certificate"])
    assert float(v @ k5 @ v) < 0.0

    # boundary matrix, entrywise family, tiny budget: inconclusive
    k5 = instances.max_clique_matrix(instances.complete_graph(5), 5.0)
    p.write_text(format_matrix(k5))
    assert main(
        ["copositive", str(p), "--cone", "N", "--max-iter", "20"]
    ) == 2

    # an edge too short to bisect ends the run inconclusive, not in an error
    k3 = instances.max_clique_matrix(instances.complete_graph(3), 3.0)
    p.write_text(format_matrix(k3))
    assert main(["copositive", str(p), "--cone", "N"]) == 2


def test_copositive_record_names_the_cone_and_budgets_that_ran(m1_path, capsys):
    # the cone by its flag, not as written, and CopoConfig's own budgets
    assert main(["copositive", m1_path, "--cone", " F+", "--format", "json"]) == 0
    (rec,) = json_records(capsys.readouterr().out)
    assert rec["config"] == {"cone": "F+", "max_iter": 1000000, "time_limit": 300.0}


def test_partition_flags_keep_no_copy_of_the_defaults():
    # an omitted flag is None, and CopoConfig fills in its own default
    args = build_parser().parse_args(["copositive", "a.txt"])
    assert (args.cone, args.max_iter, args.time_limit) == (None, None, None)


def test_clique_subcommand(tmp_path, capsys):
    p = tmp_path / "k4.col"
    p.write_text(instances.format_dimacs(instances.complete_graph(4)))
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
    # one partition cell settles neither instance; the default budget does.
    # The QP is E - A of the 5-cycle: its start, the barycentre, is a fixed
    # point of the replicator dynamics and sits above the minimum 1/2, so the
    # root cell cannot certify the level
    g = tmp_path / "g.col"
    g.write_text(instances.format_dimacs(instances.gen_gnp_graph(8, 0.5, seed=1)))
    assert main(["clique", str(g), "--max-iter", "1"]) == 2
    assert main(["clique", str(g)]) == 0
    c5 = instances.Graph(5, frozenset({(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)}))
    q = tmp_path / "q.txt"
    q.write_text(format_matrix(1.0 - c5.adjacency()))
    assert main(["qpbound", str(q), "--max-iter", "1"]) == 2
    assert main(["qpbound", str(q)]) == 0


def test_non_finite_time_limit_is_an_error(m1_path, tmp_path, capsys):
    # NaN would never meet the budget and prints as NaN, which is not JSON
    assert main(["copositive", m1_path, "--time-limit", "nan", "--format", "json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: time_limit must be positive and finite, got nan\n"
    row = {"instance": {"kind": "kgamma", "n": 4, "gamma": 4.5},
           "task": "copositive", "cone": "F+-", "time_limit": float("nan")}
    assert main(["bench", _suite(tmp_path, [row]), "--format", "json"]) == 1
    msg = "time_limit must be positive and finite, got nan (row 0)"
    assert capsys.readouterr().err == f"error: {msg}\n"


def test_flags_a_subcommand_does_not_read_are_rejected():
    for argv in (
        ["membership", "A.txt", "--max-iter", "5"],
        ["membership", "A.txt", "--alg", "1"],
        ["qpbound", "Q.txt", "--out", "x.json"],
        ["clique", "g.col", "--format", "json"],
        ["qpbound", "Q.txt", "--budget", "5"],
        ["membership", "A.txt", "--eps", "0.5"],
        ["copositive", "A.txt", "--eps", "0.5"],
        ["clique", "g.col", "--eps", "0.5"],
        ["qpbound", "Q.txt", "--eps", "0.5"],
    ):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)


def test_usage_errors_exit_1_and_help_exits_0(m1_path):
    # 2 means "inconclusive", so a typo must not read as an undecided run
    for args in (
        ("copositive", m1_path, "--bogus"),
        ("copositive", m1_path, "--eps", "0.5"),
        ("copositive", m1_path, "--alg", "3"),
        ("copositive",),
        ("frobnicate",),
        (),
    ):
        r = run_cli(*args)
        assert r.returncode == 1, args
        assert "usage:" in r.stderr and "error:" in r.stderr
    for args in (("--help",), ("copositive", "--help")):
        r = run_cli(*args)
        assert r.returncode == 0
        assert "usage:" in r.stdout


def test_gen_roundtrip(tmp_path, capsys):
    out = tmp_path / "a.txt"
    assert main(["gen", "spn", "--n", "6", "--seed", "9", "--out", str(out)]) == 0
    a = load_matrix(out)
    b, _, _ = instances.gen_random_spn(6, 9)
    assert np.allclose(a, b)

    gout = tmp_path / "g.col"
    assert main(
        ["gen", "gnp", "--n", "8", "--p", "0.4", "--seed", "3", "--out", str(gout)]
    ) == 0
    g = instances.load_dimacs(gout)
    assert g.n == 8

    argv = ["gen", "plantedqp", "--n", "6", "--support", "3", "--t", "-2.5",
            "--seed", "4", "--out", str(out)]
    assert main(argv) == 0
    q = instances.gen_planted_qp(6, 3, -2.5, seed=4).Q
    assert np.array_equal(load_matrix(out), q)  # bit for bit

    argv = ["gen", "gnp", "--n", "9", "--p", "0.2", "--clique", "5",
            "--seed", "7", "--out", str(gout)]
    assert main(argv) == 0
    adj = instances.load_dimacs(gout).adjacency()
    assert any(all(adj[i, j] for i, j in itertools.combinations(nodes, 2))
               for nodes in itertools.combinations(range(9), 5))

    capsys.readouterr()
    assert main(["gen", "spn", "--n", "4", "--seed", "2"]) == 0  # no --out
    assert capsys.readouterr().out == format_matrix(instances.gen_random_spn(4, 2)[0])


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
        config={"cone": "N", "max_iter": 10},
        outcome="inconclusive",
        alpha_star=None,
        certificate=None,
        iterations=10,
        wall_time=0.5,
    )
    for r in (rec, empty):
        assert RunRecord(**json.loads(json.dumps(asdict(r)))) == r

    buf = io.StringIO()
    write_records([rec, empty], "csv", buf)
    assert buf.getvalue().splitlines() == [
        "command,input_digest,config,outcome,alpha_star,certificate,iterations,"
        "lp_calls,wall_time,seed,generator_id",
        'bench,abc123,"{""cone"": ""F+-"", ""row"": 3}",member,0.25,"[0.5, 0.5]",'
        "7,2,0.125,42/3,numpy-pcg64",
        'copositive,abc123,"{""cone"": ""N"", ""max_iter"": 10}",inconclusive,,,10,0,0.5,,'
        "numpy-pcg64",
    ]


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
    records = csv_records(out.read_text())
    bench_rows = [r for r in records if r["command"] == "bench"]
    summary_rows = [r for r in records if r["command"] == "summary"]
    assert len(bench_rows) == 16
    cones = {json.loads(r["config"])["cone"] for r in summary_rows}
    assert cones == {"H", "G", "F+", "F+-"}


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
        recs = csv_records(out.read_text())
        for r in recs:
            del r["wall_time"]
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


def test_bench_empty_suite_errors(tmp_path, capsys):
    spn = {"kind": "spn", "n": 4}
    cases = [
        ("'rows'", []),
        ("'repeat'", [{"instance": spn, "repeat": 0}]),
        ("'repeat'", [{"instance": spn}, {"instance": spn, "repeat": -2}]),
    ]
    for field, rows in cases:
        for fmt in ("json", "csv"):
            assert main(["bench", _suite(tmp_path, rows), "--format", fmt]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"bench field {field}" in captured.err


def test_gen_gnp_rejects_bad_n_and_p(tmp_path, capsys):
    out = tmp_path / "g.col"
    for flags in (["--n", "0"], ["--n", "-3"], ["--n", "5", "--p", "1.7"],
                  ["--n", "5", "--p", "-0.1"], ["--n", "5", "--p", "nan"],
                  ["--n", "8", "--clique", "20"]):
        assert main(["gen", "gnp", *flags, "--out", str(out)]) == 1, flags
        err = capsys.readouterr().err
        assert "error:" in err
        clique = "clique size k must lie in [1, 8], got 20"
        assert (clique in err) == ("--clique" in flags)
        assert not out.exists()


def test_gen_plantedqp_refuses_a_non_finite_t(tmp_path, capsys):
    # the file of a non-finite t would hold nan or inf rows, which
    # load_matrix refuses; the generator refuses the t instead
    out = tmp_path / "q.txt"
    for t in ("nan", "inf", "-inf"):
        for where in ([], ["--out", str(out)]):
            assert main(["gen", "plantedqp", "--n", "3", f"--t={t}", *where]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: t must be finite, got {float(t)}\n"
            assert not out.exists()


def test_gen_seed_must_not_be_negative(tmp_path, monkeypatch, capsys):
    # refused with the flag's name before any generator draws
    drawn = []
    for name in ("gen_random_spn", "gen_planted_qp", "gen_gnp_graph"):
        monkeypatch.setattr(cli, name, lambda *args, **kw: drawn.append(args))
    out = tmp_path / "a.txt"
    for kind in ("spn", "plantedqp", "gnp"):
        assert main(["gen", kind, "--n", "4", "--seed", "-1", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: gen seed must be at least 0, got -1\n"
        assert not out.exists()
    assert drawn == []


def test_bench_file_path_must_be_a_string(tmp_path, m1_path, monkeypatch, capsys):
    # open() would take 0 or True as a file descriptor, and a list is a
    # TypeError: the row is refused before any row runs
    calls = []
    monkeypatch.setattr(cones, "membership_report",
                        lambda *args, **kw: calls.append(args))
    first = {"instance": {"kind": "spn", "n": 4}, "task": "membership", "cone": "H"}
    for path in (0, True, ["a"]):
        row = {"instance": {"kind": "file", "path": path}, "cone": "H"}
        assert main(["bench", _suite(tmp_path, [first, row])]) == 1, path
        captured = capsys.readouterr()
        assert captured.out == ""
        msg = f"bench field 'path' must be a string, got {path!r} (row 1)"
        assert captured.err == f"error: {msg}\n"
    assert calls == []
    monkeypatch.undo()
    row = {"instance": {"kind": "file", "path": m1_path}, "cone": "H"}
    suite = _suite(tmp_path, [row])
    assert main(["bench", suite, "--format", "json"]) == 0
    record = json_records(capsys.readouterr().out)[0]
    assert record["outcome"] == "member"
    assert record["input_digest"] == cli.matrix_digest(M1)


def test_bench_unknown_kind_and_task_error(tmp_path, capsys):
    spn = {"kind": "spn", "n": 4}
    for row, msg in (({"instance": {"kind": "grid", "n": 4}},
                      "unknown instance kind 'grid'"),
                     ({"instance": spn, "task": "solve"}, "unknown task 'solve'")):
        assert main(["bench", _suite(tmp_path, [row])]) == 1, row
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {msg} (row 0)\n"


def test_bench_non_finite_instance_is_refused_before_any_row_runs(
        tmp_path, monkeypatch, capsys):
    # json reads NaN and Infinity; std_qp_matrix checks Q, not Q - gamma E
    calls = []
    monkeypatch.setattr(cones, "membership_report",
                        lambda *args, **kw: calls.append(args))
    first = {"instance": {"kind": "spn", "n": 4}, "cone": "H"}
    qp = {"kind": "plantedqp", "n": 5, "support": 2, "t": -1.0}
    for inst in ({"kind": "kgamma", "n": 4, "gamma": float("nan")},
                 *({**qp, "gamma": g} for g in (float("nan"), float("inf"),
                                                -float("inf")))):
        row = {"instance": inst, "cone": "H"}
        assert main(["bench", _suite(tmp_path, [first, row])]) == 1, inst
        captured = capsys.readouterr()
        assert captured.out == ""
        msg = f"gamma must be finite, got {inst['gamma']} (row 1)"
        assert captured.err == f"error: {msg}\n"
    assert calls == []


def test_bench_infinite_kgamma_is_one_error_line(tmp_path, capsys):
    # gamma * (E - adjacency) would multiply inf by zeros and warn
    for gamma in (float("inf"), -float("inf")):
        row = {"instance": {"kind": "kgamma", "n": 4, "gamma": gamma}}
        assert main(["bench", _suite(tmp_path, [row])]) == 1, gamma
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: gamma must be finite, got {gamma} (row 0)\n"


def test_bench_kgamma_size_must_be_positive(tmp_path, capsys):
    # the graph refuses its size before numpy or as_sym_matrix sees it
    for n in (-1, 0):
        row = {"instance": {"kind": "kgamma", "n": n, "gamma": 1.5}}
        assert main(["bench", _suite(tmp_path, [row])]) == 1, n
        captured = capsys.readouterr()
        assert captured.out == ""
        msg = f"graph size n must be at least 1, got {n} (row 0)"
        assert captured.err == f"error: {msg}\n"


def test_bench_unknown_alg_errors(tmp_path, capsys):
    # the field is gone: a row that still sets it, 1 and 2 included, would
    # silently run the one cell test, so it is refused, as every field that
    # no reader reads is, and no row runs
    k4 = {"kind": "kgamma", "n": 4, "gamma": 4.5}
    for alg in (0, 1, 2, 3, "2", None):
        for row in ({"instance": k4, "task": "copositive", "cone": "F+-", "alg": alg},
                    {"instance": k4, "task": "membership", "alg": alg}):
            assert main(["bench", _suite(tmp_path, [row]), "--format", "json"]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: bench field 'alg' is not read (row 0)\n"


def test_bench_fields_that_nothing_reads_are_refused(tmp_path, m1_path, monkeypatch,
                                                     capsys):
    # a misspelled field fell back to its default unseen: this suite ran
    # with max_iter 1,000,000 and time_limit 300.  A field is refused at
    # each level that does not read it: the suite, the row for its task and
    # the instance for its kind, before any row runs
    calls = []
    monkeypatch.setattr(cli, "test_copositive", lambda *args: calls.append(args))
    monkeypatch.setattr(cones, "membership_report", lambda *args: calls.append(args))
    spn = {"kind": "spn", "n": 4}
    k4 = {"kind": "kgamma", "n": 4, "gamma": 4.5}
    qp = {"kind": "plantedqp", "n": 5, "support": 2, "t": -1.0}
    copositive = {"instance": spn, "task": "copositive"}
    first = {"instance": spn, "cone": "H"}
    cases = [
        ({"sede": 5, "rows": [{**copositive, "instance": {**spn, "gama": 3},
                               "max_iters": 1, "time_limt": 0.001}]}, "sede", ""),
        ({"rows": [first, {**copositive, "instance": {**spn, "gama": 3},
                           "max_iters": 1}]}, "gama", " (row 1)"),
        ({"rows": [first, {**copositive, "max_iters": 1}]}, "max_iters", " (row 1)"),
        ({"rows": [first, {**copositive, "time_limt": 1e-3}]}, "time_limt", " (row 1)"),
    ]
    # fields that another task or kind reads
    for name, value in (("max_iter", 5), ("time_limit", 1.0)):
        cases.append(({"rows": [first, {**first, name: value}]}, name, " (row 1)"))
        cases.append(({"rows": [{**first, "task": "membership", name: value}]},
                      name, " (row 0)"))
    for inst, name, value in ((spn, "gamma", 4.5), (spn, "path", "a.txt"),
                              (k4, "support", 2), (qp, "path", "a.txt"),
                              ({"kind": "file", "path": m1_path}, "n", 4)):
        row = {"instance": {**inst, name: value}, "cone": "H"}
        cases.append(({"rows": [first, row]}, name, " (row 1)"))
    p = tmp_path / "suite.json"
    for suite, name, row in cases:
        p.write_text(json.dumps(suite))
        assert main(["bench", str(p), "--format", "json"]) == 1, suite
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: bench field {name!r} is not read{row}\n", suite
    assert calls == []


def test_alg_is_an_unknown_flag_of_every_partition_command(tmp_path, m1_path, capsys):
    # --alg chose alg 1 or 2; the one cell test has no such choice, so the
    # flag is a usage error (exit 1), not silently ignored
    graph = tmp_path / "g.col"
    graph.write_text(instances.format_dimacs(instances.gen_gnp_graph(5, 0.5, seed=1)))
    for argv in (["copositive", m1_path], ["clique", str(graph)], ["qpbound", m1_path]):
        for alg in ("1", "2"):
            with pytest.raises(SystemExit) as exc:
                main([*argv, "--alg", alg])
            assert exc.value.code == 1
            assert "unrecognized arguments: --alg" in capsys.readouterr().err


def test_bench_integer_fields_reject_other_values(tmp_path, capsys):
    k4 = {"kind": "kgamma", "n": 4, "gamma": 4.5}
    qp = {"kind": "plantedqp", "n": 5, "support": 2, "t": -1.0}
    row = {"instance": k4, "task": "copositive", "max_iter": 20}
    cases = [("seed", 1.5, {"seed": 1.5, "rows": [row]})]
    for field in ("max_iter", "repeat"):
        for value in (1.9, True):
            cases.append((field, value, {"rows": [{**row, field: value}]}))
    for field, inst in (("n", k4), ("n", qp), ("support", qp)):
        for value in (4.7, False):
            bad = {**row, "instance": {**inst, field: value}}
            cases.append((field, value, {"rows": [bad]}))
    p = tmp_path / "suite.json"
    for field, value, suite in cases:
        p.write_text(json.dumps(suite))
        assert main(["bench", str(p), "--format", "json"]) == 1, suite
        captured = capsys.readouterr()
        assert captured.out == ""
        msg = f"bench field {field!r} must be an integer, got {value!r}"
        assert msg in captured.err, suite
    # a suite with several bad fields names the first one read
    p.write_text(json.dumps({"seed": 1.5, "rows": [
        {"instance": {"kind": "kgamma", "n": 4.7, "gamma": 4.5},
         "task": "copositive", "max_iter": 2.5, "repeat": 1.9}]}))
    assert main(["bench", str(p)]) == 1
    assert "bench field 'seed' must be an integer" in capsys.readouterr().err


def test_bench_float_fields_reject_other_values(tmp_path, capsys):
    k4 = {"kind": "kgamma", "n": 4, "gamma": 4.5}
    qp = {"kind": "plantedqp", "n": 5, "support": 2, "t": -1.0}
    row = {"instance": k4, "task": "copositive", "max_iter": 20}
    cases = []
    for value in (None, True, "1.5", [1.5]):
        cases.append(("time_limit", value, {**row, "time_limit": value}))
        for field, inst in (("gamma", k4), ("gamma", qp), ("t", qp)):
            cases.append((field, value, {**row, "instance": {**inst, field: value}}))
    p = tmp_path / "suite.json"
    for field, value, bad in cases:
        p.write_text(json.dumps({"rows": [bad]}))
        assert main(["bench", str(p), "--format", "json"]) == 1, bad
        captured = capsys.readouterr()
        assert captured.out == ""
        msg = f"bench field {field!r} must be a number, got {value!r} (row 0)"
        assert captured.err == f"error: {msg}\n"
    # a whole number is a number
    p.write_text(json.dumps({"rows": [{**row, "instance": {**k4, "gamma": 5}}]}))
    assert main(["bench", str(p), "--format", "json"]) == 0
    assert '"gamma": 5' in capsys.readouterr().out


def test_bench_a_whole_number_beyond_the_float_range_is_one_error_line(
        tmp_path, capsys):
    # float() of a 401-digit integer raised an OverflowError, which ended
    # the run with a traceback instead of an error line
    k4 = {"kind": "kgamma", "n": 4, "gamma": 4.5}
    qp = {"kind": "plantedqp", "n": 5, "support": 2, "t": -1.0}
    row = {"instance": k4, "task": "copositive", "max_iter": 20}
    p = tmp_path / "suite.json"
    for value in (10**400, -10**400):
        for field, bad in (("time_limit", {**row, "time_limit": value}),
                           ("gamma", {**row, "instance": {**k4, "gamma": value}}),
                           ("gamma", {**row, "instance": {**qp, "gamma": value}}),
                           ("t", {**row, "instance": {**qp, "t": value}})):
            p.write_text(json.dumps({"rows": [bad]}))
            assert main(["bench", str(p), "--format", "json"]) == 1, bad
            captured = capsys.readouterr()
            assert captured.out == ""
            msg = f"bench field {field!r} must be finite, got {value} (row 0)"
            assert captured.err == f"error: {msg}\n"


def test_bench_missing_fields_are_named_with_their_row(
        tmp_path, m1_path, monkeypatch, capsys):
    # each required field dropped in turn; a row is named by its place in
    # rows as written, not by its place after the repeat of the row before
    calls = []
    monkeypatch.setattr(cones, "membership_report",
                        lambda *args, **kw: calls.append(args))
    first = {"instance": {"kind": "spn", "n": 4}, "cone": "H", "repeat": 3}
    cases = [("rows", {"seed": 2}, ""),
             ("instance", {"rows": [first, {"cone": "H"}]}, " (row 1)")]
    for inst in ({"kind": "spn", "n": 4},
                 {"kind": "kgamma", "n": 4, "gamma": 4.5},
                 {"kind": "plantedqp", "n": 5, "support": 2, "t": -1.0},
                 {"kind": "file", "path": m1_path}):
        for name in inst:
            dropped = {k: v for k, v in inst.items() if k != name}
            row = {"instance": dropped, "cone": "H"}
            cases.append((name, {"rows": [first, row]}, " (row 1)"))
    p = tmp_path / "suite.json"
    for name, suite, row in cases:
        p.write_text(json.dumps(suite))
        assert main(["bench", str(p), "--format", "json"]) == 1, suite
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: bench field {name!r} is missing{row}\n"
    assert calls == []


def test_bench_seed_must_not_be_negative(tmp_path, monkeypatch, capsys):
    # the suite's seed and --seed alike are refused before any row is built
    built = []
    monkeypatch.setattr(cli, "gen_random_spn",
                        lambda *args: built.append(args) or (M1,))
    row = {"instance": {"kind": "spn", "n": 4}, "cone": "H"}
    p = tmp_path / "suite.json"
    for seed, suite, flags in ((-1, {"seed": -1, "rows": [row]}, []),
                               (-5, {"rows": [row]}, ["--seed", "-5"])):
        p.write_text(json.dumps(suite))
        assert main(["bench", str(p), *flags]) == 1, seed
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: bench seed must be at least 0, got {seed}\n"
    assert built == []


def test_bench_suite_seed_is_checked_under_a_seed_flag(tmp_path, capsys):
    # --seed replaces the suite's seed, but a seed of the wrong kind is
    # still an error, as every other field of the wrong kind is
    row = {"instance": {"kind": "spn", "n": 4}, "cone": "H"}
    p = tmp_path / "suite.json"
    p.write_text(json.dumps({"seed": "x", "rows": [row]}))
    for flags in ([], ["--seed", "1"]):
        assert main(["bench", str(p), *flags]) == 1, flags
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: bench field 'seed' must be an integer, got 'x'\n"


def test_bench_string_fields_reject_other_values(tmp_path, capsys):
    spn = {"kind": "spn", "n": 4}
    for value in (7, None, ["F+-"]):
        for field, row in (("task", {"instance": spn, "task": value}),
                           ("cone", {"instance": spn, "cone": value}),
                           ("kind", {"instance": {**spn, "kind": value}})):
            assert main(["bench", _suite(tmp_path, [row])]) == 1, row
            captured = capsys.readouterr()
            assert captured.out == ""
            msg = f"bench field {field!r} must be a string, got {value!r} (row 0)"
            assert captured.err == f"error: {msg}\n"


def test_a_key_error_inside_a_command_propagates(m1_path, monkeypatch):
    # no suite read raises KeyError, so one that escapes a command is a bug
    # whose traceback should show, not an error line
    def broken(path):
        raise KeyError("x")

    monkeypatch.setattr(cli, "load_matrix", broken)
    with pytest.raises(KeyError):
        main(["membership", m1_path])


def test_bench_malformed_shapes_error(tmp_path, capsys):
    # a suite, a row or an instance that is not a JSON object
    p = tmp_path / "suite.json"
    for suite in ([1], {"rows": [5]}, {"rows": [{"instance": 5}]}):
        p.write_text(json.dumps(suite))
        assert main(["bench", str(p)]) == 1, suite
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: bench ")
        assert len(captured.err.splitlines()) == 1
        assert "must be a JSON object" in captured.err


def test_bench_validates_every_row_before_running(tmp_path, monkeypatch, capsys):
    calls = []

    def counted(name, run):
        return lambda *args, **kwargs: calls.append(name) or run(*args, **kwargs)

    monkeypatch.setattr(cones, "membership_report",
                        counted("membership", cones.membership_report))
    monkeypatch.setattr(cli, "test_copositive",
                        counted("copositive", cli.test_copositive))
    k4 = {"kind": "kgamma", "n": 4, "gamma": 4.5}
    rows = [
        {"instance": {"kind": "spn", "n": 4}, "task": "membership", "cone": "H"},
        {"instance": k4, "task": "copositive", "cone": "F+-"},
    ]
    bad_last = [*rows, {"instance": k4, "task": "copositive", "alg": 1}]
    assert main(["bench", _suite(tmp_path, bad_last), "--format", "json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "bench field 'alg' is not read (row 2)" in captured.err
    assert calls == []
    # the counters see the runs of a valid suite
    assert main(["bench", _suite(tmp_path, rows), "--format", "json"]) == 0
    assert calls == ["membership", "copositive"]


def test_readme_cli_lines_parse():
    # every command of README's CLI block is one the parser accepts
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n")[1].split("\n## ")[0]
    lines = [ln for ln in block.splitlines() if ln.startswith("conekit ")]
    assert len(lines) == 7
    for line in lines:
        args = build_parser().parse_args(shlex.split(line)[1:])
        assert args.func.__name__ == f"cmd_{args.subcommand}"


def test_bench_summary_per_task_and_cone(tmp_path):
    spn = {"kind": "spn", "n": 4}
    suite = _suite(
        tmp_path,
        [
            {"instance": spn, "task": "membership", "cone": "F+-", "repeat": 3},
            {"instance": spn, "task": "copositive", "cone": "F+-", "repeat": 2},
            {"instance": spn, "task": "copositive", "cone": "N", "repeat": 2},
            # a cone flag as written: its records and summary name the cone
            {"instance": spn, "task": "copositive", "cone": " F+-"},
        ],
    )
    out = tmp_path / "bench.json"
    main(["bench", suite, "--format", "json", "--out", str(out)])
    summary = [r for r in json_records(out.read_text()) if r["command"] == "summary"]
    assert sorted((r["config"]["task"], r["config"]["cone"], r["config"]["runs"])
                  for r in summary) == [
        ("copositive", "F+-", 3), ("copositive", "N", 2), ("membership", "F+-", 3)
    ]
    assert all(set(r["config"]) == {"task", "cone", "runs"} for r in summary)


def test_write_records_refuses_an_unknown_format():
    with pytest.raises(ValueError, match="unknown format 'xml'"):
        write_records([], "xml", io.StringIO())


def test_a_closed_pipe_exits_1_without_a_message(monkeypatch, capsys):
    # `conekit gen ... | head -c1` closes stdout under the writer
    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert main(["gen", "spn", "--n", "3"]) == cli.EXIT_ERROR
    assert capsys.readouterr().err == ""
