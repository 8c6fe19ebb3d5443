import importlib.util
import platform
import re
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conekit import copositivity, instances
from conekit import lp as lpmod
from conekit.cones import build_lp, membership_report, sd_basis
from conekit.copositivity import CopoConfig
from conekit.instances import (
    clique_number,
    gen_gnp_graph,
    gen_planted_qp,
    gen_random_spn,
    max_clique_matrix,
    qp_optimum,
)
from conekit.linalg import eigen_decompose, unit_scale
from conekit.lp import LinearProgram, solve

FINGERPRINT = Path(__file__).resolve().parents[1] / "tools" / "fingerprint.py"
LAYERTRACE = FINGERPRINT.parents[1] / "perfbench" / "layertrace.py"


def test_fingerprint_prints_its_six_sections():
    # the tool reads library fields by name, so a renamed field breaks it
    r = subprocess.run(
        [sys.executable, str(FINGERPRINT)], capture_output=True, text=True
    )
    assert r.returncode == 0, r.stderr
    lines = r.stdout.splitlines()
    sections = [re.match(r"(\w+) +(\d+) ([0-9a-f]{64})\b", line) for line in lines]
    assert all(sections), lines
    counts = {m[1]: int(m[2]) for m in sections}
    assert counts == {
        "partition": 130, "report": 322, "bracket": 12,
        "clique": 6, "lp": 77, "cli": 16,
    }
    assert lines[0].endswith("certificates exact: 40/40")
    assert lines[1].endswith("witness ok: 84/84")
    assert "t in [lo, hi]: 12/12" in lines[2]
    assert re.match(r"fingerprint: [\d.]+ s$", r.stderr.strip())


def test_fingerprint_compares_with_a_git_revision():
    root = FINGERPRINT.parents[1]
    head = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                          capture_output=True)
    if head.returncode:
        pytest.skip("the source tree is not a git checkout")
    r = subprocess.run(
        [sys.executable, str(FINGERPRINT), "--parent", "HEAD"],
        capture_output=True, text=True,
    )
    # a section that differs also prints the details of both trees, and
    # under them, indented, the records that differ
    lines = [line for line in r.stdout.splitlines() if not line.startswith("  ")]
    rows = [re.fullmatch(r"(\w+) +parent ([0-9a-f]{64}) tree ([0-9a-f]{64}) "
                         r"(same|DIFFERS) ?(\(parent: .+; tree: .+\))?", line)
            for line in lines]
    assert all(rows), (lines, r.stderr)
    assert [m[1] for m in rows] == [
        "partition", "report", "bracket", "clique", "lp", "cli"]
    for m in rows:
        assert (m[2] == m[3]) == (m[4] == "same") == (m[5] is None)
    # uncommitted changes to src/ may move digests; the exit code says so
    assert r.returncode == int(any(m[4] == "DIFFERS" for m in rows))


def _load_tool(name, monkeypatch):
    # a tool run as a script finds its sibling modules on its own directory
    monkeypatch.syspath_prepend(str(FINGERPRINT.parent))
    path = FINGERPRINT.parent / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_fingerprint_names_the_records_that_differ_and_their_deviation(monkeypatch):
    # a moved digest said only that a section differed, so explaining it
    # took a script of its own that compared both trees' outputs
    tool = _load_tool("fingerprint", monkeypatch)
    s = np.array([[2.0, -1.0], [-1.0, 4.0]])
    moved = s.copy()
    moved[1, 1] += 2.0**-48
    parent = [("matrix 0 G", ["member", 0.5, s]), ("matrix 0 L", ["member", None, s]),
              ("matrix 1 G", ["member", -0.0, s]), ("qp 0", [float("nan"), 1.0]),
              ("run 0 gen", [1, "error: x\n"])]
    tree = [("matrix 0 G", ["member", 0.5, moved]),
            ("matrix 0 L", ["not_identified", None, s]),
            ("matrix 1 G", ["member", 0.0, s]), ("qp 0", [2.0, 1.0]),
            ("run 0 gen", [1, "error: x\n"])]
    # a change that is not a float's comes first, then the largest float
    # deviation, relative to the record's largest float; -0.0 -> 0.0 moves
    # the bits by 0
    assert tool.differences(parent, tree) == [
        "  4 of 5 records differ, the largest relative deviation first",
        "  matrix 0 L: a value that is not a float, or a shape",
        "  qp 0: inf",
        f"  matrix 0 G: {2.0**-48 / (4.0 + 2.0**-48):.3g}",
        "  matrix 1 G: 0",
    ]
    many = [(f"lp {i}", [float(i)]) for i in range(tool.SHOWN + 2)]
    lines = tool.differences(many, [(label, [v[0] + 1.0]) for label, v in many])
    assert lines[0].startswith(f"  {tool.SHOWN + 2} of {tool.SHOWN + 2} records")
    assert len(lines) == tool.SHOWN + 2 and lines[-1] == "  ... and 2 more"
    assert tool.differences(many, many[:-1])[0].startswith(
        f"  0 of {tool.SHOWN + 1} records differ (the parent has {tool.SHOWN + 2})")
    # records are paired by label, so a dropped record moves no later one,
    # and each label that one run alone has is named
    dropped = many[:2] + many[3:]
    assert tool.differences(many, dropped)[1:] == ["  lp 2: only in the parent"]
    assert tool.differences(dropped, many)[1:] == ["  lp 2: only in the tree"]


def test_fingerprint_drops_the_held_columns_lp_solve_holds(monkeypatch):
    # lp.solve reads each held set as np.arange(n_vars)[cols], so a boolean
    # mask or a slice holds the same columns as their indices; the
    # fingerprint must drop those columns of y, not y[0] and y[1] for a mask
    tool = _load_tool("fingerprint", monkeypatch)
    prog = LinearProgram([1.0, 1.0, 1.0, 1.0], np.eye(4), [1.0, 2.0, 3.0, 4.0])
    mask = np.array([False, True, True, False])
    for held in ([[1, 2]], [mask], [slice(1, 3)], [[1], np.arange(4) == 2]):
        sol = solve(prog, held=held)
        assert (sol.stages[0].objective_value, sol.objective_value) == (5.0, 10.0)
        x = tool._lp_fields(sol.stages[0], held)[1]
        assert x.tolist() == [1.0, 4.0], held


def test_bench_pairs_summary_counts_wins_in_each_metrics_direction(monkeypatch):
    tool = _load_tool("bench_pairs", monkeypatch)

    def run(p50, rate):
        return {"metrics": {"instance_p50_s": p50, "instances_per_s": rate}}

    pairs = [
        {"parent": run(1.0, 10.0), "change": run(0.8, 12.0)},
        {"parent": run(1.2, 9.0), "change": run(0.9, 8.0)},
        {"parent": run(1.1, 11.0), "change": run(1.3, 13.0)},
    ]
    better = {"instances_per_s": "higher"}
    summary = tool.summarize(pairs, better)
    p50 = summary["instance_p50_s"]
    assert p50["change_wins"] == "2/3"
    assert p50["parent"]["median"] == 1.1 and p50["change"]["median"] == 0.9
    assert p50["parent"]["runs"] == [1.0, 1.2, 1.1]
    assert p50["median_change_over_parent"] == 0.9 / 1.1
    assert summary["instances_per_s"]["change_wins"] == "2/3"
    assert tool.summarize(pairs[:1], better)["instance_p50_s"]["parent"]["q1"] == 1.0


def test_bench_pairs_resolves_a_metric_by_wins_and_the_parents_spread(monkeypatch):
    # parent quartiles 0.98 and 1.02: a gap of 0.1 resolves, 0.01 does not
    tool = _load_tool("bench_pairs", monkeypatch)
    parent = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]
    cases = {
        # 9 wins and a loss, medians 0.1 apart
        "resolved": [p - 0.1 for p in parent[:9]] + [parent[9] + 0.01],
        # 10 wins, but the medians are only 0.01 apart
        "spread": [p - 0.01 for p in parent],
        # 8 wins and 2 ties, which count for neither side
        "wins": [p - 0.1 for p in parent[:8]] + parent[8:],
    }
    pairs = [
        {"parent": {"metrics": {k: p for k in cases}},
         "change": {"metrics": {k: v[i] for k, v in cases.items()}}}
        for i, p in enumerate(parent)
    ]
    summary = tool.summarize(pairs, {})
    assert summary["resolved"]["change_wins"] == "9/10"
    assert summary["spread"]["change_wins"] == "10/10"
    assert summary["wins"]["change_wins"] == "8/10"
    assert {k: row["resolved"] for k, row in summary.items()} == {
        "resolved": True, "spread": False, "wins": False}


def test_bench_pairs_rejects_a_run_without_pairs(capsys, monkeypatch):
    tool = _load_tool("bench_pairs", monkeypatch)
    with pytest.raises(SystemExit):
        tool.main(["--parent", "HEAD", "--workload", "detect", "--pairs", "0"])
    assert "--pairs must be at least 1" in capsys.readouterr().err


def test_gitrev_extracts_a_revision_and_refuses_an_unknown_one(monkeypatch):
    gitrev = _load_tool("gitrev", monkeypatch)
    head = subprocess.run(["git", "-C", str(gitrev.ROOT), "rev-parse", "HEAD"],
                          capture_output=True)
    if head.returncode:
        pytest.skip("the source tree is not a git checkout")
    with gitrev.extracted("HEAD", "tools") as tree:
        assert (tree / "tools" / "fingerprint.py").is_file()
        assert not (tree / "src").exists()
    assert not tree.exists()
    with pytest.raises(RuntimeError, match="git archive no-such-rev failed"):
        with gitrev.extracted("no-such-rev"):
            pass


def test_gitrev_removes_the_tree_when_sigterm_ends_the_process():
    root = FINGERPRINT.parents[1]
    head = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                          capture_output=True)
    if head.returncode:
        pytest.skip("the source tree is not a git checkout")
    script = (
        "import sys, time\n"
        f"sys.path.insert(0, {str(FINGERPRINT.parent)!r})\n"
        "import gitrev\n"
        "with gitrev.extracted('HEAD', 'tools') as tree:\n"
        "    print(tree, flush=True)\n"
        "    time.sleep(60)\n"
    )
    proc = subprocess.Popen([sys.executable, "-c", script], stdout=subprocess.PIPE,
                            text=True)
    try:
        tree = Path(proc.stdout.readline().strip())
        assert (tree / "tools" / "gitrev.py").is_file()
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == 128 + signal.SIGTERM
    finally:
        proc.kill()
        proc.stdout.close()
    assert not tree.exists()


def _layertrace():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
    return layertrace


def test_every_name_the_tracer_wraps_is_a_conekit_callable():
    # the benchmark's traced mode raises a TraceError on a missing name, so
    # a library change that drops one must fail here first
    layertrace = _layertrace()
    names = [entry[:2] for entry in layertrace.TRACED] + [layertrace.STANDARD_FORM]
    for module, name in names:
        fn = getattr(importlib.import_module(f"conekit.{module}"), name, None)
        assert callable(fn), f"conekit.{module}.{name}"


def test_tracer_counts_the_rows_of_each_lp_solve():
    # the benchmark's tracer wraps lp.solve and lp._to_standard_form by name:
    # a detect-style report at n = 6 solves one simplex for G, F+ and F+-,
    # with 21 pair rows and the cap row, and the 6-row L test LP
    layertrace = _layertrace()
    with layertrace.Tracer() as tracer:
        tracer.run_instance(0, membership_report, gen_random_spn(6, 0)[0])
    metrics = layertrace.layer_metrics(tracer.spans)
    assert metrics["lp.solve.calls"] == 2
    assert metrics["lp.rows_per_solve"] == (22 + 6) / 2


def test_tracer_follows_the_partition_of_both_reductions():
    # the reductions call _partition, not test_copositive, so the tracer
    # sees no probe span; every cell LP, one stage or two, is one build_lp
    # and one lp.solve, and none goes through check_membership_lp, whose
    # span reads its pair argument
    layertrace = _layertrace()
    qp = gen_planted_qp(8, 4, -5.0, 2)
    with layertrace.Tracer() as tracer:
        tracer.run_instance(0, qp_optimum, qp.Q, None, 0.001)
        tracer.run_instance(1, clique_number, gen_gnp_graph(10, 0.5, 2))
    metrics = layertrace.layer_metrics(tracer.spans)  # no TraceError
    assert metrics["trace.instances"] == 2
    assert metrics["cones.check_lp.calls"] == 0
    assert metrics["lp.solve.calls"] == metrics["cones.build_lp.calls"] > 0
    bisections = sum(span[0] == "copositivity.bisect" for span in tracer.spans)
    assert bisections >= 5  # so most cells pose two stages


def _probe(tool, sizes=(), seeds=0, criteria=(), brackets=0, graphs=0):
    # one set at a time; the others are empty and add no metric
    return tool.probe_once(FINGERPRINT.parents[1], sizes, seeds, criteria, brackets, graphs)


def test_bench_pairs_times_the_fpm_lp_in_a_tree(monkeypatch):
    # the capped F+- LP of a report, and the paper's uncapped one at A's
    # unit scale, as check_membership_lp poses it
    tool = _load_tool("bench_pairs", monkeypatch)
    metrics = _probe(tool, sizes=(6,))
    assert set(metrics) == {f"fpm.{lp}n6.{k}" for lp in ("", "full.") for k in
                            ("wall_s", "cpu_s", "pivots", "refactorizations")}
    assert metrics["fpm.n6.pivots"] > 0 and metrics["fpm.n6.wall_s"] > 0
    u = unit_scale(gen_random_spn(6, 0)[0])[0]
    prog, _ = build_lp(u, sd_basis(eigen_decompose(u)[1], "Fpm"))
    assert metrics["fpm.full.n6.pivots"] == solve(prog).iterations
    assert metrics["fpm.full.n6.pivots"] > metrics["fpm.n6.pivots"]
    assert metrics["fpm.full.n6.wall_s"] > 0


def test_bench_pairs_counts_the_pivots_of_a_report_in_a_tree(monkeypatch):
    tool = _load_tool("bench_pairs", monkeypatch)
    assert tool.REPORT_SEEDS == 40
    metrics = _probe(tool, seeds=2)
    assert set(metrics) == {f"report.n16.{k}" for k in
                            ("pivots", "solves", "cpu_s", "us_per_pivot", "minflt")}
    # G, F+ and F+- in one simplex run, and L: per report means
    assert metrics["report.n16.solves"] == 2
    assert metrics["report.n16.pivots"] > 0 and metrics["report.n16.cpu_s"] > 0
    assert metrics["report.n16.us_per_pivot"] == pytest.approx(
        1e6 * metrics["report.n16.cpu_s"] / metrics["report.n16.pivots"])
    # lp.solve recycles its m x m arrays, so glibc faults no freed memory
    # back in (about 190 minor faults per report without the recycling)
    assert metrics["report.n16.minflt"] >= 0
    if platform.libc_ver()[0] == "glibc":
        assert metrics["report.n16.minflt"] <= 8


def test_bench_pairs_counts_the_pivots_of_a_bracket_in_a_tree(monkeypatch):
    # perfbench's qpbound call on its catalogue's first entries, as timed
    tool = _load_tool("bench_pairs", monkeypatch)
    assert tool.BRACKETS == 45
    metrics = _probe(tool, brackets=2)
    assert set(metrics) == {f"bracket.n8.{k}" for k in ("pivots", "solves", "cpu_s", "minflt")}
    counted = []
    monkeypatch.setattr(lpmod, "solve", lambda *a, **k: counted.append(s := solve(*a, **k)) or s)
    cfg = CopoConfig(cone_family="Fpm", max_iterations=200_000)
    for i in range(2):
        qp = gen_planted_qp(8, 4, -10.0, seed=np.random.SeedSequence([0, i]))
        assert qp_optimum(qp.Q, cfg, eta=0.1).converged
    assert metrics["bracket.n8.solves"] == len(counted) / 2 > 0
    assert metrics["bracket.n8.pivots"] == sum(s.iterations for s in counted) / 2
    assert metrics["bracket.n8.cpu_s"] > 0 and metrics["bracket.n8.minflt"] >= 0


def test_bench_pairs_counts_the_cells_of_a_copositive_partition_in_a_tree(monkeypatch):
    # the first graph of the n = 18-24 set, at omega + 1/2: the probe finds
    # omega by its own search, and its cells and pivots are the partition's
    tool = _load_tool("bench_pairs", monkeypatch)
    assert tool.GRAPHS == 10
    metrics = _probe(tool, graphs=1)
    assert set(metrics) == {f"{s}.{k}" for s in ("copo.c", "clique.c")
                            for k in ("cells", "pivots", "cpu_s")}
    rng = np.random.default_rng(7)
    g = gen_gnp_graph(int(rng.integers(18, 25)), 0.5, seed=int(rng.integers(0, 1_000_000)))
    m, counted = max_clique_matrix(g, clique_number(g) + 0.5), []
    monkeypatch.setattr(lpmod, "solve", lambda *a, **k: counted.append(s := solve(*a, **k)) or s)
    result = copositivity.test_copositive(m)
    assert result.outcome == "copositive"
    assert metrics["copo.c.cells"] == result.stats["iterations"] > 1
    assert metrics["copo.c.pivots"] == sum(s.iterations for s in counted) > 0
    assert metrics["copo.c.cpu_s"] > 0


def test_bench_pairs_counts_the_cells_of_a_clique_reduction_in_a_tree(monkeypatch):
    # the same first graph, through clique_number: its cells are those of
    # the one partition that clique_number runs, its pivots those of the
    # partition's LPs, and its omega must be the probe's own search's
    tool = _load_tool("bench_pairs", monkeypatch)
    metrics = _probe(tool, graphs=1)
    rng = np.random.default_rng(7)
    g = gen_gnp_graph(int(rng.integers(18, 25)), 0.5, seed=int(rng.integers(0, 1_000_000)))
    runs, counted, partition = [], [], instances._partition
    monkeypatch.setattr(instances, "_partition",
                        lambda *a: runs.append(r := partition(*a)) or r)
    monkeypatch.setattr(lpmod, "solve", lambda *a, **k: counted.append(s := solve(*a, **k)) or s)
    assert clique_number(g) is not None
    ((result, _),) = runs
    assert metrics["clique.c.cells"] == result.stats["iterations"] > 1
    assert metrics["clique.c.pivots"] == sum(s.iterations for s in counted) > 0
    assert metrics["clique.c.cpu_s"] > 0


def test_bench_pairs_refuses_a_wrong_clique_number(monkeypatch, tmp_path):
    # a tree whose clique_number reads one more than the largest clique
    tool = _load_tool("bench_pairs", monkeypatch)
    (tmp_path / "src" / "conekit").mkdir(parents=True)
    for module in (FINGERPRINT.parents[1] / "src" / "conekit").glob("*.py"):
        (tmp_path / "src" / "conekit" / module.name).write_text(module.read_text())
    path = tmp_path / "src" / "conekit" / "instances.py"
    text = path.read_text()
    path.write_text(text.replace("else round(1.0 / best)", "else round(1.0 / best) + 1"))
    assert path.read_text() != text
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_acceptance.py").write_text("")
    with pytest.raises(RuntimeError, match="clique.c: clique_number reads"):
        tool.probe_once(tmp_path, (), 0, (), 0, 1)


def test_bench_pairs_refuses_a_probe_whose_counts_move(monkeypatch, tmp_path):
    # a tree whose one criterion makes one more report on each call
    tool = _load_tool("bench_pairs", monkeypatch)
    (tmp_path / "src").symlink_to(FINGERPRINT.parents[1] / "src")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_acceptance.py").write_text(
        "from conekit import cones, instances\n"
        "calls = []\n"
        "def test_criterion_01_moves():\n"
        "    calls.append(1)\n"
        "    for _ in calls:\n"
        "        cones.membership_report(instances.gen_random_spn(4, 0)[0], ['Fpm'])\n"
    )
    with pytest.raises(RuntimeError, match="accept.c01: counts .* differ from the warm-up's"):
        tool.probe_once(tmp_path, (), 0, (1,), 0, 0)


def test_bench_pairs_times_acceptance_criteria_in_a_tree(monkeypatch):
    tool = _load_tool("bench_pairs", monkeypatch)
    assert tool.ACCEPT_CRITERIA == (2, 6, 7, 8, 9)
    metrics = _probe(tool, criteria=(8,))
    assert set(metrics) == {"accept.c08_s"} and metrics["accept.c08_s"] > 0
    with pytest.raises(RuntimeError, match="probe in .* failed:\n.*no acceptance criterion 99"):
        _probe(tool, sizes=(6,), criteria=(99,))
