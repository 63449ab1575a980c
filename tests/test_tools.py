"""tools/src_lines.py: the line kinds of a source file, and totals that
equal `wc -l`; tools/output_hash.py: one stable digest per workload and
seed; tools/ab.py: one stream timed on two trees with their outputs
compared; tools/import_time.py: the package's import timed in fresh
processes; tools/traffic.py: the statements that the traffic does not
reach; tools/bench_file.py: a trajectory file and its work counts."""

import ast
import importlib.util
import inspect
import json
import platform
import re
import subprocess
import sys
from pathlib import Path

from cakecalc import cli, protocols, valuation

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("src_lines", ROOT / "tools" / "src_lines.py")
src_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(src_lines)

SAMPLE = '''"""A module docstring

over three lines."""

# a comment
x = 1  # code with a comment
s = """a string that is

not a docstring"""


def f():
    """One line."""
    return x'''  # no newline at the end: `wc -l` does not count the last line


def test_each_line_gets_its_kind(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SAMPLE)
    assert src_lines.line_kinds(path) == {"code": 4, "docstring": 3, "comment": 1, "blank": 5}


def test_the_totals_are_the_newline_counts_of_src():
    for path in (ROOT / "src").rglob("*.py"):
        assert sum(src_lines.line_kinds(path).values()) == path.read_bytes().count(b"\n")


def test_output_hash_is_the_same_in_two_runs():
    """tools/output_hash.py prints one digest per workload and seed, and two
    runs on the same checkout agree."""
    cmd = [sys.executable, str(ROOT / "tools" / "output_hash.py"), "--requests", "3", "--seeds", "1,2"]
    runs = [subprocess.run(cmd, capture_output=True, text=True, check=True).stdout for _ in range(2)]
    assert runs[0] == runs[1]
    lines = [line.split() for line in runs[0].splitlines()]
    for seed in ("1", "2"):
        assert sorted(name for name, s, _ in lines if s == seed) == [
            "fair_division", "iterates", "singular"]
    assert all(len(digest) == 64 for _, _, digest in lines)


def test_ab_reports_equal_outputs_for_one_tree_on_both_sides():
    """tools/ab.py with this checkout as its own base times both sides in
    every round, reports each side's per-request p50 and p95, and finds
    their outputs equal."""
    cmd = [sys.executable, str(ROOT / "tools" / "ab.py"), str(ROOT), "--requests", "20",
           "--rounds", "2"]
    report = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
    lines = report.splitlines()
    assert lines[0] == "iterates seed 11: 20 requests, 2 rounds"
    assert [line.split()[0] for line in lines[1:3]] == ["base", "this"]
    for line in lines[1:3]:
        assert re.fullmatch(r"\w+  min [0-9.]+ ms  median [0-9.]+ ms  IQR [0-9.]+-[0-9.]+ ms", line)
    # each side's per-request quantiles, over each request's fastest round
    assert [line.split()[0] for line in lines[3:5]] == ["base", "this"]
    for line in lines[3:5]:
        p50, p95 = map(float, re.fullmatch(
            r"\w+  per request  p50 ([0-9.]+) ms  p95 ([0-9.]+) ms", line).groups())
        assert 0 < p50 <= p95
    assert re.fullmatch(r"this faster in [012] of 2 rounds", lines[-2])
    assert lines[-1] == "outputs equal: yes"


def test_import_time_reports_both_statements_for_one_tree():
    """tools/import_time.py prints, for this checkout, the median and IQR of
    both imports and the modules each adds, the package's own left out."""
    cmd = [sys.executable, str(ROOT / "tools" / "import_time.py"), "--runs", "2"]
    lines = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout.splitlines()
    assert lines[0].endswith(", 2 fresh processes per root and statement")
    assert lines[1] == str(ROOT) and len(lines) == 6
    for statement, timed, adds in zip(("import cakecalc", "import cakecalc.cli"),
                                      lines[2::2], lines[3::2]):
        assert re.fullmatch(rf"  {statement} +median [0-9.]+ ms  IQR [0-9.]+-[0-9.]+ ms", timed)
        count, modules = re.fullmatch(r"    adds (\d+) modules: (.*)", adds).groups()
        assert int(count) == len(modules.split())
        assert not any(m.startswith("cakecalc") for m in modules.split())


def body_lines(f):
    """The first line of each statement of the module-level function f's
    body, its docstring left out."""
    lines, first = inspect.getsourcelines(f)
    (node,) = ast.parse("".join(lines)).body
    body = node.body[1:] if ast.get_docstring(node) is not None else node.body
    return [first - 1 + stmt.lineno for stmt in body]


def test_traffic_lists_check_proportional_and_not_cli_run():
    """Neither a workload nor a CLI command calls `check_proportional`, so
    every statement of its body is listed; `cli.run` runs for each of them,
    and the `singular` workload's set-up calls `cantor_valuation`, so no
    statement of their bodies is.  The script exits 0: every golden case
    passed under the trace."""
    cmd = [sys.executable, str(ROOT / "tools" / "traffic.py")]
    report = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
    listed, path = {}, None
    for line in report.splitlines():
        if not line.startswith(" "):
            path = line.split(":")[0]
        else:
            listed.setdefault(path, set()).add(int(re.match(r" *(\d+)", line).group(1)))
    assert set(body_lines(protocols.check_proportional)) <= listed["src/cakecalc/protocols.py"]
    assert not set(body_lines(cli.run)) & listed.get("src/cakecalc/cli.py", set())
    assert not set(body_lines(valuation.cantor_valuation)) & listed.get(
        "src/cakecalc/valuation.py", set())


def test_bench_file_writes_its_schema_and_repeats_its_work_counts(tmp_path):
    """tools/bench_file.py at --seconds 1 on one workload and seed, once with
    this checkout as its own base and once alone: every end-to-end metric
    of BENCHMARK.json is in each run and summary, the pair is counted, and
    the work counts of one tree are equal in all three readings."""
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    files = []
    for k, base in enumerate((["--base", str(ROOT)], [])):
        files.append(tmp_path / f"bench{k}.json")
        cmd = [sys.executable, str(ROOT / "tools" / "bench_file.py"), *base, "--seeds", "1",
               "--seconds", "1", "--workloads", "iterates", "--out", str(files[-1])]
        subprocess.run(cmd, capture_output=True, text=True, check=True)
    paired, alone = (json.loads(f.read_text()) for f in files)
    for report, sides in ((paired, {"this", "base"}), (alone, {"this"})):
        assert set(report) == {"python", "nproc", "commits", "seeds", "seconds", "workloads",
                               "work_counts"}
        assert report["python"] == platform.python_version() and report["nproc"] >= 1
        assert report["seeds"] == [1] and report["seconds"] == 1
        assert set(report["commits"]) == set(report["work_counts"]) == sides
        (entry,) = report["workloads"].values()
        for side in sides:
            (run,) = entry[side]["runs"]
            assert run["seed"] == 1 and run["failed"] == 0 and run["attempted"] > 0
            assert set(run["metrics"]) == set(entry[side]["median"]) == set(entry[side]["iqr"])
            assert set(run["metrics"]) == set(names)
            assert entry[side]["probe_scale"] > 0
    assert paired["workloads"]["iterates"]["pairs"] == 1
    assert set(paired["workloads"]["iterates"]["better_in"]) == set(names)
    counts = alone["work_counts"]["this"]["iterates"]
    assert counts["foundations.cantor_iterate"] > 0
    assert paired["work_counts"]["this"] == paired["work_counts"]["base"] == alone["work_counts"]["this"]
