"""The scripts under scripts/ run end to end at small sizes."""

import importlib.util
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _run(script, *args):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          capture_output=True, text=True, env=env, timeout=300)


def test_butterfly_scan_script_writes_one_exact_butterfly_event(tmp_path):
    run = _run("run_butterfly_scan.py", "--out", str(tmp_path), "--t-samples", "41", "--lambda-samples", "9")
    assert run.returncode == 0, run.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["honest-dual-events.csv",
                                                         "torsion-collision-events.csv"]
    # the torsion zeros collide at the origin, where the frame dual has type (3, 4, 5)
    rows = (tmp_path / "torsion-collision-events.csv").read_text().splitlines()[1:]
    assert rows == ['0.0,0.0,3,4,5,"Unresolved(3,4,5)",4,2,6,exact']


def test_gallery_script_writes_every_mesh_and_locus(tmp_path):
    run = _run("make_gallery_meshes.py", "--out", str(tmp_path), "--t-samples", "21", "--s-samples", "9")
    assert run.returncode == 0, run.stderr
    stems = ["normal-form-%d%d%d" % a for a in ((1, 2, 3), (1, 2, 4), (1, 2, 5), (1, 3, 4), (2, 3, 4), (3, 4, 5))]
    stems += ["cylinder", "helix-developable"]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        name for stem in stems for name in (f"{stem}.obj", f"{stem}.locus.obj"))
    assert all((tmp_path / f"{stem}.obj").stat().st_size > 0 for stem in stems)


def test_scan_fuzz_script_runs_and_tallies_two_seeds():
    run = _run("fuzz_scan.py", "28", "31", "--timeout", "120")
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert [line.split(":")[0] for line in lines[:2]] == ["seed 28", "seed 31"]
    assert all(" exit 0 " in line for line in lines[:2])
    assert lines[2:4] == ["exit codes: 0: 2", "timeouts: []"]
    # the summed wall time of the configs that exit 0, here both
    seconds = [float(line.split()[4]) for line in lines[:2]]
    assert lines[4].startswith("exit 0: 2 configs in ") and lines[4].endswith(" s")
    assert abs(float(lines[4].split()[5]) - sum(seconds)) <= 0.011
    assert sum(line.startswith("slow: seed ") for line in lines) == 2


def test_scan_fuzz_script_pairs_two_seeds_against_the_same_tree():
    run = _run("fuzz_scan.py", "28", "31", "--timeout", "120", "--against", str(ROOT / "src"))
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert [line.split(":")[0] for line in lines[:2]] == ["seed 28", "seed 31"]
    for line in lines[:2]:
        fields = line.split()
        assert fields[2:5] == ["exit", "0", "|"] and fields[5] == "0" and fields[-1] == "same"
        assert fields[-4] == fields[-2] != "-"
    assert lines[2].startswith("exit 0 on both: 2 configs in ")
    assert lines[3:] == ["timeouts: [] | []", "different: []"]


def test_scan_fuzz_script_exits_1_when_a_finished_pair_differs(tmp_path):
    # a stand-in tree whose scan writes other bytes and exits 0
    package = tmp_path / "framedcurves"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text(
        "import pathlib, sys\n"
        "out = pathlib.Path(sys.argv[sys.argv.index('--out') + 1])\n"
        "out.mkdir(parents=True)\n"
        "(out / 'events.csv').write_text('lambda')\n"
        "(out / 'report.json').write_text('{}')\n")
    run = _run("fuzz_scan.py", "28", "--timeout", "120", "--against", str(tmp_path))
    assert run.returncode == 1, run.stderr
    lines = run.stdout.splitlines()
    assert lines[0].startswith("seed 28: exit 0 | 0 ") and lines[0].endswith(" DIFFERENT")
    assert lines[-1] == "different: [28]"


def _bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run_record(seed, side, op_s, ok_share):
    metrics = {"op_s.p50": {"value": op_s, "unit": "s"}, "ok_share": {"value": ok_share, "unit": "ratio"}}
    return {"workload": "acceptance-verify", "seed": seed, "side": side, "rc": 0,
            "result": {"attempted": 18, "correct": True, "failed": 0, "metrics": metrics}}


def test_bench_pairs_refuses_trees_whose_paths_differ_in_length(tmp_path):
    # exit 2 before any run, naming both resolved paths
    (tmp_path / "parent").mkdir()
    (tmp_path / "change2").mkdir()
    run = _run("bench_pairs.py", str(tmp_path / "parent"), str(tmp_path / "change2"),
               "--workload", "acceptance-verify", "--seeds", "1")
    assert run.returncode == 2 and run.stdout == ""
    assert f"PARENT_TREE {tmp_path / 'parent'} and CHANGE_TREE {tmp_path / 'change2'}" in run.stderr


def test_bench_pairs_summarizes_canned_runs_by_each_metrics_direction():
    bench = _bench_pairs()
    assert bench.parse_seeds("4801-4805") == [4801, 4802, 4803, 4804, 4805] and bench.parse_seeds("7") == [7]
    runs = [
        _run_record(1, "parent", 0.050, 1.0), _run_record(1, "change", 0.046, 1.0),
        _run_record(2, "change", 0.047, 0.9), _run_record(2, "parent", 0.049, 1.0),
        _run_record(3, "parent", 0.048, 0.9), _run_record(3, "change", 0.049, 1.0),
        _run_record(4, "parent", 0.051, 1.0),
        {"workload": "acceptance-verify", "seed": 4, "side": "change", "rc": 1, "result": None},
    ]
    metrics = [{"name": "op_s.p50", "better": "lower"}, {"name": "ok_share", "better": "higher"}]
    summary = bench.summarize(runs, metrics)["acceptance-verify"]
    # seed 4 has no change result: its parent run counts in the spread, not in a pair
    assert summary["op_s.p50"] == {
        "parent": {"median": 0.0495, "q1": 0.04875, "q3": 0.05025},
        "change": {"median": 0.047, "q1": 0.0465, "q3": 0.048},
        "change_better_pairs": "2/3",
        "gain": False,
    }
    # higher is better, and a tie is no win
    assert summary["ok_share"]["change_better_pairs"] == "1/3"
    assert summary["ok_share"]["change"] == {"median": 1.0, "q1": 0.95, "q3": 1.0}
    lone = bench.summarize(runs[:1], metrics)["acceptance-verify"]["op_s.p50"]
    assert lone == {"parent": {"median": 0.05, "q1": 0.05, "q3": 0.05}, "change": None, "change_better_pairs": "0/0",
                    "gain": False}


def test_bench_pairs_claims_a_gain_only_when_both_halves_of_the_rule_hold():
    bench = _bench_pairs()
    runs = []
    for i in range(10):
        wobble = 0.01 * (i % 2)  # the parent's q3 - q1 of split and clear
        parent = {"narrow": 10.0 + 0.1 * i, "split": 10.0 + wobble, "clear": 1.0 + wobble}
        change = {"narrow": parent["narrow"] - 0.05,  # better in 10/10, by less than q3 - q1 = 0.45
                  "split": parent["split"] - 1.0 if i < 8 else parent["split"] + 0.5,  # better in 8/10
                  "clear": parent["clear"] + (0.1 if i < 9 else 0.0)}  # 9/10, the tie counts for neither
        for side, metrics in (("parent", parent), ("change", change)):
            runs.append({"workload": "mesh-export", "seed": i, "side": side, "rc": 0,
                         "result": {"metrics": {name: {"value": x} for name, x in metrics.items()}}})
    metrics = [{"name": "narrow", "better": "lower"}, {"name": "split", "better": "lower"},
               {"name": "clear", "better": "higher"}]
    summary = bench.summarize(runs, metrics)["mesh-export"]
    assert [summary[name]["change_better_pairs"] for name in ("narrow", "split", "clear")] == ["10/10", "8/10", "9/10"]
    assert summary["narrow"]["parent"]["q3"] - summary["narrow"]["parent"]["q1"] > 0.05
    assert summary["split"]["parent"]["median"] - summary["split"]["change"]["median"] > 0.9
    assert {name: entry["gain"] for name, entry in summary.items()} == {"narrow": False, "split": False, "clear": True}
