"""The scripts under scripts/ run end to end at small sizes."""

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
