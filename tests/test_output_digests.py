"""``tools/output_digests.py`` runs to completion and names each CLI
artefact once."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_output_digests_runs_and_names_each_artefact_once(tmp_path):
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": pythonpath, "TMPDIR": str(tmp_path)}
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning",
                           str(ROOT / "tools" / "output_digests.py")],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    lines = proc.stdout.splitlines()
    assert all(re.fullmatch(r"[0-9a-f]{64}  \S+", line) for line in lines)
    names = [line.split("  ")[1] for line in lines]
    assert len(names) == len(set(names)) > 100
    assert "fit-stream-q3-psd-off-resume:q3-psd-off-resumed.json" in names
    # --resume X --out X writes the same snapshot as --out into another file
    digest = dict(reversed(line.split("  ")) for line in lines)
    assert (digest["fit-stream-q3-psd-off-resume-in-place:q3-psd-off-in-place.json"]
            == digest["fit-stream-q3-psd-off-resume:q3-psd-off-resumed.json"])
    assert "bench-d300:stdout" in names  # the row MCM step at a large d
    assert "bench-overflow:bench-overflow.csv" in names  # a lane that overflows
    assert list(tmp_path.iterdir()) == []  # the temporary directory is gone
