"""Print one ``sha256  name`` line per medcov CLI artefact.

An artefact is a file a command writes, or the exit code, stdout or
stderr of a run.  The runs cover ``simulate`` for every contamination
law; ``fit-stream`` (report, snapshot and scores sidecar) for q in
{1, 3} with PSD clipping on and off, each as one pass and as a head
pass plus a ``--resume`` tail pass, one tail pass that resumes from a
copy of a head snapshot and writes its ``--out`` over that copy, and one
pass at d=300, where the pipeline steps its MCM in deferred blocks;
``fit-weiszfeld``; ``bench`` (the report CSV, and its meta sidecar
without ``wall_time_ms``) and ``curve`` at 1 and 2 workers, plus one
``curve`` whose last checkpoint is below n; one ``bench`` at d=300, whose two MCM lanes take the block
fit at a large d, with a constant at which the PSD clip binds; one
``bench`` with a constant of 1e300, whose raw lane's |V|_F^2 overflows in
every replication while the PSD lane finishes the same pass;
every ``--help``; the ragged-row and resume-width errors; the refusals
of a ``--scores-out`` and of an ``--out`` that name the ``--in`` file,
for ``fit-stream`` and, for ``--out``, ``fit-weiszfeld``, with the
input's bytes after each; and a missing input and a row that
is ragged at line 21, each run over an existing scores sidecar, with the
sidecar's bytes after it.

The commands run in process through ``medcov.cli.main``, inside a fresh
temporary directory, on whichever ``medcov`` package ``PYTHONPATH``
provides, with the BLAS pinned to one thread whatever the caller's
environment says: the d=300 outputs change with the thread count.  To
check that a change keeps every output byte, run the script against both
checkouts and compare:

    PYTHONPATH=src python tools/output_digests.py > after.txt
    PYTHONPATH=../parent/src python tools/output_digests.py > before.txt
    diff before.txt after.txt
"""

import contextlib
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before medcov imports numpy, which reads them once

from medcov import cli  # noqa: E402


def emit(name, data):
    if isinstance(data, str):
        data = data.encode("utf-8")
    print(f"{hashlib.sha256(data).hexdigest()}  {name}")


def run(name, *argv, files=(), workers=1):
    """Run one CLI command; emit its exit code, stdout, stderr and files."""
    os.environ["MEDCOV_MAX_WORKERS"] = str(workers)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:  # --help
            rc = exc.code
    emit(f"{name}:exit", str(rc))
    emit(f"{name}:stdout", out.getvalue())
    emit(f"{name}:stderr", err.getvalue())
    for path in files:
        data = Path(path).read_bytes()
        if path.endswith(".meta.json"):
            meta = json.loads(data)
            del meta["wall_time_ms"]
            data = json.dumps(meta, indent=2, sort_keys=True)
        emit(f"{name}:{path}", data)


def main():
    run("help", "--help")
    for cmd in cli._DEFAULTS:
        run(f"{cmd}-help", cmd, "--help")

    for law in ("none", "student_t1", "student_t2", "reverse_brownian"):
        delta = "0" if law == "none" else "0.2"
        run(f"simulate-{law}", "simulate", "--d", "6", "--n", "40",
            "--delta", delta, "--scenario", law, "--seed", "3")
    run("simulate-file", "simulate", "--d", "5", "--n", "120", "--delta", "0.1",
        "--scenario", "student_t1", "--seed", "1", "--out", "data.csv",
        files=["data.csv"])
    run("simulate-header", "simulate", "--d", "3", "--n", "30", "--header",
        "--out", "three.csv", files=["three.csv"])
    lines = Path("data.csv").read_text().splitlines(keepends=True)
    Path("head.csv").write_text("".join(lines[:50]))
    Path("tail.csv").write_text("".join(lines[50:]))
    Path("ragged.csv").write_text("1,2,3\n4,5\n")

    for q in ("1", "3"):
        for psd in ("on", "off"):
            tag = f"q{q}-psd-{psd}"
            opts = ("--q", q, "--psd-mode", psd)
            run(f"fit-stream-{tag}", "fit-stream", "--in", "data.csv", *opts,
                "--out", f"{tag}.json", "--scores-out", f"{tag}.scores.csv",
                files=[f"{tag}.json", f"{tag}.scores.csv"])
            run(f"fit-stream-{tag}-head", "fit-stream", "--in", "head.csv", *opts,
                "--out", f"{tag}-head.json", "--scores-out", f"{tag}-head.scores.csv",
                files=[f"{tag}-head.json", f"{tag}-head.scores.csv"])
            run(f"fit-stream-{tag}-resume", "fit-stream", "--in", "tail.csv",
                "--resume", f"{tag}-head.json", "--out", f"{tag}-resumed.json",
                "--scores-out", f"{tag}-tail.scores.csv",
                files=[f"{tag}-resumed.json", f"{tag}-tail.scores.csv"])
    # the chain that resumes from a snapshot and writes the next one over it
    tag = "q3-psd-off"
    Path(f"{tag}-in-place.json").write_bytes(Path(f"{tag}-head.json").read_bytes())
    run(f"fit-stream-{tag}-resume-in-place", "fit-stream", "--in", "tail.csv",
        "--q", "3", "--psd-mode", "off", "--resume", f"{tag}-in-place.json",
        "--out", f"{tag}-in-place.json", files=[f"{tag}-in-place.json"])
    run("simulate-d300", "simulate", "--d", "300", "--n", "300", "--delta", "0.05",
        "--scenario", "student_t2", "--seed", "4", "--out", "d300.csv")
    run("fit-stream-d300", "fit-stream", "--in", "d300.csv", "--q", "3", "--eigen-lag", "100",
        "--out", "d300.json", "--scores-out", "d300.scores.csv",
        files=["d300.json", "d300.scores.csv"])
    run("fit-stream-ragged", "fit-stream", "--in", "ragged.csv")
    run("fit-stream-resume-width", "fit-stream", "--in", "three.csv",
        "--header", "--resume", "q1-psd-on.json")
    Path("victim.csv").write_bytes(Path("data.csv").read_bytes())
    run("fit-stream-scores-out-is-input", "fit-stream", "--in", "victim.csv",
        "--scores-out", "victim.csv", files=["victim.csv"])
    run("fit-stream-out-is-input", "fit-stream", "--in", "victim.csv",
        "--out", "victim.csv", files=["victim.csv"])
    run("fit-weiszfeld-out-is-input", "fit-weiszfeld", "--in", "victim.csv",
        "--out", "victim.csv", files=["victim.csv"])
    Path("late-ragged.csv").write_text("".join(lines[:20]) + "1,2\n")
    for tag, csv in (("missing-input", "nope.csv"), ("late-ragged", "late-ragged.csv")):
        Path(f"{tag}.scores.csv").write_text("precious\n")
        run(f"fit-stream-{tag}-over-sidecar", "fit-stream", "--in", csv,
            "--scores-out", f"{tag}.scores.csv", files=[f"{tag}.scores.csv"])

    run("fit-weiszfeld", "fit-weiszfeld", "--in", "data.csv", "--q", "3")
    run("fit-weiszfeld-file", "fit-weiszfeld", "--in", "three.csv", "--header",
        "--out", "weiszfeld.json", files=["weiszfeld.json"])

    for workers in (1, 2):
        run(f"bench-w{workers}", "bench", "--d", "8", "--n", "100", "--reps", "4",
            "--delta", "0.1", "--scenario", "student_t1", "--seed", "5",
            "--out", f"bench-w{workers}.csv",
            files=[f"bench-w{workers}.csv", f"bench-w{workers}.csv.meta.json"],
            workers=workers)
        run(f"curve-w{workers}", "curve", "--d", "6", "--n", "120", "--reps", "3",
            "--delta", "0.1", "--scenario", "reverse_brownian", "--q", "2",
            "--checkpoints", "40,80,120", "--seed", "2", workers=workers)
    run("curve-short", "curve", "--d", "6", "--n", "120", "--reps", "3",
        "--delta", "0.1", "--scenario", "student_t1", "--q", "2",
        "--checkpoints", "20,60", "--seed", "7")
    run("bench-stdout", "bench", "--d", "5", "--n", "60", "--reps", "2",
        "--estimators", "pca,mcm_rplus")
    run("bench-d300", "bench", "--d", "300", "--n", "150", "--reps", "1", "--delta", "0.05",
        "--scenario", "student_t2", "--estimators", "mcm_r,mcm_rplus", "--seed", "3",
        "--c-mcm", "2000")
    run("bench-overflow", "bench", "--d", "8", "--n", "100", "--reps", "4", "--delta", "0.1",
        "--scenario", "student_t1", "--seed", "5", "--c-mcm", "1e300",
        "--estimators", "mcm_r,mcm_rplus", "--out", "bench-overflow.csv",
        files=["bench-overflow.csv", "bench-overflow.csv.meta.json"])


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"  # argparse wraps --help to the terminal width
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            main()
        finally:
            os.chdir(home)
