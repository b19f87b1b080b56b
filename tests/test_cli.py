"""Command-line interface: subcommands, config files, exit codes."""

import errno
import json
import os
import re
import stat
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import medcov
from medcov import ConfigError, DataError, weiszfeld_median, write_csv
from medcov import bench as _bench
from medcov import cli
from medcov.cli import main
from medcov.linalg import pack_array


def _env_importing_this_medcov():
    """The environment with the tested medcov package first on PYTHONPATH."""
    src = str(Path(medcov.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}


def run_cli(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def sample_csv(tmp_path, name, rows, seed=0):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((rows, 3))
    path = tmp_path / name
    write_csv(path, data)
    return str(path), data


# ---------------------------------------------------------------------------
# simulate

def test_simulate_writes_csv_to_stdout(capsys):
    rc, out, _ = run_cli(capsys, "simulate", "--d", "4", "--n", "7", "--seed", "3")
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 7
    assert all(len(line.split(",")) == 4 for line in lines)


def test_simulate_header_and_determinism(capsys):
    args = ("simulate", "--d", "3", "--n", "5", "--seed", "1", "--header")
    rc1, out1, _ = run_cli(capsys, *args)
    rc2, out2, _ = run_cli(capsys, *args)
    assert rc1 == rc2 == 0
    assert out1 == out2
    assert out1.splitlines()[0] == "x1,x2,x3"


def test_simulate_rejects_rate_without_law(capsys):
    rc, _, err = run_cli(capsys, "simulate", "--d", "4", "--n", "5",
                         "--delta", "0.5")
    assert rc == 2
    assert "config error" in err


def test_simulate_to_file(tmp_path, capsys):
    out = tmp_path / "sample.csv"
    rc, _, _ = run_cli(capsys, "simulate", "--d", "2", "--n", "10",
                       "--delta", "1.0", "--scenario", "reverse_brownian",
                       "--out", str(out))
    assert rc == 0
    rows = [line.split(",") for line in out.read_text().splitlines()]
    assert len(rows) == 10
    assert all(float(cells[-1]) == 0.0 for cells in rows)


# ---------------------------------------------------------------------------
# fit-stream

def test_fit_stream_reports_and_snapshots(tmp_path, capsys):
    path, _ = sample_csv(tmp_path, "data.csv", 40)
    snap = tmp_path / "state.json"
    rc, out, _ = run_cli(capsys, "fit-stream", "--in", path, "--q", "2",
                         "--out", str(snap))
    assert rc == 0
    report = json.loads(out)
    assert report["rows"] == 40
    assert len(report["median"]) == 3
    assert snap.exists()


def test_fit_stream_requires_input(capsys):
    rc, _, err = run_cli(capsys, "fit-stream")
    assert rc == 2
    assert "config error" in err


def test_fit_stream_missing_file_is_data_error(tmp_path, capsys):
    rc, _, err = run_cli(capsys, "fit-stream", "--in", str(tmp_path / "nope.csv"))
    assert rc == 3


@pytest.mark.parametrize("cmd", ["fit-stream", "fit-weiszfeld"])
def test_empty_file_is_data_error(tmp_path, capsys, cmd):
    path = tmp_path / "empty.csv"
    path.write_text("")
    rc, out, err = run_cli(capsys, cmd, "--in", str(path))
    assert (rc, out) == (3, "")
    assert err == f"medcov: data error: {path}: file contains no observations\n"


def test_fit_stream_refuses_a_sidecar_that_is_the_input(tmp_path, capsys):
    # the sidecar is opened before the first row is read, so writing it
    # over the input would leave nothing to read and only its header behind
    path = tmp_path / "d.csv"
    assert run_cli(capsys, "simulate", "--d", "3", "--n", "20", "--out", str(path))[0] == 0
    before = path.read_bytes()
    alias = tmp_path / "alias.csv"
    os.link(path, alias)  # another name for the same file
    for out_path in (path, alias):
        rc, out, err = run_cli(capsys, "fit-stream", "--in", str(path),
                               "--scores-out", str(out_path))
        assert (rc, out) == (2, "")
        assert err == (f"medcov: config error: {out_path}: "
                       "the scores sidecar would overwrite the input\n")
    assert path.read_bytes() == before


def test_fit_stream_refuses_a_sidecar_that_is_the_resumed_snapshot(tmp_path, capsys, monkeypatch):
    # the sidecar would replace the only copy of the stream's state; refused
    # before the snapshot or any row is read
    path, _ = sample_csv(tmp_path, "d.csv", 20)
    snap = tmp_path / "s.json"
    assert run_cli(capsys, "fit-stream", "--in", path, "--out", str(snap))[0] == 0
    before = snap.read_bytes()
    calls = []
    monkeypatch.setattr(_bench, "load_snapshot", lambda *a: calls.append(a))
    monkeypatch.setattr(_bench, "iter_csv_rows", lambda *a, **k: calls.append(a))
    alias = tmp_path / "alias.json"
    os.link(snap, alias)  # another name for the same file
    (tmp_path / "link.json").symlink_to(snap)
    for out_path in (snap, alias, tmp_path / "link.json"):
        rc, out, err = run_cli(capsys, "fit-stream", "--in", path, "--resume", str(snap),
                               "--scores-out", str(out_path))
        assert (rc, out) == (2, "")
        assert err == (f"medcov: config error: {out_path}: "
                       "the scores sidecar would overwrite the resumed snapshot\n")
    assert snap.read_bytes() == before
    assert calls == []


def test_fit_stream_refuses_a_snapshot_that_is_the_input(tmp_path, capsys):
    path = tmp_path / "d.csv"
    assert run_cli(capsys, "simulate", "--d", "3", "--n", "20", "--out", str(path))[0] == 0
    before = path.read_bytes()
    alias = tmp_path / "alias.csv"
    os.link(path, alias)  # another name for the same file
    for out_path in (path, alias):
        rc, out, err = run_cli(capsys, "fit-stream", "--in", str(path), "--out", str(out_path))
        assert (rc, out) == (2, "")
        assert err == (f"medcov: config error: {out_path}: "
                       "the snapshot would overwrite the input\n")
    assert path.read_bytes() == before
    # resuming from a snapshot and writing the next one over it stays allowed
    snap = str(tmp_path / "s.json")
    assert run_cli(capsys, "fit-stream", "--in", str(path), "--out", snap)[0] == 0
    rc, _, err = run_cli(capsys, "fit-stream", "--in", str(path), "--resume", snap, "--out", snap)
    assert (rc, err) == (0, "")


def test_fit_stream_refuses_a_snapshot_that_is_the_sidecar(tmp_path, capsys, monkeypatch):
    # the snapshot is written after the sidecar, so it would replace the
    # scores; refused before any row is read, whether the file exists or not
    path, _ = sample_csv(tmp_path, "d.csv", 20)
    calls = []
    rows = _bench.iter_csv_rows
    monkeypatch.setattr(_bench, "iter_csv_rows", lambda *a, **k: calls.append(a) or rows(*a, **k))
    (tmp_path / "sub").mkdir()
    new = tmp_path / "x.json"
    old = tmp_path / "old.json"
    old.write_text("precious\n")
    alias = tmp_path / "alias.json"
    os.link(old, alias)  # another name for the same file
    (tmp_path / "link.json").symlink_to(old)
    for out_path, scores in ((new, new), (tmp_path / "sub" / ".." / "x.json", new),
                             (old, old), (alias, old), (old, tmp_path / "link.json")):
        rc, out, err = run_cli(capsys, "fit-stream", "--in", path, "--scores-out", str(scores),
                               "--out", str(out_path))
        assert (rc, out) == (2, "")
        assert err == (f"medcov: config error: {out_path}: "
                       "the snapshot would overwrite the scores sidecar\n")
    assert not new.exists()
    assert old.read_bytes() == b"precious\n"
    assert calls == []


def _failing_inputs(tmp_path):
    """(name, argv tail, exit code) of four fit-stream runs that fail."""
    rng = np.random.default_rng(3)
    ragged = tmp_path / "ragged.csv"
    write_csv(ragged, rng.standard_normal((20, 3)))
    with open(ragged, "a", encoding="utf-8") as fh:
        fh.write("1.0,2.0\n")  # line 21
    five = tmp_path / "five.csv"
    write_csv(five, rng.standard_normal((10, 5)))
    snap = tmp_path / "five.json"
    assert main(["fit-stream", "--in", str(five), "--out", str(snap)]) == 0
    edge = tmp_path / "edge.csv"
    write_csv(edge, [[1e308, -1e308, 1e308], [-1e308, 1e308, -1e308]])
    return [
        ("missing", ["--in", str(tmp_path / "nope.csv")], 3),
        ("ragged", ["--in", str(ragged)], 3),
        ("resume-width", ["--in", str(ragged), "--resume", str(snap)], 3),
        ("overflow", ["--in", str(edge)], 4),
    ]


# every output goes through one writer, so the writer tests below run
# each on the scores sidecar and on the snapshot
_OUTPUT_FLAGS = ("--scores-out", "--out")


@pytest.mark.filterwarnings("ignore:overflow encountered in subtract:RuntimeWarning")
def test_a_failed_fit_stream_keeps_an_existing_sidecar(tmp_path, capsys):
    # the output is written to a temporary file beside it, which replaces
    # it only once the pass has succeeded and is removed on failure
    sidecar = tmp_path / "old.scores.csv"
    cases = _failing_inputs(tmp_path)
    capsys.readouterr()  # the report of the run that wrote the snapshot
    for flag in _OUTPUT_FLAGS:
        for name, argv, code in cases:
            sidecar.write_bytes(b"precious\n")
            files = set(tmp_path.iterdir())
            rc, out, _ = run_cli(capsys, "fit-stream", *argv, flag, str(sidecar))
            assert (rc, out) == (code, ""), (flag, name)
            assert sidecar.read_bytes() == b"precious\n", (flag, name)
            assert set(tmp_path.iterdir()) == files, (flag, name)


def test_fit_stream_sidecar_replaces_an_existing_file(tmp_path, capsys):
    path, _ = sample_csv(tmp_path, "d.csv", 30)
    for flag in _OUTPUT_FLAGS:
        out_dir = tmp_path / flag.strip("-")
        out_dir.mkdir()
        fresh, old, ref = out_dir / "fresh.csv", out_dir / "old.csv", out_dir / "ref"
        old.write_text("precious\n" * 100)
        old.chmod(0o640)
        for sidecar in (fresh, old):
            assert run_cli(capsys, "fit-stream", "--in", path, flag, str(sidecar))[0] == 0
        assert old.read_bytes() == fresh.read_bytes(), flag
        assert (old.stat().st_mode & 0o777) == 0o640, flag  # the existing file's mode is kept
        ref.touch()  # a new file's mode under this umask, as open(path, "w") makes it
        assert (fresh.stat().st_mode & 0o777) == (ref.stat().st_mode & 0o777), flag
        assert sorted(p.name for p in out_dir.iterdir()) == ["fresh.csv", "old.csv", "ref"]


@pytest.mark.skipif(not hasattr(os, "geteuid") or os.geteuid() != 0,
                    reason="only root may give a file to another owner")
def test_fit_stream_sidecar_keeps_an_existing_owner(tmp_path, capsys):
    path, _ = sample_csv(tmp_path, "d.csv", 30)
    fresh, old = tmp_path / "fresh.csv", tmp_path / "old.csv"
    for flag in _OUTPUT_FLAGS:
        old.write_text("precious\n")
        os.chown(old, 1, 1)
        for sidecar in (fresh, old):
            assert run_cli(capsys, "fit-stream", "--in", path, flag, str(sidecar))[0] == 0
        assert (old.stat().st_uid, old.stat().st_gid) == (1, 1), flag
        assert old.read_bytes() == fresh.read_bytes(), flag


def test_fit_stream_sidecar_through_a_symlink_replaces_its_target(tmp_path, capsys):
    path, _ = sample_csv(tmp_path, "d.csv", 30)
    fresh, target, link = tmp_path / "fresh.csv", tmp_path / "target.csv", tmp_path / "link.csv"
    link.symlink_to(target)
    for flag in _OUTPUT_FLAGS:
        target.write_text("precious\n")
        for sidecar in (fresh, link):
            assert run_cli(capsys, "fit-stream", "--in", path, flag, str(sidecar))[0] == 0
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_bytes() == fresh.read_bytes(), flag
        assert sorted(p.name for p in tmp_path.iterdir()) == ["d.csv", "fresh.csv", "link.csv",
                                                              "target.csv"]


def test_fit_stream_writes_a_fifo_sidecar_in_place(tmp_path, capsys):
    # a FIFO is not a regular file: it is opened and written as the rows
    # go, not replaced by a regular file
    path, _ = sample_csv(tmp_path, "d.csv", 30)
    fresh, fifo = tmp_path / "fresh.csv", tmp_path / "scores.fifo"
    os.mkfifo(fifo)
    for flag in _OUTPUT_FLAGS:
        assert run_cli(capsys, "fit-stream", "--in", path, flag, str(fresh))[0] == 0
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
        reader.start()
        assert run_cli(capsys, "fit-stream", "--in", path, flag, str(fifo))[0] == 0
        reader.join(timeout=30)
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert got == [fresh.read_bytes()], flag


@pytest.mark.parametrize("fault", ["write", "replace"])
def test_a_failed_snapshot_write_keeps_the_resumed_snapshot(tmp_path, capsys, monkeypatch, fault):
    # --resume s.json --out s.json: a write that stops part-way, or a
    # rename that fails, leaves s.json as it was and no temporary file
    path, _ = sample_csv(tmp_path, "d.csv", 30)
    snap = tmp_path / "s.json"
    assert run_cli(capsys, "fit-stream", "--in", path, "--out", str(snap))[0] == 0
    before = snap.read_bytes()
    argv = ["fit-stream", "--in", path, "--resume", str(snap), "--out", str(snap)]
    if fault == "write":  # a file-size limit stops the write after 10 bytes, as a full disk would
        resource = pytest.importorskip("resource")
        proc = subprocess.run(
            [sys.executable, "-m", "medcov.cli", *argv], capture_output=True, text=True,
            env=_env_importing_this_medcov(),
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_FSIZE, (10, 10)))
        rc, out, err = proc.returncode, proc.stdout, proc.stderr
    else:
        def fail(src, dst):
            raise OSError(errno.EXDEV, os.strerror(errno.EXDEV), src, None, dst)
        monkeypatch.setattr(_bench.os, "replace", fail)
        rc, out, err = run_cli(capsys, *argv)
    assert (rc, out) == (3, "")
    assert re.fullmatch(rf"medcov: data error: \[Errno \d+\] [^:]+: '{re.escape(str(snap))}'\n",
                        err)
    assert snap.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d.csv", "s.json"]


@pytest.mark.parametrize("name", ["nodir/s.csv", "sub"], ids=["missing-directory", "directory"])
def test_an_unwritable_sidecar_is_a_data_error_naming_it(tmp_path, capsys, monkeypatch, name):
    # the error names the output, not the temporary file beside it, and
    # comes before the first row is read
    path, _ = sample_csv(tmp_path, "d.csv", 20)
    (tmp_path / "sub").mkdir()
    files = set(tmp_path.iterdir())
    calls = []
    rows = _bench.iter_csv_rows
    monkeypatch.setattr(_bench, "iter_csv_rows", lambda *a, **k: calls.append(a) or rows(*a, **k))
    sidecar = tmp_path / name
    for flag in _OUTPUT_FLAGS:
        calls.clear()
        rc, out, err = run_cli(capsys, "fit-stream", "--in", path, flag, str(sidecar))
        assert (rc, out) == (3, ""), flag
        assert re.fullmatch(
            rf"medcov: data error: \[Errno \d+\] [^:]+: '{re.escape(str(sidecar))}'\n", err)
        assert set(tmp_path.iterdir()) == files, flag
        assert calls == [], flag


def test_fit_stream_ragged_file_is_data_error(tmp_path, capsys):
    path = tmp_path / "ragged.csv"
    path.write_text("1,2\n3\n")
    rc, _, err = run_cli(capsys, "fit-stream", "--in", str(path))
    assert rc == 3
    assert "line 2" in err


def test_fit_stream_resume_matches_single_pass(tmp_path, capsys):
    rng = np.random.default_rng(5)
    data = rng.standard_normal((30, 2))
    full = tmp_path / "full.csv"
    head = tmp_path / "head.csv"
    tail = tmp_path / "tail.csv"
    write_csv(full, data)
    write_csv(head, data[:11])
    write_csv(tail, data[11:])

    snap_full = tmp_path / "full.json"
    snap_head = tmp_path / "head.json"
    snap_resumed = tmp_path / "resumed.json"
    assert run_cli(capsys, "fit-stream", "--in", str(full), "--q", "1",
                   "--out", str(snap_full))[0] == 0
    assert run_cli(capsys, "fit-stream", "--in", str(head), "--q", "1",
                   "--out", str(snap_head))[0] == 0
    assert run_cli(capsys, "fit-stream", "--in", str(tail),
                   "--resume", str(snap_head), "--out", str(snap_resumed))[0] == 0
    assert snap_resumed.read_bytes() == snap_full.read_bytes()


def test_fit_stream_resume_rejects_another_width(tmp_path, capsys):
    # the first row's width is checked against the snapshot's dimension
    five = tmp_path / "five.csv"
    write_csv(five, np.random.default_rng(2).standard_normal((20, 5)))
    snap = tmp_path / "snap.json"
    assert run_cli(capsys, "fit-stream", "--in", str(five), "--out", str(snap))[0] == 0
    csv, _ = sample_csv(tmp_path, "three.csv", 10)
    rc, out, err = run_cli(capsys, "fit-stream", "--in", csv, "--resume", str(snap))
    assert (rc, out) == (3, "")
    assert err == f"medcov: data error: {csv}: line 1: dimension mismatch: expected 5, got 3\n"


_DROP = object()

# (field named in the error, path into the snapshot, corrupt value)
_CORRUPT_SNAPSHOTS = [
    ("mcm", ("mcm",), _DROP),
    ("tracker", ("tracker",), _DROP),
    ("mcm.n", ("mcm", "n"), "x"),
    ("mcm.fro2", ("mcm", "fro2"), float("inf")),
    ("mcm.psd_mode", ("mcm", "psd_mode"), "on"),
    ("mcm.mode", ("mcm", "mode"), "x"),
    ("mcm.cov_c/cov_alpha", ("mcm", "cov_alpha"), 2.0),
    ("mcm.v", ("mcm", "v"), [[1.0, 0.0], [0.0, 1.0]]),
    ("mcm.vbar", ("mcm", "vbar"), [[float("nan")] * 3] * 3),
    ("mcm.vbar", ("mcm", "vbar"), [[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
    ("mcm.median.mbar", ("mcm", "median", "mbar"), [0.0, 1.0]),
    ("mcm.median.n", ("mcm", "median", "n"), -1),
    ("tracker.q", ("tracker", "q"), 5),
    ("tracker.raw", ("tracker", "raw"), [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
    ("tracker.raw", ("tracker", "raw"), [[1.0, 0.0, 0.0], [0.0, 1.0]]),
    ("tracker.warmup", ("tracker", "warmup"), [[1.0, 0.0, 0.0]]),
    ("rows", ("rows",), True),
    # the carried |V|_F^2 must agree with mcm.v (drift is ~1e-14 at most)
    pytest.param("mcm.fro2", ("mcm", "fro2"), 1e300, id="mcm.fro2-huge"),
    pytest.param("mcm.fro2", ("mcm", "fro2"), -5.0, id="mcm.fro2-negative"),
    pytest.param("mcm.fro2", ("mcm", "v"), pack_array(np.full(6, 1e200)),
                 id="mcm.v-fro2-overflows"),
    # snapshot v3 packs the upper triangles of mcm.v and mcm.vbar as base64
    # float64 (64 characters at d=3); a whole matrix is a misshapen field
    pytest.param("mcm.v", ("mcm", "v"), "!" * 64, id="mcm.v-not-base64"),
    pytest.param("mcm.v", ("mcm", "v"), pack_array(np.eye(2)), id="mcm.v-packed-length"),
    pytest.param("mcm.vbar", ("mcm", "vbar"), pack_array(np.full((3, 3), np.nan)),
                 id="mcm.vbar-packed-nan"),
    pytest.param("mcm.vbar", ("mcm", "vbar"),
                 pack_array([[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
                 id="mcm.vbar-packed-asymmetric"),
    # a lying dim or q meets a field of the true size before anything of
    # the claimed size is allocated (d x d is 7.3 TiB here)
    pytest.param("mcm.v", ("mcm", "dim"), 1000000, id="mcm.dim-huge"),
    pytest.param("mcm.median.m", ("mcm", "median", "dim"), 1000000, id="mcm.median.dim-huge"),
    pytest.param("tracker.dim", ("tracker", "dim"), 1000000, id="tracker.dim-huge"),
    pytest.param("tracker.q", ("tracker", "q"), 1000000, id="tracker.q-huge"),
    # a carrier past ~1e154 would turn into NaN at the next step
    pytest.param("tracker.raw", ("tracker", "raw"), [[1e160, 0.0, 0.0], [0.0, 1e160, 0.0]],
                 id="tracker.raw-norm-overflows"),
    pytest.param("tracker.seed", ("tracker", "seed"), -1, id="tracker.seed-negative"),
    # a median of its own consistent width, under an MCM of another
    pytest.param("mcm.median.dim", ("mcm", "median"),
                 medcov.GeometricMedianSGD(4).update_many(np.eye(4)).state_dict(),
                 id="mcm.median-another-width"),
]


@pytest.mark.parametrize("field,path,value", _CORRUPT_SNAPSHOTS,
                         ids=[getattr(c, "id", None) or c[0].replace("/", "-")
                              for c in _CORRUPT_SNAPSHOTS])
def test_fit_stream_corrupt_snapshot_is_data_error(tmp_path, capsys, field, path, value):
    csv, _ = sample_csv(tmp_path, "d.csv", 20, seed=8)
    snap = tmp_path / "snap.json"
    assert run_cli(capsys, "fit-stream", "--in", csv, "--out", str(snap))[0] == 0
    state = json.loads(snap.read_text())
    node = state
    for key in path[:-1]:
        node = node[key]
    if value is _DROP:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    snap.write_text(json.dumps(state))
    rc, out, err = run_cli(capsys, "fit-stream", "--in", csv, "--resume", str(snap))
    assert rc == 3
    assert out == ""
    assert f"data error: {snap}: snapshot field {field}:" in err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_fit_stream_survives_a_huge_warmup_row(tmp_path, capsys):
    # |x|^2 overflows past ~1e154: the tracker's warm-up must still give a
    # finite carrier, so the report is finite and the snapshot resumes,
    # all without an overflow warning
    data = np.random.default_rng(11).standard_normal((40, 4))
    data[2] *= 1e200
    path = tmp_path / "huge.csv"
    write_csv(path, data)
    snap = tmp_path / "snap.json"
    rc, out, err = run_cli(capsys, "fit-stream", "--in", str(path), "--q", "2",
                           "--eigen-lag", "0", "--out", str(snap))
    assert (rc, err) == (0, "")
    assert np.all(np.isfinite(json.loads(out)["eigenvalues"]))
    rc, _, err = run_cli(capsys, "fit-stream", "--in", str(path), "--resume", str(snap))
    assert (rc, err) == (0, "")


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_fit_stream_scores_of_a_huge_row_are_finite(tmp_path, capsys):
    # the third row's residual has a squared norm past float64
    data = np.random.default_rng(11).standard_normal((40, 4))
    data[2] *= 1e200
    path = tmp_path / "huge.csv"
    write_csv(path, data)
    scores = tmp_path / "scores.csv"
    rc, _, err = run_cli(capsys, "fit-stream", "--in", str(path), "--q", "2",
                         "--scores-out", str(scores))
    assert (rc, err) == (0, "")
    third = [float(cell) for cell in scores.read_text().splitlines()[3].split(",")]
    assert len(third) == 3 and np.all(np.isfinite(third))


@pytest.mark.filterwarnings("ignore:overflow encountered in subtract:RuntimeWarning")
def test_fit_stream_overflowing_row_is_numerical_failure(tmp_path, capsys):
    # every cell is finite, but line 2 minus the running center is not
    data = np.random.default_rng(12).standard_normal((10, 3))
    data[0], data[1] = [1e308, -1e308, 1e308], [-1e308, 1e308, -1e308]
    path = tmp_path / "edge.csv"
    write_csv(path, data)
    rc, out, err = run_cli(capsys, "fit-stream", "--in", str(path))
    assert (rc, out) == (4, "")
    assert f"numerical failure: {path}: line 2: the row minus the center overflows" in err


def test_fit_stream_mcm_overflow_is_numerical_failure(tmp_path, capsys):
    # with constants scaled to rows of size 1e100 the first MCM step
    # carries |V|_F past 1e200, so |V|_F^2 overflows float64 at line 2,
    # before the tracker (eigenvalues ~1e200) would overflow at line 4
    data = np.random.default_rng(1).standard_normal((60, 3)) * 1e100
    path = tmp_path / "big.csv"
    write_csv(path, data)
    rc, out, err = run_cli(capsys, "fit-stream", "--in", str(path), "--q", "2",
                           "--eigen-lag", "0", "--c-median", "2e100", "--c-mcm", "2e200")
    assert (rc, out) == (4, "")
    assert err == (f"medcov: numerical failure: {path}: line 2: "
                   "the MCM iterate's squared Frobenius norm overflows float64\n")


def test_fit_stream_negative_eigen_lag_is_config_error(tmp_path, capsys):
    csv, _ = sample_csv(tmp_path, "d.csv", 20)
    rc, out, err = run_cli(capsys, "fit-stream", "--in", csv, "--eigen-lag", "-1")
    assert (rc, out) == (2, "")
    assert err == "medcov: config error: eigen_lag must be >= 0, got -1\n"


def test_fit_stream_negative_eigen_seed_is_config_error(tmp_path, capsys):
    csv, _ = sample_csv(tmp_path, "d.csv", 20)
    rc, out, err = run_cli(capsys, "fit-stream", "--in", csv, "--eigen-seed", "-1")
    assert (rc, out) == (2, "")
    assert err == "medcov: config error: tracker seed must be >= 0, got -1\n"


_NOT_UTF8 = b"1,2,3\n4,5,\xff\n"


@pytest.mark.parametrize("argv,rc,kind", [
    (("fit-stream", "--in", "{bad}"), 3, "data error"),
    (("fit-weiszfeld", "--in", "{bad}"), 3, "data error"),
    (("fit-stream", "--in", "{csv}", "--resume", "{bad}"), 3, "data error"),
    (("fit-stream", "--config", "{bad}"), 2, "config error"),
], ids=["csv", "weiszfeld-csv", "snapshot", "config"])
def test_undecodable_bytes_name_the_file(tmp_path, capsys, argv, rc, kind):
    csv, _ = sample_csv(tmp_path, "d.csv", 20)
    bad = tmp_path / "bad"
    bad.write_bytes(_NOT_UTF8)
    code, out, err = run_cli(capsys, *(a.format(bad=bad, csv=csv) for a in argv))
    assert (code, out) == (rc, "")
    assert err.startswith(f"medcov: {kind}: ") and str(bad) in err and "utf-8" in err


_BYTE_PIECES = st.sampled_from([b"1", b"-2.5e3", b",", b"\n", b"\r", b" ", b"=", b"#", b"x",
                                b"nan", b"inf", b"1e999", b"\x00", b"\xff", b"\xc3",
                                b"\xe2\x82\xac", b"\xef\xbb\xbf"])


@settings(max_examples=50, deadline=None)
@given(st.binary(max_size=64) | st.lists(_BYTE_PIECES, max_size=24).map(b"".join),
       st.booleans())
def test_input_readers_raise_only_their_error(tmp_path_factory, blob, skip_header):
    # a CSV of any bytes is rows or a DataError, a config file of any
    # bytes is a dict or a ConfigError: nothing else escapes
    path = tmp_path_factory.mktemp("fuzz") / "blob"
    path.write_bytes(blob)
    try:
        list(_bench.iter_csv_rows(str(path), skip_header=skip_header))
    except DataError:
        pass
    try:
        cli._read_config_file(str(path))
    except ConfigError:
        pass


# ---------------------------------------------------------------------------
# fit-weiszfeld

def test_fit_weiszfeld_outputs_batch_estimates(tmp_path, capsys):
    path, data = sample_csv(tmp_path, "batch.csv", 25, seed=2)
    rc, out, _ = run_cli(capsys, "fit-weiszfeld", "--in", path, "--q", "2")
    assert rc == 0
    result = json.loads(out)
    assert result["n"] == 25
    np.testing.assert_allclose(result["median"], weiszfeld_median(data), atol=1e-8)
    assert len(result["eigenvalues"]) == 2
    assert result["eigenvalues"][0] >= result["eigenvalues"][1]


@pytest.mark.parametrize("q", [0, 5])
def test_fit_weiszfeld_rejects_a_q_outside_the_dimension(tmp_path, capsys, q):
    path = tmp_path / "four.csv"
    write_csv(path, np.random.default_rng(1).standard_normal((12, 4)))
    rc, out, err = run_cli(capsys, "fit-weiszfeld", "--in", str(path), "--q", str(q))
    assert (rc, out) == (2, "")
    assert err == f"medcov: config error: q must be in [1, 4], got {q}\n"


def test_fit_weiszfeld_iteration_cap_is_numerical_failure(tmp_path, capsys):
    path, _ = sample_csv(tmp_path, "batch.csv", 25, seed=3)
    rc, _, err = run_cli(capsys, "fit-weiszfeld", "--in", path,
                         "--max-iter", "1")
    assert rc == 4
    assert "numerical failure" in err


@pytest.mark.parametrize("eps", ["-1", "nan", "inf"])
def test_fit_weiszfeld_rejects_an_eps_that_is_not_finite_and_nonnegative(tmp_path, capsys, eps):
    # an eps that no displacement meets (-1, nan) or that every one meets (inf)
    path, _ = sample_csv(tmp_path, "batch.csv", 25, seed=3)
    rc, out, err = run_cli(capsys, "fit-weiszfeld", "--in", path, f"--eps={eps}",
                           "--max-iter", "50")
    assert (rc, out) == (2, "")
    assert err == f"medcov: config error: eps must be finite and >= 0, got {float(eps)}\n"


def test_fit_weiszfeld_overflow_stops_at_once(tmp_path, capsys):
    # a row from about 1e154 on has an infinite rank-one distance, so
    # weight 0 (below that it keeps its pull): the solve succeeds without
    # a warning at every scale here.  Rows at +-1.5e308 overflow
    # the iterate: the first non-finite sweep ends the solve instead of
    # 1000 NaN sweeps, with one line on stderr
    data = np.random.default_rng(4).standard_normal((200, 5))
    path = tmp_path / "wild.csv"
    for scale in (1e80, 1e160, 1e200, 1e300):
        wild = data.copy()
        wild[7] *= scale
        write_csv(path, wild)
        rc, _, err = run_cli(capsys, "fit-weiszfeld", "--in", str(path))
        assert (rc, err) == (0, ""), scale
    path.write_text("1.5e+308,0.0\n-1.5e+308,0.0\n1.5e+308,1.0\n")
    rc, _, err = run_cli(capsys, "fit-weiszfeld", "--in", str(path))
    assert rc == 4
    assert err.count("\n") == 1
    assert "numerical failure: Weiszfeld iterate overflowed" in err


def test_fit_weiszfeld_converges_at_a_large_scale(tmp_path, capsys):
    # the MCM's stop is relative to its start's Frobenius norm: an
    # absolute 1e-8 never came here (last displacement 1.2e-4, exit 4)
    path = tmp_path / "big.csv"
    write_csv(path, np.random.default_rng(4).standard_normal((200, 5)) * 1e6)
    rc, out, err = run_cli(capsys, "fit-weiszfeld", "--in", str(path))
    assert (rc, err) == (0, "")
    assert 1e11 < json.loads(out)["eigenvalues"][0] < 1e13


def test_fit_weiszfeld_writes_out_file(tmp_path, capsys):
    path, _ = sample_csv(tmp_path, "batch.csv", 25, seed=2)
    rc, printed, _ = run_cli(capsys, "fit-weiszfeld", "--in", path, "--q", "2")
    assert rc == 0
    out = tmp_path / "fit.json"
    assert run_cli(capsys, "fit-weiszfeld", "--in", path, "--q", "2",
                   "--out", str(out)) == (0, "", "")
    assert out.read_text(encoding="utf-8") == printed


def test_fit_weiszfeld_linalg_error_is_numerical_failure(tmp_path, capsys, monkeypatch):
    # LinAlgError subclasses ValueError, yet it is a numerical failure
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(cli, "weiszfeld_mcm", singular)
    path, _ = sample_csv(tmp_path, "x.csv", 20)
    rc, out, err = run_cli(capsys, "fit-weiszfeld", "--in", path)
    assert (rc, out) == (4, "")
    assert err == "medcov: numerical failure: Singular matrix\n"


def test_fit_weiszfeld_refuses_a_result_that_is_the_input(tmp_path, capsys, monkeypatch):
    # the result JSON would replace the CSV it was fitted from; refused
    # before any row is read, for the same name and for a hard link
    path = tmp_path / "a.csv"
    assert run_cli(capsys, "simulate", "--d", "3", "--n", "20", "--out", str(path))[0] == 0
    before = path.read_bytes()
    alias = tmp_path / "alias.csv"
    os.link(path, alias)  # another name for the same file
    calls = []
    rows = _bench.iter_csv_rows
    monkeypatch.setattr(_bench, "iter_csv_rows", lambda *a, **k: calls.append(a) or rows(*a, **k))
    for out_path in (path, alias):
        rc, out, err = run_cli(capsys, "fit-weiszfeld", "--in", str(path), "--out", str(out_path))
        assert (rc, out) == (2, "")
        assert err == f"medcov: config error: {out_path}: the result would overwrite the input\n"
    assert path.read_bytes() == before
    assert calls == []


def test_fit_weiszfeld_reads_blocks_only_after_the_refusal(tmp_path, capsys, monkeypatch):
    # fit-weiszfeld reads its input through the block reader, not
    # iter_csv_rows, and a refused --out still comes before any block
    path = tmp_path / "a.csv"
    assert run_cli(capsys, "simulate", "--d", "3", "--n", "20", "--out", str(path))[0] == 0
    calls = []
    blocks = _bench._csv_blocks
    monkeypatch.setattr(_bench, "_csv_blocks", lambda *a: calls.append(a) or blocks(*a))
    rc, out, _ = run_cli(capsys, "fit-weiszfeld", "--in", str(path), "--out", str(path))
    assert (rc, out, calls) == (2, "", [])
    rc, out, _ = run_cli(capsys, "fit-weiszfeld", "--in", str(path))
    assert (rc, json.loads(out)["n"], calls) == (0, 20, [(str(path), False)])


def test_memory_error_is_a_data_error(tmp_path, capsys, monkeypatch):
    # one stderr line and exit 3, not a traceback; numpy's message names
    # the allocation, and a bare MemoryError has none
    def no_room_for_rows(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.28 TiB for an array with shape "
                          "(1000000000000,) and data type float64")

    path, _ = sample_csv(tmp_path, "x.csv", 20)
    monkeypatch.setattr(cli, "_load_points", no_room_for_rows)
    rc, out, err = run_cli(capsys, "fit-weiszfeld", "--in", path)
    assert (rc, out) == (3, "")
    assert err == ("medcov: data error: out of memory: Unable to allocate 7.28 TiB for an "
                   "array with shape (1000000000000,) and data type float64\n")

    def no_room(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(_bench, "StreamingRobustPCA", no_room)
    rc, out, err = run_cli(capsys, "fit-stream", "--in", path)
    assert (rc, out, err) == (3, "", "medcov: data error: out of memory\n")


# ---------------------------------------------------------------------------
# bench and curve

def test_bench_prints_report(capsys):
    rc, out, _ = run_cli(capsys, "bench", "--d", "5", "--n", "60",
                         "--reps", "2", "--q", "1", "--estimators", "pca,mcm_r",
                         "--seed", "4")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0].startswith("estimator,scenario,delta,d,n,q,reps,excluded")
    assert len(lines) == 3
    assert lines[1].startswith("pca,")
    assert lines[2].startswith("mcm_r,")


def test_bench_rejects_unknown_estimator(capsys):
    rc, _, err = run_cli(capsys, "bench", "--estimators", "pca,bogus")
    assert rc == 2
    assert "bogus" in err


def test_bench_rejects_bad_worker_env(monkeypatch, capsys):
    monkeypatch.setenv("MEDCOV_MAX_WORKERS", "many")
    rc, _, err = run_cli(capsys, "bench", "--d", "4", "--n", "30",
                         "--reps", "2", "--q", "1", "--estimators", "pca")
    assert rc == 2


def test_curve_requires_checkpoints(capsys):
    rc, _, err = run_cli(capsys, "curve", "--d", "4", "--n", "50", "--reps", "2")
    assert rc == 2
    assert "checkpoints" in err


def test_curve_rejects_checkpoint_beyond_stream(capsys):
    rc, _, _ = run_cli(capsys, "curve", "--d", "4", "--n", "50", "--reps", "2",
                       "--checkpoints", "40,80")
    assert rc == 2


@pytest.mark.parametrize("checkpoints,message", [
    ("a,b", "cannot parse checkpoints 'a,b'"),
    (",", "checkpoints must be nonempty"),
    ("1,10", "checkpoints must start at 2 or later"),
], ids=["not-integers", "empty", "from-1"])
def test_curve_rejects_bad_checkpoints(capsys, checkpoints, message):
    rc, out, err = run_cli(capsys, "curve", "--d", "4", "--n", "50", "--reps", "2",
                           "--checkpoints", checkpoints)
    assert (rc, out) == (2, "")
    assert err == f"medcov: config error: {message}\n"


def test_curve_prints_table(capsys):
    rc, out, _ = run_cli(capsys, "curve", "--d", "5", "--n", "80", "--reps", "2",
                         "--q", "1", "--checkpoints", "40,80", "--seed", "5")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "checkpoint,series,mean_R,reps"
    assert len(lines) == 1 + 2 * 4  # two checkpoints, four series


def test_curve_with_every_replication_failed_is_numerical_failure(capsys, monkeypatch):
    monkeypatch.delenv(_bench.WORKERS_ENV, raising=False)
    monkeypatch.setattr(_bench, "_curve_replication", lambda task: None)
    rc, out, err = run_cli(capsys, "curve", "--d", "4", "--n", "50", "--reps", "2",
                           "--q", "1", "--checkpoints", "20,50")
    assert (rc, out) == (4, "")
    assert err == "medcov: numerical failure: every curve replication failed\n"


@pytest.mark.parametrize("argv,message", [
    (("fit-stream", "--c-median", "-1"), "step constant must be positive, got -1.0"),
    (("bench", "--alpha", "1.5"), "step exponent must lie in (0.5, 1), got 1.5"),
    (("curve", "--alpha", "0.2", "--checkpoints", "10"),
     "step exponent must lie in (0.5, 1), got 0.2"),
    (("fit-stream", "--c-median", "inf"), "step constant must be finite, got inf"),
])
def test_bad_step_constant_is_config_error(capsys, argv, message):
    # StepSchedule raises a bare ValueError; main maps it to exit 2
    rc, out, err = run_cli(capsys, *argv)
    assert (rc, out) == (2, "")
    assert err == f"medcov: config error: {message}\n"


# ---------------------------------------------------------------------------
# config files

def test_config_file_with_flag_overrides(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# desk-scale run\nd = 6\nn = 40\nreps = 2\nq = 1\n"
                   "estimators = pca\n")
    out = tmp_path / "report.csv"
    rc, _, _ = run_cli(capsys, "bench", "--config", str(cfg),
                       "--reps", "3", "--out", str(out))
    assert rc == 0
    meta = json.loads((tmp_path / "report.csv.meta.json").read_text())
    assert meta["config"]["scenario"]["d"] == 6
    assert meta["config"]["replications"] == 3  # flag wins over file
    assert out.read_text().count("\n") == 2  # header + one estimator


def test_config_file_rejects_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("dee = 6\n")
    rc, _, err = run_cli(capsys, "bench", "--config", str(cfg))
    assert rc == 2


def test_config_file_rejects_malformed_line(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("d 6\n")
    rc, _, err = run_cli(capsys, "bench", "--config", str(cfg))
    assert rc == 2


def test_config_file_in_alias(tmp_path, capsys):
    path, _ = sample_csv(tmp_path, "data.csv", 12)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"in = {path}\nq = 1\n")
    rc, out, _ = run_cli(capsys, "fit-stream", "--config", str(cfg))
    assert rc == 0
    assert json.loads(out)["rows"] == 12


# ---------------------------------------------------------------------------
# option table: every option reads the same from a flag and a config key

# one valid raw value per option key, none equal to any command's default
GOOD = {
    "d": "7", "n": "9", "delta": "0.25", "scenario": "student_t1",
    "estimators": "pca,mcm_r", "reps": "3", "seed": "5", "q": "1",
    "alpha": "0.6", "c_median": "1.5", "c_mcm": "2.5", "psd_mode": "off",
    "eigen_seed": "4", "eigen_lag": "11", "input": "data.csv", "eps": "1e-6",
    "max_iter": "17", "resume": "snap.json", "scores_out": "scores.csv",
    "checkpoints": "10,20", "header": "on", "out": "result.csv",
}

OPTION_PAIRS = [(cmd, key) for cmd, defaults in cli._DEFAULTS.items()
                for key in defaults]


def merged(argv):
    return cli._merge_options(cli._build_parser().parse_args(argv))


def flag_argv(key, raw):
    flag = cli._OPTIONS[key][0]
    return [flag] if key == "header" else [flag, raw]


def config_argv(tmp_path, key, raw):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{cli._OPTIONS[key][0][2:]} = {raw}\n")
    return ["--config", str(cfg)]


def test_option_table_covers_every_command_option():
    assert len(cli._OPTIONS) == 22
    assert set(GOOD) == set(cli._OPTIONS)
    assert {key for _, key in OPTION_PAIRS} == set(cli._OPTIONS)


@pytest.mark.parametrize("cmd,key", OPTION_PAIRS)
def test_option_flag_and_config_key_agree(tmp_path, cmd, key):
    by_flag = merged([cmd, *flag_argv(key, GOOD[key])])
    by_config = merged([cmd, *config_argv(tmp_path, key, GOOD[key])])
    assert by_flag == by_config
    assert by_flag[key] != cli._DEFAULTS[cmd][key]


@pytest.mark.parametrize("cmd,key", [
    (cmd, key) for cmd, key in OPTION_PAIRS if cli._OPTIONS[key][1] is not str
])
def test_option_bad_value_exits_2_both_ways(tmp_path, capsys, cmd, key):
    with pytest.raises(SystemExit) as exc:  # "--header bogus" leaves a stray argument
        main([cmd, cli._OPTIONS[key][0], "bogus"])
    assert exc.value.code == 2
    rc, _, err = run_cli(capsys, cmd, *config_argv(tmp_path, key, "bogus"))
    assert rc == 2
    assert "config error" in err


@pytest.mark.parametrize("cmd", list(cli._DEFAULTS))
def test_help_lists_exactly_the_table_flags(capsys, cmd):
    with pytest.raises(SystemExit):
        main([cmd, "--help"])
    listed = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", capsys.readouterr().out))
    table = {cli._OPTIONS[key][0] for key in cli._DEFAULTS[cmd]}
    assert listed == table | {"--help", "--config"}


# ---------------------------------------------------------------------------
# installed entry point

def test_import_does_not_load_scipy():
    # importing scipy.linalg.blas costs several times all of medcov's import;
    # the process pool's modules load only when a pool runs
    proc = subprocess.run(
        [sys.executable, "-c", "import medcov, sys; assert not {'scipy', "
         "'concurrent.futures.process', 'multiprocessing'} & sys.modules.keys()"],
        capture_output=True, text=True, env=_env_importing_this_medcov())
    assert proc.returncode == 0, proc.stderr


def test_console_script_help():
    proc = subprocess.run([sys.executable, "-m", "medcov.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    for cmd in ("simulate", "fit-stream", "fit-weiszfeld", "bench", "curve"):
        assert cmd in proc.stdout
