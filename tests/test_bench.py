"""Benchmark harness: Monte Carlo tables, convergence curves, CSV streaming,
snapshots, and determinism guarantees."""

import base64
import errno
import importlib.util
import json
import os
from pathlib import Path

import numpy as np
import pytest

import medcov.bench as bench
from medcov import (
    ConfigError,
    DataError,
    OnlineEigenTracker,
    RunConfig,
    ScenarioConfig,
    StepSchedule,
    StreamingRobustPCA,
    calibrated_schedules,
    convergence_curve,
    fit_stream,
    iter_csv_rows,
    load_snapshot,
    run_benchmark,
    save_snapshot,
    top_q_projector,
    write_csv,
)
from medcov.bench import write_report
from medcov.online_pca import SNAPSHOT_VERSION
from oracles import csv_rows_per_cell, per_mode_mcm_fits

DATA = Path(__file__).resolve().parent / "data"


def write_rows(path, rows):
    write_csv(path, np.asarray(rows, dtype=np.float64))
    return str(path)


# ---------------------------------------------------------------------------
# schedules and configuration

def test_calibrated_schedules_scale_with_dimension():
    med, cov = calibrated_schedules(100)
    assert med == StepSchedule(c=0.5 * 10.0, alpha=0.75)
    assert cov == StepSchedule(c=0.5 * 100.0, alpha=0.75)
    med, cov = calibrated_schedules(4, c_median=1.0, c_mcm=3.0, alpha=0.8)
    assert med == StepSchedule(c=1.0, alpha=0.8)
    assert cov == StepSchedule(c=3.0, alpha=0.8)
    with pytest.raises(ConfigError, match=r"^dimension must be >= 1, got 0$"):
        calibrated_schedules(0)


def test_run_config_fills_schedules():
    cfg = RunConfig(scenario=ScenarioConfig(d=16))
    assert cfg.median_schedule == StepSchedule(c=2.0, alpha=0.75)
    assert cfg.cov_schedule == StepSchedule(c=8.0, alpha=0.75)


def test_run_config_validation():
    scen = ScenarioConfig(d=10)
    with pytest.raises(ConfigError):
        RunConfig(scenario=scen, estimators=("pca", "bogus"))
    with pytest.raises(ConfigError):
        RunConfig(scenario=scen, estimators=())
    with pytest.raises(ConfigError):
        RunConfig(scenario=scen, q=11)
    with pytest.raises(ConfigError):
        RunConfig(scenario=scen, replications=0)
    with pytest.raises(ConfigError, match=r"^sample size must be >= 1, got 0$"):
        RunConfig(scenario=scen, n=0)
    with pytest.raises(ConfigError, match=r"^scenario must be a ScenarioConfig$"):
        RunConfig(scenario={"d": 10})
    # estimator order is canonicalized regardless of request order
    cfg = RunConfig(scenario=scen, estimators=("mcm_r", "pca"))
    assert cfg.estimators == ("pca", "mcm_r")


def test_worker_resolution(monkeypatch):
    monkeypatch.delenv("MEDCOV_MAX_WORKERS", raising=False)
    assert bench.resolve_workers() == 1
    assert bench.resolve_workers(3) == 3
    monkeypatch.setenv("MEDCOV_MAX_WORKERS", "5")
    assert bench.resolve_workers() == 5
    monkeypatch.setenv("MEDCOV_MAX_WORKERS", "zero")
    with pytest.raises(ConfigError):
        bench.resolve_workers()
    with pytest.raises(ConfigError):
        bench.resolve_workers(0)


# ---------------------------------------------------------------------------
# CSV plumbing

def test_iter_csv_rows_reports_ragged_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,2\n3,4\n5\n")
    with pytest.raises(DataError, match="line 3"):
        list(iter_csv_rows(path))


def test_iter_csv_rows_reports_bad_cell(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,2\n3,oops\n")
    with pytest.raises(DataError, match="line 2"):
        list(iter_csv_rows(path))


def test_csv_roundtrip_preserves_values(tmp_path):
    rng = np.random.default_rng(0)
    data = rng.standard_normal((20, 3)) * 10.0 ** rng.integers(-8, 8, (20, 1))
    path = tmp_path / "data.csv"
    write_csv(path, data, header=True)
    rows = list(iter_csv_rows(path, skip_header=True))
    assert [line for line, _ in rows] == list(range(2, 22))
    np.testing.assert_array_equal(np.array([v for _, v in rows]), data)


def test_write_csv_writes_each_value_as_its_shortest_repr(tmp_path):
    values = np.array([[0.1, -0.0, 5e-324, np.finfo(float).max],
                       [1e22, -1.5e-7, 3.0, 2.0 / 3.0]])
    path = tmp_path / "values.csv"
    write_csv(path, values, header=True)
    expected = "x1,x2,x3,x4\n" + "".join(
        ",".join(repr(float(v)) for v in row) + "\n" for row in values)
    assert path.read_text(encoding="utf-8") == expected


def test_write_csv_rejects_a_vector(tmp_path):
    path = tmp_path / "vector.csv"
    with pytest.raises(ValueError, match=r"^expected a 2-D sample array, got shape \(3,\)$"):
        write_csv(path, np.ones(3))
    assert not path.exists()


@pytest.mark.parametrize("writer", ["write_lines", "write_csv"])
def test_a_write_that_fails_part_way_keeps_the_old_file(tmp_path, monkeypatch, writer):
    # each writer's source fails after its first line, as a full disk would
    path = tmp_path / "out.csv"
    path.write_bytes(b"precious\n")
    full = OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def lines():
        yield "1.0,2.0"
        raise full

    def first_row_then_full(fh, rows, header, stream=bench._write_csv_stream):
        stream(fh, rows[:1], header)
        raise full

    monkeypatch.setattr(bench, "_write_csv_stream", first_row_then_full)
    with pytest.raises(OSError) as info:
        if writer == "write_lines":
            bench._write_lines(str(path), lines())
        else:
            write_csv(str(path), np.ones((2, 2)))
    assert (info.value.errno, info.value.filename) == (errno.ENOSPC, str(path))
    assert path.read_bytes() == b"precious\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]  # no *.tmp left beside it


# (file text, skip_header): rows that parse in one call, and rows whose
# error must name the same line and column as the per-cell parser.  The
# row parser takes each cell as float() does: it accepts and rejects the
# same cells, with the same bits
_CSV_EDGE_CASES = {
    "underscore": ("1_000,2\n3,4\n", False),
    "double-underscore": ("1,2\n3,1__0\n", False),
    "padded": (" 1.5 ,2\n3, 4.5 \n", False),
    "nbsp-padded": ("\u00a0-0\u2003,2\n", False),
    "bare-point": ("+.5,-.5\n", False),
    "plus": ("+1,2\n", False),
    "hex": ("1,2\n0x10,4\n", False),
    "binary": ("0b1,2\n", False),
    "nul": ("1,1.5\x00\n", False),
    "no-exponent": ("1e,2\n", False),
    "underflow": ("1e-400,4.9e-324\n", False),
    "infinity-word": ("1,-Infinity\n", False),
    "nan": ("1,2\n3,nan\n", False),
    "inf": ("1,2\n-inf,4\n", False),
    "overflow": ("1,1e400\n", False),
    "empty-cell": ("1,2\n3,\n", False),
    "bad-then-nan": ("oops,nan\n", False),
    "nan-then-bad": ("nan,oops\n", False),
    "fullwidth-digits": ("\uff11\uff12,\u0663\n4,5\n", False),
    "arabic-indic-digits": ("\u0661\u0662,1\n", False),
    "ragged": ("1,2\n3,4,5\n", False),
    "header-skipped": ("x1,x2\n1,2\n", True),
    "header-read": ("x1,x2\n1,2\n", False),
    "trailing-blank": ("1,2\n3,4\n\n", False),
    "crlf": ("1,2\r\n3,4\r\n", False),
    "extremes": ("-0.0,5e-324,1.7976931348623157e308\n", False),
    "single-column": ("1\n2\n", False),
}


def _drain(rows):
    """Everything a CSV reader yields, then its DataError message if any."""
    out = []
    try:
        for line_no, vec in rows:
            out.append((line_no, vec.dtype.str, vec.tobytes()))
    except DataError as exc:
        out.append(str(exc))
    return out


@pytest.mark.parametrize("text,skip_header", list(_CSV_EDGE_CASES.values()),
                         ids=list(_CSV_EDGE_CASES))
def test_iter_csv_rows_matches_the_per_cell_parser(tmp_path, text, skip_header):
    path = tmp_path / "edge.csv"
    path.write_bytes(text.encode("utf-8"))
    ours = _drain(iter_csv_rows(path, skip_header=skip_header))
    assert ours == _drain(csv_rows_per_cell(path, skip_header=skip_header))
    assert ours  # every case yields a row or raises


# ---------------------------------------------------------------------------
# eigenspace projectors

def test_top_q_projector_of_diagonal():
    p = top_q_projector(np.diag([5.0, 1.0, 3.0]), 2)
    np.testing.assert_allclose(p, np.diag([1.0, 0.0, 1.0]), atol=1e-12)
    with pytest.raises(ValueError, match=r"^q must be in \[1, 3\], got 4$"):
        top_q_projector(np.eye(3), 4)


# ---------------------------------------------------------------------------
# Monte Carlo benchmark

def test_clean_pca_sanity():
    cfg = RunConfig(scenario=ScenarioConfig(d=10), n=2000, q=1,
                    replications=10, estimators=("pca",))
    (row,) = run_benchmark(cfg)
    assert row.estimator == "pca"
    assert row.excluded == 0
    assert row.median_R <= 0.05


def test_contaminated_desk_example():
    # 10% one-degree Student contamination wrecks PCA but not the MCM
    cfg = RunConfig(
        scenario=ScenarioConfig(d=50, delta=0.10, contamination="student_t1"),
        n=200, q=2, replications=50, estimators=("pca", "mcm_rplus"), seed=0,
    )
    pca, mcm = run_benchmark(cfg)
    assert pca.median_R > 1.0
    assert mcm.median_R < 0.2


def test_single_replication_collapses_quartiles():
    cfg = RunConfig(scenario=ScenarioConfig(d=5), n=100, q=1,
                    replications=1, estimators=("pca", "mcm_r"))
    for row in run_benchmark(cfg):
        assert row.q1_R == row.median_R == row.q3_R
        assert row.mean_R == row.median_R


def test_failed_replications_are_excluded(monkeypatch):
    calls = {"n": 0}
    real = bench._FITTERS["pca"]

    def flaky(x, cfg):
        calls["n"] += 1
        if calls["n"] % 2 == 0:
            raise ValueError("synthetic failure")
        return real(x, cfg)

    monkeypatch.setitem(bench._FITTERS, "pca", flaky)
    cfg = RunConfig(scenario=ScenarioConfig(d=5), n=50, q=1,
                    replications=6, estimators=("pca",))
    (row,) = run_benchmark(cfg, workers=1)
    assert row.excluded == 3
    assert np.isfinite(row.median_R)


def test_overflowing_sample_excludes_its_pca_replication(monkeypatch):
    # rows of +-1e308 overflow the sample covariance: FloatingPointError
    # excludes the replication, and no RuntimeWarning escapes
    real = bench.draw_sample

    def wild(scenario, n):
        x = real(scenario, n)
        a = np.where(np.arange(scenario.d) % 2, -1e308, 1e308)
        if scenario.seed % 4 == 1:
            x[:2] = a, -a  # a finite mean, an overflowing scatter
        elif scenario.seed % 4 == 3:
            x[:2] = a, a  # an overflowing mean
        return x

    monkeypatch.setattr(bench, "draw_sample", wild)
    cfg = RunConfig(scenario=ScenarioConfig(d=5), n=50, q=1,
                    replications=8, estimators=("pca",))
    (row,) = run_benchmark(cfg, workers=1)
    assert row.excluded == 4
    assert np.isfinite(row.median_R)


def test_streaming_estimators_share_one_pass(monkeypatch):
    # mcm_r and mcm_rplus as lanes of one block-form pass report what two
    # one-mode block-form fits report, at every worker count
    cfg = RunConfig(scenario=ScenarioConfig(d=6, delta=0.1, contamination="student_t1"),
                    n=120, q=2, replications=4, seed=5)
    lines = {w: bench.report_lines(run_benchmark(cfg, workers=w)) for w in (1, 2)}
    monkeypatch.setattr(bench, "_block_fits", per_mode_mcm_fits)
    assert lines[1] == lines[2] == bench.report_lines(run_benchmark(cfg, workers=1))


def test_a_failing_lane_excludes_only_its_estimator(monkeypatch):
    # with a step constant of 1e300 the raw lane's |V|_F^2 overflows on its
    # first step, while the PSD clip keeps the other lane finite; both run
    # in one _block_fits pass per replication
    base = {"scenario": ScenarioConfig(d=4, delta=0.1, contamination="student_t1"),
            "n": 50, "q": 2, "replications": 4, "seed": 1,
            "cov_schedule": StepSchedule(1e300, 0.75)}
    calls, fits = [], bench._block_fits
    monkeypatch.setattr(bench, "_block_fits", lambda *a, **k: calls.append(a) or fits(*a, **k))
    rows = {row.estimator: row for row in run_benchmark(RunConfig(**base), workers=1)}
    assert len(calls) == 4
    (solo,) = run_benchmark(RunConfig(**base, estimators=("mcm_rplus",)), workers=1)
    assert rows["mcm_r"].excluded == 4
    assert (rows["mcm_rplus"].excluded, rows["pca"].excluded, rows["mcm_w"].excluded) == (0, 0, 0)
    assert bench.report_lines([rows["mcm_rplus"]]) == bench.report_lines([solo])


def test_reports_are_deterministic_across_workers(tmp_path):
    cfg = RunConfig(scenario=ScenarioConfig(d=8, delta=0.05,
                                            contamination="student_t2"),
                    n=150, q=2, replications=4,
                    estimators=("pca", "mcm_r", "mcm_rplus"), seed=7)
    texts = {}
    for workers in (1, 2):
        rows = run_benchmark(cfg, workers=workers)
        path = tmp_path / f"report_w{workers}.csv"
        write_report(rows, str(path), cfg=cfg, workers=workers)
        texts[workers] = path.read_bytes()
        meta = json.loads((tmp_path / f"report_w{workers}.csv.meta.json").read_text())
        assert meta["config"]["seed"] == 7
        assert meta["workers"] == workers
    assert texts[1] == texts[2]
    header = texts[1].decode().splitlines()[0]
    assert header == ",".join(bench.REPORT_COLUMNS)
    assert "wall" not in header


# ---------------------------------------------------------------------------
# convergence curves

def test_curve_rows_and_clean_trend():
    cfg = RunConfig(scenario=ScenarioConfig(d=10), n=400, q=1,
                    replications=3, seed=1)
    points = convergence_curve(cfg, [100, 400])
    assert len(points) == len(bench.CURVE_SERIES) * 2
    by = {(p.series, p.checkpoint): p.mean_R for p in points}
    for series in ("pca", "mcm", "mcm_online"):
        assert by[(series, 400)] < by[(series, 100)]


def test_curve_single_checkpoint():
    cfg = RunConfig(scenario=ScenarioConfig(d=6), n=120, q=1,
                    replications=2, seed=2)
    points = convergence_curve(cfg, [120])
    assert sorted(p.series for p in points) == sorted(bench.CURVE_SERIES)
    assert all(p.checkpoint == 120 and p.reps == 2 for p in points)


def test_curve_points_are_identical_across_workers():
    cfg = RunConfig(scenario=ScenarioConfig(d=6, delta=0.1, contamination="student_t1"),
                    n=120, q=2, replications=3, seed=4)
    lines = {w: bench.report_lines(convergence_curve(cfg, [40, 120], workers=w),
                                   bench.CURVE_COLUMNS) for w in (1, 2)}
    assert lines[1] == lines[2]


def test_curve_replication_stops_at_its_last_checkpoint(monkeypatch):
    # each replication feeds exactly checkpoints[-1] rows, checked as
    # blocks between checkpoints, not the whole sample of n rows
    fed = []
    original = StreamingRobustPCA._update

    def counted(self, x):
        fed.append(self)
        return original(self, x)

    monkeypatch.setattr(StreamingRobustPCA, "_update", counted)
    cfg = RunConfig(scenario=ScenarioConfig(d=5), n=120, q=2, replications=3, seed=6)
    points = convergence_curve(cfg, [20, 60], workers=1)
    assert all(p.reps == 3 for p in points)
    assert sorted(map(fed.count, set(fed))) == [60, 60, 60]


def test_curve_writes_its_table(tmp_path):
    out = tmp_path / "curve.csv"
    cfg = RunConfig(scenario=ScenarioConfig(d=5), n=60, q=1, replications=2, seed=3,
                    output_path=str(out))
    points = convergence_curve(cfg, [30, 60], workers=1)
    lines = bench.report_lines(points, bench.CURVE_COLUMNS)
    assert out.read_text(encoding="utf-8") == "".join(line + "\n" for line in lines)


def test_curve_checkpoint_inside_the_warmup_forces_the_tracker_ready(monkeypatch):
    # at row 2 of d = 5, q = 3 the tracker is still absorbing its lag of
    # d MCM updates, so each replication completes its warm-up there
    forced = []
    real = OnlineEigenTracker.force_ready

    def counted(self):
        forced.append(self)
        return real(self)

    monkeypatch.setattr(OnlineEigenTracker, "force_ready", counted)
    cfg = RunConfig(scenario=ScenarioConfig(d=5), n=40, q=3, replications=2, seed=1)
    points = convergence_curve(cfg, [2, 40], workers=1)
    assert len(forced) == len(set(forced)) == 2
    assert all(p.reps == 2 and 0.0 <= p.mean_R <= 6.0 for p in points)


@pytest.mark.filterwarnings("ignore:overflow encountered in subtract:RuntimeWarning")
def test_a_failing_curve_replication_is_dropped_from_every_series(monkeypatch):
    # replication 1's stream overflows at its second row: the curve
    # averages the other two over every series and reports reps = 2
    real = bench.draw_sample

    def wild(scenario, n):
        x = real(scenario, n)
        if scenario.seed == 1:
            x[0], x[1] = 1e308, -1e308
        return x

    monkeypatch.setattr(bench, "draw_sample", wild)
    cfg = RunConfig(scenario=ScenarioConfig(d=4), n=30, q=1, replications=3, seed=0)
    points = convergence_curve(cfg, [15, 30], workers=1)
    kept = [bench._curve_replication((cfg, (15, 30), True, None, r)) for r in (0, 2)]
    assert len(points) == 2 * len(bench.CURVE_SERIES)
    for p in points:
        assert p.reps == 2
        assert p.mean_R == float(np.mean([res[p.checkpoint][p.series] for res in kept]))


def test_curve_requires_increasing_checkpoints():
    cfg = RunConfig(scenario=ScenarioConfig(d=6), n=100, q=1, replications=2)
    with pytest.raises(ConfigError):
        convergence_curve(cfg, [50, 50])
    with pytest.raises(ConfigError):
        convergence_curve(cfg, [80, 40])
    with pytest.raises(ConfigError):
        convergence_curve(cfg, [50, 200])  # beyond the stream length


# ---------------------------------------------------------------------------
# streaming fits and snapshots

def test_fit_stream_counts_rows(tmp_path):
    path = write_rows(tmp_path / "d.csv", [[0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    snapshot, report = fit_stream(path, q=1)
    assert report["rows"] == 3
    assert snapshot["mcm"]["n"] == 2  # first row only seeds the median
    assert report["q"] == 1


def test_fit_stream_constant_rows(tmp_path):
    p = [2.5, -1.0, 0.5]
    path = write_rows(tmp_path / "const.csv", [p] * 50)
    _, report = fit_stream(path, q=1)
    np.testing.assert_allclose(report["median"], p, atol=1e-9)


def test_fit_stream_resume_is_bitwise(tmp_path):
    rng = np.random.default_rng(3)
    data = rng.standard_normal((40, 3))
    full = write_rows(tmp_path / "full.csv", data)
    head = write_rows(tmp_path / "head.csv", data[:17])
    tail = write_rows(tmp_path / "tail.csv", data[17:])

    snap_full, report_full = fit_stream(full, q=2)
    snap_head, _ = fit_stream(head, q=2)
    snap_path = tmp_path / "head.snapshot.json"
    save_snapshot(snap_head, str(snap_path))
    snap_resumed, report_resumed = fit_stream(tail, resume=str(snap_path))

    assert snap_resumed == snap_full
    assert report_resumed["rows"] == report_full["rows"] == 40
    assert report_resumed["eigenvalues"] == report_full["eigenvalues"]


def test_fit_stream_rejects_ragged_rows(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("1,2\n3,4,5\n")
    with pytest.raises(DataError, match="line 2"):
        fit_stream(str(path))


def test_fit_stream_scores_sidecar(tmp_path):
    rng = np.random.default_rng(4)
    data = rng.standard_normal((30, 3))
    path = write_rows(tmp_path / "d.csv", data)
    out = tmp_path / "scores.csv"
    fit_stream(path, q=2, eigen_lag=0, scores_out=str(out))
    lines = out.read_text().splitlines()
    assert lines[0] == "pc1,pc2,ortho_dist"
    assert len(lines) == 31
    assert "nan" in lines[1]  # tracker not ready on the very first row
    last = [float(c) for c in lines[-1].split(",")]
    assert all(np.isfinite(last))


def test_snapshot_roundtrip_and_size_independent_of_n(tmp_path):
    rng = np.random.default_rng(5)
    sizes = {}
    for n in (200, 2000):
        est = StreamingRobustPCA(6, 2, eigen_seed=0)
        for x in rng.standard_normal((n, 6)):
            est.update(x)
        path = tmp_path / f"snap_{n}.json"
        save_snapshot(est.state_dict(), str(path))
        sizes[n] = os.path.getsize(path)
        clone = StreamingRobustPCA.from_state_dict(load_snapshot(str(path)))
        assert clone.state_dict() == est.state_dict()
    # state is a fixed set of counters/matrices: 10x more rows may only
    # change a few decimal digit widths, never grow with n
    assert sizes[2000] <= 1.05 * sizes[200]


def test_snapshot_v3_packs_the_mcm_triangles(tmp_path):
    est = StreamingRobustPCA(4, 2, eigen_seed=0)
    for x in np.random.default_rng(6).standard_normal((30, 4)):
        est.update(x)
    path = tmp_path / "snap.json"
    save_snapshot(est.state_dict(), str(path))
    state = load_snapshot(str(path))
    assert state["version"] == 3 and "block" not in state["mcm"]  # d=4 runs the row path
    rows, cols = np.triu_indices(4)
    for key, mat in (("v", est.mcm.iterate), ("vbar", est.mcm.estimate)):
        raw = base64.b64decode(state["mcm"][key], validate=True)
        assert raw == mat[rows, cols].astype("<f8").tobytes(order="C")
    assert path.read_text(encoding="utf-8") == json.dumps(est.state_dict()) + "\n"


def test_snapshot_v1_resumes_as_its_own_version_did():
    # tests/data: a d=3 snapshot in format version 1 (nested lists), a
    # tail CSV, and version 1's own resume of that snapshot on the tail
    head = load_snapshot(str(DATA / "snapshot_v1_d3.json"))
    assert head["version"] == 1 and isinstance(head["mcm"]["v"], list)
    loaded = StreamingRobustPCA.from_state_dict(head)
    assert np.array_equal(loaded.mcm.iterate, head["mcm"]["v"])
    assert np.array_equal(loaded.mcm.estimate, head["mcm"]["vbar"])

    snapshot, _ = fit_stream(str(DATA / "snapshot_v1_d3_tail.csv"),
                             resume=str(DATA / "snapshot_v1_d3.json"))
    assert snapshot["version"] == SNAPSHOT_VERSION
    ours = StreamingRobustPCA.from_state_dict(snapshot)
    theirs = StreamingRobustPCA.from_state_dict(
        load_snapshot(str(DATA / "snapshot_v1_d3_resumed.json")))
    for model in (ours, theirs):
        assert model.rows == 40 and model.tracker.ready
    pairs = [(m.mcm.iterate, m.mcm.estimate, m.mcm.median_estimate,
              m.mcm._median.iterate, m.tracker.raw) for m in (ours, theirs)]
    assert all(np.array_equal(a, b) for a, b in zip(*pairs))
    assert ours.state_dict() == theirs.state_dict()


def test_snapshot_rejects_foreign_payload(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("[]\n")
    with pytest.raises(DataError):
        load_snapshot(str(path))
    path.write_text("not json")
    with pytest.raises(DataError):
        load_snapshot(str(path))
    with pytest.raises(DataError, match="format"):
        StreamingRobustPCA.from_state_dict({"format": "something-else"})
    good = StreamingRobustPCA(3, 1).state_dict()
    with pytest.raises(DataError, match="version"):
        StreamingRobustPCA.from_state_dict({**good, "version": 99})


# ---------------------------------------------------------------------------
# benchmark trace points

def test_perfbench_trace_points_resolve():
    # The tracer silently skips a callable the package no longer has, so
    # a moved name would zero its per-layer metric without any error.
    # Retired entries are callables deleted on purpose; their layers read
    # 0 by design.  The tracker no longer symmetrizes Vbar on each step,
    # and the package steps the median and the MCM only through their
    # unchecked ``_update``, so both inherit the public ``update``.  The
    # tracker warms up only through ``_offer``; the public ``offer`` is gone.
    retired = {("medcov.online_pca", "as_sym_matrix"), ("GeometricMedianSGD", "update"),
               ("MedianCovariationSGD", "update"), ("OnlineEigenTracker", "offer")}
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    points = {(owner.__name__, attr): owner for owner, attr, _, _ in tracer.layer_patches()}
    assert retired <= points.keys()
    assert [p for p in retired if p[1] in vars(points[p])] == []
    assert [p for p, owner in points.items() if p not in retired and p[1] not in vars(owner)] == []
