"""The MCM's block forms against the row path.  The streaming
pipeline's deferred MCM (``mcm._BlockMCM``): the same recursion to
1e-12, exact symmetry at every fold, the row path's failure rule, and a
resume that is bitwise the one-pass run wherever the stream is cut.
``bench``'s block fit (``mcm._block_fits``): the same recursion to
1e-12, exact symmetry, and lanes that are bit for bit one-mode fits."""

import json

import numpy as np
import pytest

import medcov.mcm as mcm
from medcov import DataError, MedianCovariationSGD, NumericalError, StepSchedule, StreamingRobustPCA
from medcov.geomedian import GeometricMedianSGD
from medcov.bench import calibrated_schedules
from medcov.cli import main
from medcov.linalg import pack_array
from oracles import per_mode_mcm_fits
from test_mcm import _edge_stream

ROW_PATH = 10**9  # a _BLOCK_MIN_DIM that no test dimension reaches


def _pipelines(monkeypatch, d, q, **kwargs):
    """(block-path, row-path) pipelines built alike."""
    models = []
    for min_dim in (1, ROW_PATH):
        monkeypatch.setattr(mcm, "_BLOCK_MIN_DIM", min_dim)
        models.append(StreamingRobustPCA(d, q, **kwargs))
    assert isinstance(models[0].mcm, mcm._BlockMCM)
    assert type(models[1].mcm) is MedianCovariationSGD
    return models


def _close(a, b, rtol=1e-12):
    """Entrywise within ``rtol`` of the largest entry of ``b``."""
    return np.abs(a - b).max() <= rtol * np.abs(b).max()


def _stream(d, seed, ms, cs, known, flat):
    """``_edge_stream`` (x1e75 and x1e120 rows, a row on the center, a full
    shrink and, with ``flat``, -0 entries) and 120 heavy-tailed rows more,
    so that three blocks fold."""
    head = _edge_stream(d, seed, ms, cs, known, flat=flat)
    return np.vstack([head, np.random.default_rng(seed).standard_t(2, (120, d))])


@pytest.mark.parametrize("joint", [True, False], ids=["joint", "known"])
@pytest.mark.parametrize("psd", [True, False], ids=["psd", "raw"])
@pytest.mark.parametrize("d", [3, 10, 50, 400])
def test_block_pipeline_is_the_row_path_to_1e_12(monkeypatch, d, psd, joint):
    known = None if joint else np.zeros(d)
    ms, cs = calibrated_schedules(d)
    folds = 0
    for q in range(1, min(d, 4) + 1):
        for flat in (False, True) if d < 400 else (q % 2 == 0,):
            block, row = _pipelines(monkeypatch, d, q, median_schedule=ms, cov_schedule=cs,
                                    psd_mode=psd, known_median=known, eigen_seed=q,
                                    eigen_lag=0)
            for x in _stream(d, q, ms, cs, known, flat):
                block.update(x)
                row.update(x)
                if block.mcm.n_updates and block.mcm._k == 0:  # a fold just ran
                    folds += 1
                    for mat, ref in ((block.mcm._v, row.mcm._v), (block.mcm._vbar, row.mcm._vbar)):
                        assert np.array_equal(mat, mat.T)
                        assert _close(mat, ref)
            assert _close(block.mcm.iterate, row.mcm.iterate), (q, flat)
            assert _close(block.mcm.estimate, row.mcm.estimate), (q, flat)
            assert _close(block.tracker.raw, row.tracker.raw), (q, flat)
            assert block.tracker.n_reinits == row.tracker.n_reinits
            assert abs(block.mcm._fro2 - row.mcm._fro2) <= 1e-12 * row.mcm._fro2
    assert folds >= 3


def test_the_carried_norm_is_refreshed_on_a_folded_block(monkeypatch):
    block, row = _pipelines(monkeypatch, 3, 1)
    for x in np.random.default_rng(8).standard_t(3, (mcm._FRO2_REFRESH + 1, 3)):
        block.update(x)
        row.update(x)
    v0 = block.mcm._v
    assert block.mcm.n_updates == mcm._FRO2_REFRESH and block.mcm._k == 0
    assert block.mcm._fro2 == float(np.tensordot(v0, v0))
    assert _close(v0, row.mcm.iterate)


def test_the_view_is_the_estimate_as_an_operand(monkeypatch):
    block, _ = _pipelines(monkeypatch, 6, 2)
    w = np.random.default_rng(2).standard_normal((3, 6))
    for x in np.random.default_rng(3).standard_normal((100, 6)):
        if not block.update(x).mcm.n_updates:
            continue
        view = block.mcm.estimate_view
        assert view.shape == (6, 6)
        assert _close(w @ view, w @ block.mcm.estimate)


def test_no_product_serves_a_caller_it_was_not_made_for():
    # the pipeline's step shares its product on V0 with the tracker only;
    # after such a row, and after one that folds, another caller's w @ view
    # is still w Vbar
    d = mcm._BLOCK_MIN_DIM
    model = StreamingRobustPCA(d, 3, eigen_lag=0)
    w = np.random.default_rng(12).standard_normal((5, d))
    checked = set()
    for x in np.random.default_rng(13).standard_t(3, (2 * mcm._BLOCK_ROWS + 10, d)):
        steps = model.tracker.n_steps
        model.update(x)
        if model.tracker.n_steps > steps:  # a row whose product served the tracker
            checked.add(model.mcm._k == 0)
            assert _close(w @ model.mcm.estimate_view, w @ model.mcm.estimate)
    assert checked == {False, True}


def test_the_pipeline_picks_its_mcm_by_dimension():
    d = mcm._BLOCK_MIN_DIM
    assert type(StreamingRobustPCA(d - 1, 2).mcm) is MedianCovariationSGD
    assert type(StreamingRobustPCA(d, 2).mcm) is mcm._BlockMCM
    # an open block loads as a block whatever the dimension
    small = StreamingRobustPCA(3, 1).update_many(np.eye(3)).state_dict()
    assert type(StreamingRobustPCA.from_state_dict(small).mcm) is MedianCovariationSGD
    small["mcm"]["block"] = {"k": 0, "a": 1.0, "a_sum": 0.0, "w": "", "s": "", "u": ""}
    assert type(StreamingRobustPCA.from_state_dict(small).mcm) is mcm._BlockMCM


_WILD = np.array([1e308, -1e308, 1e308])


@pytest.mark.filterwarnings("ignore:overflow encountered in subtract:RuntimeWarning")
@pytest.mark.parametrize("case", ["fro2-overflows", "row-overflows"])
def test_a_row_that_raises_mid_block_leaves_the_previous_rows_state(monkeypatch, case):
    if case == "fro2-overflows":
        # a constant of 2e200 clips every step to a full shrink until a
        # row at 1e100 carries |V|_F^2 past float64
        kwargs = {"cov_schedule": StepSchedule(2e200), "eigen_lag": 0}
        rows = np.random.default_rng(4).standard_normal((100, 3))
        bad = rows[0] * 1e100
    else:
        # rows near a known median at 1e308 take the rescaled step, and
        # the mirrored row's difference from it overflows
        kwargs = {"known_median": _WILD, "eigen_lag": 0}
        rows = _WILD + np.random.default_rng(4).standard_normal((100, 3)) * 1e300
        bad = -_WILD
    monkeypatch.setattr(mcm, "_BLOCK_MIN_DIM", 1)
    model, ref = (StreamingRobustPCA(3, 2, **kwargs) for _ in range(2))
    for i, x in enumerate(rows):
        if i in (30, 63, 64, 65):
            before = model.state_dict()
            with pytest.raises(NumericalError, match="overflows float64"):
                model.update(bad)
            assert model.state_dict() == before
        model.update(x)
        ref.update(x)
    assert model.state_dict() == ref.state_dict()
    assert np.array_equal(model.tracker.raw, ref.tracker.raw)


@pytest.mark.parametrize("joint", [True, False], ids=["joint", "known"])
@pytest.mark.parametrize("d", [3, 50])
def test_resume_at_every_offset_of_a_block_is_the_one_pass_run(monkeypatch, d, joint):
    # with a lag of 70 the tracker's first step, the first row whose product
    # on V0 carries it, falls inside a block: some cuts come before it
    monkeypatch.setattr(mcm, "_BLOCK_MIN_DIM", 1)
    xs = np.random.default_rng(d).standard_t(3, (140, d))
    for lag in (5, 70):
        def fresh():
            return StreamingRobustPCA(d, 3, eigen_lag=lag,
                                      known_median=np.ones(d) if not joint else None)

        full = fresh().update_many(xs)
        assert full.mcm.n_updates > 2 * mcm._BLOCK_ROWS
        before = 0
        for cut in range(60, 60 + mcm._BLOCK_ROWS + 2):
            head = fresh().update_many(xs[:cut])
            before += head.tracker.n_steps == 0
            state = json.loads(json.dumps(head.state_dict()))
            model = StreamingRobustPCA.from_state_dict(state)
            assert model.state_dict() == state
            for x in xs[cut:]:
                model.update(x)
            assert model.state_dict() == full.state_dict(), (lag, cut)
            assert np.array_equal(model.tracker.raw, full.tracker.raw)
            assert np.array_equal(model.mcm.estimate, full.mcm.estimate)
        assert (0 < before < 60) if lag == 70 else before == 0


def _v2(state):
    """A version-3 pipeline snapshot of the row path in version 2's form."""
    v2 = json.loads(json.dumps(state))
    model = StreamingRobustPCA.from_state_dict(state)
    v2["version"] = 2
    v2["mcm"]["v"] = pack_array(model.mcm.iterate)
    v2["mcm"]["vbar"] = pack_array(model.mcm.estimate)
    return v2


def test_a_v2_snapshot_opens_a_short_first_block(monkeypatch):
    d = 8
    xs = np.random.default_rng(5).standard_t(3, (300, d))
    _, row = _pipelines(monkeypatch, d, 2, eigen_lag=0)
    row.update_many(xs[:100])
    state = _v2(row.state_dict())
    monkeypatch.setattr(mcm, "_BLOCK_MIN_DIM", 1)
    loaded = StreamingRobustPCA.from_state_dict(state)
    assert isinstance(loaded.mcm, mcm._BlockMCM)
    assert loaded.mcm.n_updates == 99 and loaded.mcm._k == 0
    assert np.array_equal(loaded.mcm.iterate, row.mcm.iterate)
    loaded.update_many(xs[100:120])
    row.update_many(xs[100:120])
    assert loaded.mcm._k == 20  # its first fold waits for n = 128
    for x in xs[120:]:
        loaded.update(x)
        row.update(x)
        assert loaded.mcm._k == loaded.mcm.n_updates - max(99, 64 * (loaded.mcm.n_updates // 64))
    assert _close(loaded.mcm.estimate, row.mcm.estimate)
    assert _close(loaded.tracker.raw, row.tracker.raw)
    # a resume cut inside the short block is bitwise the one-pass run
    head = StreamingRobustPCA.from_state_dict(state).update_many(xs[100:110])
    resumed = StreamingRobustPCA.from_state_dict(json.loads(json.dumps(head.state_dict())))
    assert resumed.update_many(xs[110:]).state_dict() == loaded.state_dict()
    # version 2 is checked for exact symmetry, as before
    skewed = _v2(row.state_dict())
    vbar = row.mcm.estimate
    vbar[0, 1] += 1.0
    skewed["mcm"]["vbar"] = pack_array(vbar)
    with pytest.raises(DataError, match="mcm.vbar: not symmetric"):
        StreamingRobustPCA.from_state_dict(skewed)


@pytest.mark.parametrize("key,value,message", [
    ("k", 64, "block.k: expected at most n mod 64 = 32, got 64"),
    ("k", 33, "block.k: expected at most n mod 64 = 32, got 33"),
    ("k", -1, "block.k: must be >= 0"),
    ("a", float("inf"), "block.a: expected float"),
    ("a_sum", "x", "block.a_sum: expected float"),
    ("w", pack_array(np.ones(3)), r"block.w: expected 344 base64 characters for shape \(32,\)"),
    ("s", [1.0] * 7, "block.s: expected shape"),
    ("u", pack_array(np.ones((2, 10))), "block.u: expected "),
    # weights of both signs whose products overflow: inf - inf is NaN
    ("w", pack_array(np.repeat([1e308, -1e308], 16)), "fro2: "),
])
def test_a_corrupt_block_field_is_named(monkeypatch, key, value, message):
    monkeypatch.setattr(mcm, "_BLOCK_MIN_DIM", 1)
    model = StreamingRobustPCA(10, 2).update_many(
        np.random.default_rng(6).standard_normal((97, 10)))
    state = json.loads(json.dumps(model.state_dict()))
    assert state["mcm"]["block"]["k"] == 32 and state["mcm"]["n"] == 96
    state["mcm"]["block"][key] = value
    with pytest.raises(DataError, match=f"^mcm.{message}"):
        StreamingRobustPCA.from_state_dict(state)


def test_chunked_fit_stream_is_the_single_pass_byte_for_byte(tmp_path, capsys):
    # at the real block dimension, cut inside a block, on a boundary and
    # one row past it (row r is update r - 1: the first row seeds the median)
    d = mcm._BLOCK_MIN_DIM
    lines = [",".join(map(repr, row)) + "\n"
             for row in np.random.default_rng(7).standard_t(3, (200, d)).tolist()]
    whole = tmp_path / "all.csv"
    whole.write_text("".join(lines))
    flags = ["--q", "3", "--eigen-lag", "20"]

    def fit(csv, out, scores, *resume):
        assert main(["fit-stream", *flags, "--in", str(csv), "--out", str(out),
                     "--scores-out", str(scores), *resume]) == 0
        report = json.loads(capsys.readouterr().out)
        del report["rows_this_pass"]
        return report

    single = fit(whole, tmp_path / "single.json", tmp_path / "single.csv")
    state, sidecar = tmp_path / "state.json", []
    for k, (lo, hi) in enumerate(zip([0, 40, 65, 66], [40, 65, 66, 200])):
        chunk = tmp_path / f"chunk{k}.csv"
        chunk.write_text("".join(lines[lo:hi]))
        report = fit(chunk, state, tmp_path / f"scores{k}.csv",
                     *(["--resume", str(state)] if k else []))
        sidecar += (tmp_path / f"scores{k}.csv").read_text().splitlines(keepends=True)[1:]
    assert state.read_bytes() == (tmp_path / "single.json").read_bytes()
    assert report == single
    assert "".join(sidecar) == "".join(
        (tmp_path / "single.csv").read_text().splitlines(keepends=True)[1:])
    assert json.loads(state.read_text())["mcm"]["block"]["k"] == 199 - 3 * 64


# ---------------------------------------------------------------------------
# bench's block fit


@pytest.mark.parametrize("modes", [(True,), (False, True), (True, False, True)],
                         ids=["joint-1-lane", "joint-2-lanes", "joint-3-lanes"])
@pytest.mark.parametrize("d", [3, 10, 50, 300])
def test_block_fit_is_the_row_path_to_1e_12(d, modes):
    # the block fit always runs the median jointly
    ms, cs = calibrated_schedules(d)
    schedules = {"median_schedule": ms, "cov_schedule": cs}
    for flat in (False, True) if d < 300 else (len(modes) % 2 == 0,):
        # three whole blocks and a ragged one
        x = _stream(d, len(modes), ms, cs, None, flat)
        assert len(x) % mcm._BLOCK_ROWS
        fits = mcm._block_fits(x, modes, **schedules)
        solo = per_mode_mcm_fits(x, modes, **schedules)
        for psd, (v, vbar, fro2), (v1, vbar1, fro21) in zip(modes, fits, solo):
            row = MedianCovariationSGD(d, psd_mode=psd, **schedules).update_many(x)
            for mat, ref in ((v, row._v), (vbar, row._vbar)):
                assert np.array_equal(mat, mat.T)
                assert _close(mat, ref), (flat, psd)
            assert abs(fro2 - row._fro2) <= 1e-12 * row._fro2
            # each lane is bit for bit its one-mode fit, the sign of zero included
            assert np.array_equal(v, v1) and np.array_equal(vbar, vbar1)
            assert np.array_equal(np.signbit(v), np.signbit(v1))
            assert fro2 == fro21
        if flat and d < 300:
            assert np.signbit(fits[0][0][0]).any()  # the -0s of the flat stream


def test_a_lane_whose_norm_overflows_is_none_and_the_other_finishes():
    # a step constant of 1e300 overflows the raw lane's |V|_F^2 on its first
    # step; the PSD lane is still bit for bit its one-mode fit
    x = np.random.default_rng(11).standard_t(1, (150, 4))
    schedules = {"median_schedule": StepSchedule(), "cov_schedule": StepSchedule(1e300)}
    raw, psd = mcm._block_fits(x, [False, True], **schedules)
    ((v, vbar, fro2),) = per_mode_mcm_fits(x, [True], **schedules)
    assert raw is None
    assert np.array_equal(psd[0], v) and np.array_equal(psd[1], vbar) and psd[2] == fro2
    assert mcm._block_fits(x, [False], **schedules) == [None]


def test_the_pass_stops_once_every_lane_is_none(monkeypatch):
    # the raw lane overflows on the first block's steps: the median steps
    # over that block's rows (and the seeding row), and no further
    steps, update = [], GeometricMedianSGD._update
    monkeypatch.setattr(GeometricMedianSGD, "_update",
                        lambda self, x: steps.append(1) or update(self, x))
    x = np.random.default_rng(11).standard_t(1, (150, 4))
    schedules = {"median_schedule": StepSchedule(), "cov_schedule": StepSchedule(1e300)}
    assert mcm._block_fits(x, [False], **schedules) == [None]
    assert len(steps) == 1 + mcm._BLOCK_ROWS


def test_block_fit_refreshes_the_carried_norm_where_the_row_path_does():
    x = np.random.default_rng(9).standard_t(3, (mcm._FRO2_REFRESH + 101, 3))
    schedules = {"median_schedule": StepSchedule(), "cov_schedule": StepSchedule()}
    ((v, _, fro2),) = mcm._block_fits(x[:mcm._FRO2_REFRESH + 1], [True], **schedules)
    assert fro2 == float(np.tensordot(v, v))
    ((v, vbar, fro2),) = mcm._block_fits(x, [True], **schedules)
    row = MedianCovariationSGD(3).update_many(x)
    assert _close(v, row.iterate) and _close(vbar, row.estimate)
    assert abs(fro2 - row._fro2) <= 1e-12 * row._fro2


def test_block_fit_blocks_end_at_multiples_of_the_block_rows(monkeypatch):
    ends, lane = [], mcm._block_lane
    monkeypatch.setattr(mcm, "_block_lane", lambda *args: ends.append(args[4]) or lane(*args))
    x = np.random.default_rng(10).standard_normal((300, 3))
    mcm._block_fits(x, [True], median_schedule=StepSchedule(), cov_schedule=StepSchedule())
    assert ends == [64, 128, 192, 256, 299]


def test_block_fit_refuses_a_bad_sample_whole():
    # not 2-D, not finite, no column, or too short for one matrix update
    for bad in (np.ones(3), np.array([[1.0, 2.0, np.nan]] * 4), np.ones((4, 0)), np.ones((1, 3))):
        with pytest.raises(ValueError):
            mcm._block_fits(bad, [True], median_schedule=StepSchedule(),
                            cov_schedule=StepSchedule())
