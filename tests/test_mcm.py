"""Median covariation matrix: streaming estimators (known-median and joint
two-timescale), the PSD-preserving step, and batch Weiszfeld."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import medcov.mcm as mcm
from medcov import (
    ConvergenceError,
    GeometricMedianSGD,
    MedianCovariationSGD,
    NumericalError,
    ScenarioConfig,
    StepSchedule,
    brownian_cov,
    draw_sample,
    eigenspace_error,
    weiszfeld_mcm,
    weiszfeld_median,
)
from medcov.bench import calibrated_schedules
from medcov.linalg import eigh_descending, pack_array
from medcov.mcm import _sign_covariance
from oracles import (
    dense_mcm_recursion,
    entrywise_median,
    mcm_objective,
    projector,
    whole_matrix_mcm_step,
)

# For the symmetric cross {e1, -e1, e2, -e2} centered at 0 the MCM is
# gamma*I by symmetry; 1e-6-resolution brute force over gamma (objective
# 4*sqrt((1-gamma)^2 + gamma^2)) puts the minimum at exactly 1/2.
CROSS_GAMMA = 0.5


def random_orthogonal(d, rng):
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def known_median_estimator(dim, psd_mode=True):
    return MedianCovariationSGD(dim, known_median=np.zeros(dim), psd_mode=psd_mode)


# ---------------------------------------------------------------------------
# single-step hand computations

def test_first_step_without_psd_clipping():
    est = known_median_estimator(2, psd_mode=False)
    est.update([1.0, 0.0])
    # gamma_1 = 2, |Y - 0|_F = 1, so V_1 = 2 * e1 e1^T
    np.testing.assert_allclose(est.iterate, [[2.0, 0.0], [0.0, 0.0]], atol=1e-15)
    np.testing.assert_allclose(est.estimate, est.iterate)


def test_first_step_with_psd_clipping():
    est = known_median_estimator(2, psd_mode=True)
    est.update([1.0, 0.0])
    # thresholded step: gamma_pos = min(2, 1) = 1 lands exactly on Y
    np.testing.assert_allclose(est.iterate, [[1.0, 0.0], [0.0, 0.0]], atol=1e-15)


def test_degenerate_direction_moves_only_average():
    est = known_median_estimator(2, psd_mode=True)
    est.update([1.0, 0.0])  # V_1 = e1 e1^T
    v = est.iterate.copy()
    est.update([1.0, 0.0])  # Y == V_1 exactly: zero direction
    np.testing.assert_array_equal(est.iterate, v)
    assert est.n_updates == 2
    np.testing.assert_allclose(est.estimate, v)


def test_constant_stream_shrinks_toward_zero():
    est = known_median_estimator(2, psd_mode=True)
    est.update([2.0, 0.0])
    norms = [np.linalg.norm(est.iterate)]
    for _ in range(30):
        est.update([0.0, 0.0])  # x == m, Y = 0: step along -V/|V|_F
        norms.append(np.linalg.norm(est.iterate))
    assert all(b <= a for a, b in zip(norms, norms[1:]))
    assert norms[-1] < norms[0]


def test_average_is_running_mean():
    est = known_median_estimator(2, psd_mode=False)
    est.update([1.0, 0.0])
    v1 = est.iterate.copy()
    np.testing.assert_array_equal(est.estimate, v1)
    est.update([0.0, 2.0])
    v2 = est.iterate.copy()
    np.testing.assert_allclose(est.estimate, (v1 + v2) / 2.0, atol=1e-15)


def test_estimate_requires_observations():
    est = known_median_estimator(3)
    with pytest.raises(ValueError):
        est.estimate  # noqa: B018


def test_step_length_equals_gamma():
    rng = np.random.default_rng(0)
    sched = StepSchedule()
    est = known_median_estimator(3, psd_mode=False)
    for n in range(1, 100):
        prev = est.iterate.copy()
        est.update(rng.standard_normal(3))
        assert np.linalg.norm(est.iterate - prev) == pytest.approx(sched.gamma(n), rel=1e-10)


def test_thresholded_step_length():
    rng = np.random.default_rng(1)
    sched = StepSchedule()
    est = known_median_estimator(3, psd_mode=True)
    for n in range(1, 100):
        prev = est.iterate.copy()
        x = rng.standard_normal(3)
        dist = np.linalg.norm(np.outer(x, x) - prev)
        est.update(x)
        expected = min(sched.gamma(n), dist)
        assert np.linalg.norm(est.iterate - prev) == pytest.approx(expected, rel=1e-10)


# ---------------------------------------------------------------------------
# joint (unknown median) mode

def test_joint_mode_first_observation_seeds_median():
    est = MedianCovariationSGD(3)
    est.update([1.0, 2.0, 3.0])
    assert est.n_updates == 0
    np.testing.assert_array_equal(est.median_estimate, [1.0, 2.0, 3.0])


def test_joint_mode_centers_at_previous_average():
    # after seeding, the first matrix update must center at the median
    # average as it stood *before* this observation folds in
    est = MedianCovariationSGD(2, psd_mode=False)
    est.update([1.0, 0.0])  # seeds m = (1,0)
    mbar_before = est.median_estimate.copy()
    est.update([3.0, 0.0])
    c = np.array([3.0, 0.0]) - mbar_before
    y = np.outer(c, c)
    expected = StepSchedule().gamma(1) * y / np.linalg.norm(y)
    np.testing.assert_allclose(est.iterate, expected, atol=1e-12)
    assert est.n_updates == 1


def test_psd_invariant_along_mixed_streams():
    rng = np.random.default_rng(2)
    for _ in range(5):
        d = int(rng.integers(2, 8))
        est = MedianCovariationSGD(d, psd_mode=True)
        for _ in range(300):
            x = rng.standard_normal(d)
            if rng.random() < 0.1:
                x = x * 50.0  # occasional wild point
            est.update(x)
            assert np.linalg.eigvalsh(est.iterate)[0] >= -1e-8
        assert np.linalg.eigvalsh(est.estimate)[0] >= -1e-8


def test_known_median_gaussian_isotropy():
    # 20k standard-Gaussian draws in R^4: the limit is a multiple of I,
    # so off-diagonal mass should be small (pilot: max |entry| ~ 0.014)
    rng = np.random.default_rng(3)
    est = known_median_estimator(4)
    est.update_many(rng.standard_normal((20_000, 4)))
    vbar = est.estimate
    off = vbar - np.diag(np.diag(vbar))
    assert np.abs(off).max() <= 0.05


def test_orthogonal_equivariance_known_median():
    rng = np.random.default_rng(4)
    xs = rng.standard_normal((500, 3))
    q = random_orthogonal(3, rng)
    a = known_median_estimator(3)
    a.update_many(xs)
    b = MedianCovariationSGD(3, known_median=np.zeros(3), psd_mode=True)
    b.update_many(xs @ q.T)
    np.testing.assert_allclose(b.estimate, q @ a.estimate @ q.T, atol=1e-10)


def test_anisotropic_top_direction():
    # symmetric data with covariance diag(4,1,0.25,...): the MCM shares
    # the covariance eigenvectors, so its top eigenvector is e1
    d = 6
    scales = np.sqrt(4.0 * 0.25 ** np.arange(d))
    rng = np.random.default_rng(5)
    est = MedianCovariationSGD(d, psd_mode=True)
    est.update_many(rng.standard_normal((20_000, d)) * scales)
    _, vecs = eigh_descending(est.estimate)
    err = eigenspace_error(projector([vecs[:, 0]]), projector([np.eye(d)[0]]))
    assert err <= 0.05


def test_state_roundtrip_joint():
    rng = np.random.default_rng(6)
    est = MedianCovariationSGD(3)
    est.update_many(rng.standard_normal((50, 3)))
    clone = MedianCovariationSGD.from_state_dict(est.state_dict())
    x = rng.standard_normal(3)
    est.update(x)
    clone.update(x)
    np.testing.assert_array_equal(clone.iterate, est.iterate)
    np.testing.assert_array_equal(clone.estimate, est.estimate)
    np.testing.assert_array_equal(clone.median_estimate, est.median_estimate)


def test_huge_observations_stay_finite():
    # extreme heavy-tail draws (|x| ~ 1e80) must not overflow the update
    est = MedianCovariationSGD(2, psd_mode=True)
    est.update([1.0, 0.5])
    est.update([1e80, 0.0])
    assert np.all(np.isfinite(est.iterate))
    est.update([0.3, -0.2])
    assert np.all(np.isfinite(est.estimate))


def _mixed_stream(rng, d, n):
    """Heavy-tailed rows with a run of repeated rows and a repeated pair."""
    x = rng.standard_t(2, size=(n, d))
    start = int(rng.integers(1, n - 12))
    x[start:start + 10] = x[start]
    x[n // 2] = x[n // 2 - 1]
    return x


@pytest.mark.parametrize("joint", [True, False], ids=["joint", "known"])
@pytest.mark.parametrize("psd_mode", [True, False], ids=["psd", "raw"])
def test_matches_dense_recursion(psd_mode, joint):
    # the fused O(d^2) step against the recursion on explicit targets
    for seed in range(6):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 12))
        x = _mixed_stream(rng, d, 300)
        ms, cs = calibrated_schedules(d) if seed % 2 else (StepSchedule(), StepSchedule())
        known = None if joint else np.zeros(d)
        est = MedianCovariationSGD(d, median_schedule=ms, cov_schedule=cs,
                                   psd_mode=psd_mode, known_median=known)
        vbar = est.update_many(x).estimate
        ref = dense_mcm_recursion(x, cs, psd_mode=psd_mode, median_schedule=ms,
                                  known_median=known)
        assert np.linalg.norm(vbar - ref) <= 1e-10 * np.linalg.norm(ref), seed


def _edge_stream(d, seed, ms, cs, known, *, flat=False):
    """120 rows of ``_mixed_stream`` whose rows x1e75 and x1e120 take the
    rescaled step; a row on the center at the start is a lane with no
    move, and one mid-stream a full shrink.  With ``flat``, c_0 = 0 on
    every row, so c c^T holds zeros of both signs, and the first move is
    short enough that an unclipped step overshoots and V gets -0s."""
    x = _mixed_stream(np.random.default_rng(seed), d, 120)
    if flat:
        x[:, 0] = x[0, 0] if known is None else 0.0
    x[1 if known is None else 0] = x[0] if known is None else 0.0
    if flat:
        first = 2 if known is None else 1
        x[first] = x[0] - np.abs(x[first] - x[0]) / 1000
    x[40] *= 1e75
    x[90] *= 1e120
    x[60] = MedianCovariationSGD(d, median_schedule=ms, cov_schedule=cs, known_median=known
                                 ).update_many(x[:60]).median_estimate
    return x


def _assert_same_fit(est, ref):
    """V, Vbar and |V|_F^2 equal, the sign of zero included."""
    for a, b in ((est._v, ref._v), (est._vbar, ref._vbar)):
        assert np.array_equal(a, b)
        assert np.array_equal(np.signbit(a), np.signbit(b))
    assert est._fro2 == ref._fro2


@pytest.mark.parametrize("modes", [(True,), (False,), (False, True), (True, False, True)],
                         ids=["psd", "raw", "r-rplus", "3-lanes"])
@pytest.mark.parametrize("joint", [True, False], ids=["joint", "known"])
@pytest.mark.parametrize("d", [3, 10, 50])
def test_panel_step_is_the_whole_matrix_step_bit_for_bit(d, joint, modes):
    # the "panel step" of this test's name and the resume test's is the
    # row step, ``update``, on whole matrices.  Several modes step one
    # estimator each, in turn on every row: no state is shared between them
    known = None if joint else np.zeros(d)
    ms, cs = calibrated_schedules(d)
    for seed, flat in ((0, False), (1, True)):
        x = _edge_stream(d, seed, ms, cs, known, flat=flat)
        _assert_steps_as_the_whole_matrix_step(x, modes, flat, median_schedule=ms,
                                               cov_schedule=cs, known_median=known)


def test_row_step_at_d300_is_the_whole_matrix_step_bit_for_bit():
    # each mode on 30 edge-stream rows: a row on the center, a short first
    # move whose unclipped step leaves -0s, and the two rescaled rows
    d = 300
    ms, cs = calibrated_schedules(d)
    x = _edge_stream(d, 3, ms, cs, None, flat=True)[np.r_[0:27, 40, 60, 90]]
    _assert_steps_as_the_whole_matrix_step(x, (False, True), True, median_schedule=ms,
                                           cov_schedule=cs)


def _assert_steps_as_the_whole_matrix_step(x, modes, flat, **kwargs):
    """``update`` and ``whole_matrix_mcm_step`` agree after every row of ``x``,
    for one pair of estimators per PSD mode in ``modes``."""
    pairs = [[MedianCovariationSGD(x.shape[1], psd_mode=psd, **kwargs) for _ in range(2)]
             for psd in modes]
    negative_zero = False
    for row in x:  # row by row: a -0 in V may not last to the end
        for est, whole in pairs:
            est.update(row)
            whole_matrix_mcm_step(whole, row)
            _assert_same_fit(est, whole)
            negative_zero |= bool(np.signbit(whole._v[whole._v == 0]).any())
    assert negative_zero or not flat or all(modes)


@pytest.mark.parametrize("joint", [True, False], ids=["joint", "known"])
def test_panel_step_resumes_from_a_snapshot_bit_for_bit(joint):
    # the loader writes V and Vbar in place, where the step reads them
    d = 10
    known = None if joint else np.zeros(d)
    ms, cs = calibrated_schedules(d)
    x = _edge_stream(d, 2, ms, cs, known)
    whole = MedianCovariationSGD(d, median_schedule=ms, cov_schedule=cs, known_median=known)
    for row in x:
        whole_matrix_mcm_step(whole, row)
    head = MedianCovariationSGD(d, median_schedule=ms, cov_schedule=cs, known_median=known)
    state = json.loads(json.dumps(head.update_many(x[:50]).state_dict()))
    resumed = MedianCovariationSGD.from_state_dict(state)
    _assert_same_fit(resumed.update_many(x[50:]), whole)


def test_the_view_is_read_only_and_follows_later_updates():
    # the view is flagged, not Vbar itself, which the next update writes
    x = np.random.default_rng(4).standard_normal((30, 5))
    est = MedianCovariationSGD(5).update_many(x[:10])
    view = est.estimate_view
    with pytest.raises(ValueError, match="read-only"):
        view[0, 0] = 1.0
    est.update_many(x[10:])
    assert est._vbar.flags.writeable
    assert np.array_equal(view, est.estimate)


def _aligned(*arrays):
    """Each on a 64-byte boundary, and all from one allocation."""
    return (all(a.__array_interface__["data"][0] % 64 == 0 for a in arrays)
            and len({id(a.base) for a in arrays}) == 1)


@pytest.mark.parametrize("d", [5, 6, 7])
def test_the_matrices_are_64_byte_aligned(monkeypatch, d):
    # d * d * 8 bytes is no multiple of 64, so each matrix is aligned on
    # its own; the loaders copy into the aligned arrays, not rebind them.
    # One allocation keeps the block fit's pages in the heap (see
    # mcm._aligned_zeros)
    x = np.random.default_rng(d).standard_normal((70, d))
    est = MedianCovariationSGD(d).update_many(x)
    state = json.loads(json.dumps(est.state_dict()))
    whole = dict(state, v=pack_array(est.iterate), vbar=pack_array(est.estimate))
    for owner in (est, mcm._BlockMCM(d), MedianCovariationSGD.from_state_dict(state),
                   MedianCovariationSGD.from_state_dict(whole, triangles=False)):
        assert _aligned(owner._v, owner._vbar, owner._buf)
    lanes, block_lane = [], mcm._block_lane
    monkeypatch.setattr(mcm, "_block_lane",
                        lambda *args: lanes.append(args[5:8]) or block_lane(*args))
    fits = mcm._block_fits(x, [False, True], median_schedule=StepSchedule(),
                           cov_schedule=StepSchedule())
    assert len(lanes) == 4 and all(_aligned(*lane) for lane in lanes)
    assert all(_aligned(v, vbar) for v, vbar, _ in fits)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("psd", [True, False], ids=["psd", "raw"])
def test_rescale_threshold_is_the_whole_matrix_step_bit_for_bit(psd):
    # the step looks for max|c_i| only once |c|^2 reaches 1e139, where
    # the reference always does.  The rows' largest entries sit just
    # below, at and just above 1e70; at 3e69 (|c|^2 below 1e139) and
    # 3.2e69 (past it, with no rescale); and at 1e200, where |c|^2
    # overflows though c is finite.  Then a row whose c overflows
    d = 12
    rng = np.random.default_rng(5)
    rows = [rng.standard_normal(d) for _ in range(3)]
    for big in (np.nextafter(1e70, 0), 1e70, np.nextafter(1e70, np.inf), 3e69, 3.2e69, 1e200):
        x = rng.standard_normal(d)
        x[rng.integers(d)] = big
        rows += [x, rng.standard_normal(d), -x * np.sign(rng.standard_normal(d))]
    ests = [MedianCovariationSGD(d, psd_mode=psd, known_median=np.zeros(d)) for _ in range(2)]
    for x in rows:
        ests[0].update(x)
        whole_matrix_mcm_step(ests[1], x)
        _assert_same_fit(*ests)
    # a center at -1e308 in the last coordinate: the first row's c is
    # finite there (rescaled), the second's is not
    ests = [MedianCovariationSGD(d, psd_mode=psd, known_median=np.eye(d)[-1] * -1e308)
            for _ in range(2)]
    ests[0].update(rows[0])
    whole_matrix_mcm_step(ests[1], rows[0])
    _assert_same_fit(*ests)
    before = [_state(est) for est in ests]
    for est, step in zip(ests, (MedianCovariationSGD.update, whole_matrix_mcm_step)):
        with np.errstate(over="ignore"), pytest.raises(NumericalError, match="row minus"):
            step(est, np.eye(d)[-1] * 1e308)
    assert all(_same(_state(est), b) for est, b in zip(ests, before))


def test_rescaled_step_is_the_plain_step_scaled():
    # Rows times 2^240 pass 1e70 and take the rescaled step; with the
    # constants scaled to match (2^240 for the median, 2^480 for the MCM)
    # the recursion is exactly scale-equivariant, PSD clip included, so
    # Vbar must come out times 2^480 up to the rounding of the rescale.
    # The clip binds somewhere in seeds 2, 4 (known) and 5 (joint).
    d, big = 6, 2.0 ** 240
    ms, cs = calibrated_schedules(d)
    for seed in range(6):
        x = draw_sample(ScenarioConfig(d=d, delta=0.1, contamination="student_t2",
                                       seed=seed), 400)
        for known in (None, np.zeros(d)):
            plain = MedianCovariationSGD(d, median_schedule=ms, cov_schedule=cs,
                                         known_median=known).update_many(x).estimate
            scaled = MedianCovariationSGD(
                d, median_schedule=StepSchedule(ms.c * big, ms.alpha),
                cov_schedule=StepSchedule(cs.c * big * big, cs.alpha), known_median=known,
            ).update_many(x * big).estimate
            err = np.linalg.norm(scaled / big / big - plain) / np.linalg.norm(plain)
            assert err <= 1e-12, (seed, known is None, err)


def _state(est):
    """Every stored number of a streaming estimator, as a tuple of arrays."""
    if isinstance(est, GeometricMedianSGD):
        return est.state_dict()["n"], est.iterate, est.estimate
    median = () if est._median is None else _state(est._median)
    return (est.n_updates, est._fro2, est.iterate, est._vbar.copy()) + median


def _same(a, b):
    return len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))


_ESTIMATORS = (GeometricMedianSGD, MedianCovariationSGD,
               lambda d: MedianCovariationSGD(d, known_median=np.zeros(d)))


_WILD = np.array([1e308, -1e308, 1e308])
_HUGE = {"median_schedule": StepSchedule(2e100), "cov_schedule": StepSchedule(2e200)}
_BIG_ROWS = np.random.default_rng(1).standard_normal((2, 3)) * 1e100


@pytest.mark.filterwarnings("ignore:overflow encountered in subtract:RuntimeWarning")
@pytest.mark.parametrize("make,rows", [
    pytest.param(lambda: MedianCovariationSGD(3), (_WILD, _WILD, -_WILD), id="psd-joint"),
    pytest.param(lambda: MedianCovariationSGD(3, known_median=_WILD),
                 (_WILD, _WILD, -_WILD), id="psd-known"),
    pytest.param(lambda: MedianCovariationSGD(3, psd_mode=False),
                 (_WILD, _WILD, -_WILD), id="raw-joint"),
    pytest.param(lambda: MedianCovariationSGD(3, psd_mode=False, known_median=_WILD),
                 (_WILD, _WILD, -_WILD), id="raw-known"),
    # rows at 1e100 with a constant of 2e200: the first step carries
    # |V|_F past 1e200, so |V|_F^2 overflows though every entry is finite
    pytest.param(lambda: MedianCovariationSGD(3, **_HUGE), _BIG_ROWS, id="psd-huge-constant"),
    pytest.param(lambda: MedianCovariationSGD(3, psd_mode=False, **_HUGE), _BIG_ROWS,
                 id="raw-huge-constant"),
])
def test_overflowing_difference_is_a_numerical_error(make, rows):
    # every entry is finite, but x - center (or the stepped |V|_F^2) is
    # not: the row is refused before the iterate, the average, the
    # median or a counter moves
    est = make()
    for row in rows[:-1]:
        est.update(row)
    before = _state(est)
    with pytest.raises(NumericalError, match="overflows float64"):
        est.update(rows[-1])
    assert _same(_state(est), before)


@settings(max_examples=60, deadline=None)
@given(k=st.integers(0, 300), a=st.floats(-3, 300), b=st.floats(-3, 300),
       psd=st.booleans(), seed=st.integers(0, 2**32 - 1), n=st.integers(2, 12))
def test_every_scale_steps_or_raises_unchanged(k, a, b, psd, seed, n):
    # rows at 10^k and constants up to 1e300 keep x - center inside float64,
    # so each update either steps to a finite, loadable state or refuses
    # the row with the state as it was
    est = MedianCovariationSGD(3, median_schedule=StepSchedule(10.0 ** a),
                               cov_schedule=StepSchedule(10.0 ** b), psd_mode=psd)
    for row in np.random.default_rng(seed).standard_normal((n, 3)) * 10.0 ** k:
        before = _state(est)
        try:
            est.update(row)
        except NumericalError:
            assert _same(_state(est), before)
            continue
        assert np.isfinite(est._fro2) and np.isfinite(est.iterate).all()
        assert np.isfinite(est._vbar).all()
        state = json.loads(json.dumps(est.state_dict(), allow_nan=False))
        assert MedianCovariationSGD.from_state_dict(state).state_dict() == est.state_dict()


def test_update_many_validates_shape():
    good = np.random.default_rng(0).standard_normal((4, 3))
    nan_last, inf_last = good.copy(), good.copy()
    nan_last[-1, 1] = np.nan
    inf_last[-1, 2] = -np.inf
    bad = (np.array([1.0, 2.0, 3.0]), nan_last, inf_last,
           good[:, :2], np.hstack([good, good[:, :1]]))
    for make in _ESTIMATORS:
        est = make(3).update_many(good)
        before = _state(est)
        for xs in bad:
            with pytest.raises(ValueError):
                est.update_many(xs)
            assert _same(_state(est), before), xs  # rejected before any state changes


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_update_many_is_row_by_row_or_rejected_whole(data):
    d = 3
    width = data.draw(st.sampled_from([d, d, d, d - 1, d + 1]), label="width")
    xs = data.draw(hnp.arrays(np.float64, (data.draw(st.integers(0, 6)), width),
                              elements=st.floats(-1e6, 1e6)), label="xs")
    if xs.size and data.draw(st.booleans(), label="poison"):
        i = data.draw(st.integers(0, xs.shape[0] - 1))
        j = data.draw(st.integers(0, width - 1))
        xs[i, j] = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    valid = width == d and np.isfinite(xs).all()
    prefix = np.random.default_rng(1).standard_normal((data.draw(st.integers(0, 2)), d))
    for make in _ESTIMATORS:
        block, rows = make(d).update_many(prefix), make(d).update_many(prefix)
        before = _state(block)
        if not valid:
            with pytest.raises(ValueError):
                block.update_many(xs)
            assert _same(_state(block), before)
            continue
        block.update_many(xs)
        for x in xs:
            rows.update(x)
        assert _same(_state(block), _state(rows))


# ---------------------------------------------------------------------------
# batch Weiszfeld MCM and its objective

def _start(c):
    return _sign_covariance(c, np.einsum("ij,ij->i", c, c))


def test_weiszfeld_mcm_start_is_symmetric_and_equivariant():
    rng = np.random.default_rng(11)
    for n, d in ((1, 3), (40, 7), (201, 20)):
        c = rng.standard_t(2, size=(n, d))
        g = _start(c)
        assert np.array_equal(g, g.T)
        # trace: median |c|^2 times the mean of |u_i|^2 = 1
        assert np.trace(g) == pytest.approx(np.median(np.einsum("ij,ij->i", c, c)), rel=1e-12)
        q = random_orthogonal(d, rng)
        rotated = q @ g @ q.T
        assert np.linalg.norm(_start(c @ q.T) - rotated) <= 1e-12 * np.linalg.norm(rotated)


def test_weiszfeld_mcm_start_skips_center_and_overflowing_rows():
    # either row changes only the scalar factor median(s) / n, never the sum
    c = np.random.default_rng(12).standard_normal((30, 4))
    s = np.einsum("ij,ij->i", c, c)
    for row in (np.zeros(4), np.full(4, 1e160)):  # |row|^2 = 0 or inf
        cx = np.vstack([c, row])
        with np.errstate(over="ignore"):
            g, sx = _start(cx), np.einsum("ij,ij->i", cx, cx)
        factor = (np.median(sx) / np.median(s)) * (30 / 31)
        np.testing.assert_allclose(g, factor * _start(c), rtol=1e-14)


@pytest.mark.parametrize("d", [10, 50])
@pytest.mark.parametrize("law", ["student_t1", "student_t2"])
def test_weiszfeld_mcm_matches_entrywise_median_start(monkeypatch, d, law):
    # the converged MCM does not depend on the start: the former start,
    # the entrywise median, reaches the same solution to 1e-6
    for seed in range(3):
        x = draw_sample(ScenarioConfig(d=d, delta=0.1, contamination=law, seed=seed), 200)
        m = weiszfeld_median(x)
        fast = weiszfeld_mcm(x, m)
        with monkeypatch.context() as patch:
            patch.setattr("medcov.mcm._sign_covariance", lambda c, s: entrywise_median(c))
            ref = weiszfeld_mcm(x, m)
        assert np.linalg.norm(fast - ref) <= 1e-6 * np.linalg.norm(ref)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_weiszfeld_mcm_keeps_a_far_rows_pull():
    # past |c| ~ 1e77, |c|^4 overflows; the rank-one distance is then
    # taken from c / |c|, so the far row keeps the pull u u^T it has at
    # 1e70 until the distance itself passes float64 (|c| ~ 1e154)
    data = np.random.default_rng(4).standard_normal((200, 5))
    m = weiszfeld_median(data)
    fits = []
    for scale in (1e70, 1e100, 1e150):
        wild = data.copy()
        wild[7] *= scale
        fits.append(weiszfeld_mcm(wild, m))
    for fit in fits[1:]:
        assert np.linalg.norm(fit - fits[0]) <= 1e-6 * np.linalg.norm(fits[0])


def test_weiszfeld_mcm_stop_is_scale_equivariant():
    # the stop is eps times the start's Frobenius norm, so the x1e3 and
    # x1e6 fits (the second never met an absolute stop of 1e-8) agree
    # once rescaled; they differ by 1e-13 relative here
    x = np.random.default_rng(4).standard_normal((200, 5))
    fits = [weiszfeld_mcm(x * s, weiszfeld_median(x * s)) / s / s for s in (1e3, 1e6)]
    assert np.abs(fits[1] - fits[0]).max() <= 1e-10 * np.abs(fits[0]).max()


def test_weiszfeld_mcm_single_point_at_center():
    g = weiszfeld_mcm([[2.0, 1.0]], [2.0, 1.0])
    np.testing.assert_allclose(g, np.zeros((2, 2)), atol=1e-12)


def test_weiszfeld_mcm_identical_points():
    x = np.array([3.0, -1.0])
    g = weiszfeld_mcm([x, x, x], np.zeros(2))
    np.testing.assert_allclose(g, np.outer(x, x), atol=1e-8)


def test_weiszfeld_mcm_symmetric_cross():
    pts = [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]
    g = weiszfeld_mcm(pts, [0.0, 0.0])
    np.testing.assert_allclose(g, CROSS_GAMMA * np.eye(2), atol=1e-4)


def test_weiszfeld_mcm_is_psd():
    rng = np.random.default_rng(7)
    pts = rng.standard_normal((40, 4))
    g = weiszfeld_mcm(pts, weiszfeld_median(pts))
    assert np.linalg.eigvalsh(g)[0] >= -1e-10


def test_weiszfeld_mcm_fixed_point():
    rng = np.random.default_rng(8)
    pts = rng.standard_normal((30, 3))
    eps = 1e-10
    g = weiszfeld_mcm(pts, np.zeros(3), eps=eps)
    ys = np.array([np.outer(p, p) for p in pts])
    w = 1.0 / np.array([np.linalg.norm(y - g) for y in ys])
    w /= w.sum()
    assert np.linalg.norm(g - np.tensordot(w, ys, axes=1)) <= 10.0 * eps


def test_weiszfeld_mcm_iteration_cap():
    rng = np.random.default_rng(9)
    pts = rng.standard_normal((25, 3))
    with pytest.raises(ConvergenceError) as err:
        weiszfeld_mcm(pts, np.zeros(3), eps=1e-300, max_iter=2)
    assert err.value.residual > 0


def test_mcm_objective_values():
    pts = np.array([[1.0, 2.0], [0.5, -1.0], [2.0, 0.0]])
    assert mcm_objective(pts, np.zeros(2), np.zeros((2, 2))) == 0.0
    y1 = np.outer(pts[0], pts[0])
    single = mcm_objective(pts[:1], np.zeros(2), y1)
    assert single == pytest.approx(-np.linalg.norm(y1), rel=1e-12)


def test_weiszfeld_mcm_beats_empirical_covariance():
    rng = np.random.default_rng(10)
    pts = rng.standard_normal((3, 2)) * [2.0, 0.5]
    m = np.zeros(2)
    g = weiszfeld_mcm(pts, m)
    cov = pts.T @ pts / len(pts)
    assert mcm_objective(pts, m, g) <= mcm_objective(pts, m, cov) + 1e-10


# ---------------------------------------------------------------------------
# rate comparisons (slow-ish: long streams)

def test_recursive_matches_weiszfeld_eigenspace():
    # top-2 projectors from the streaming average and the batch solver
    # agree on a 5000-point clean Gaussian sample (pilot: R ~ 1e-4)
    d, n = 20, 5000
    rng = np.random.default_rng(0)
    xs = rng.standard_normal((n, d)) @ np.linalg.cholesky(brownian_cov(d)).T
    est = MedianCovariationSGD(d, psd_mode=True)
    est.update_many(xs)
    batch = weiszfeld_mcm(xs, weiszfeld_median(xs))
    _, vr = eigh_descending(est.estimate)
    _, vw = eigh_descending(batch)
    r = eigenspace_error(projector(vr[:, :2].T), projector(vw[:, :2].T))
    assert r <= 0.1


def test_averaging_beats_raw_iterate():
    # at n = 1e5 the averaged estimate should sit closer to the limit
    # than the raw Robbins-Monro iterate (median over 20 seeds)
    d, n = 3, 100_000
    ref_rng = np.random.default_rng(12345)
    gamma_ref = weiszfeld_mcm(ref_rng.standard_normal((n, d)), np.zeros(d), eps=1e-9)
    raw, avg = [], []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        est = known_median_estimator(d)
        est.update_many(rng.standard_normal((n, d)))
        raw.append(np.linalg.norm(est.iterate - gamma_ref) ** 2)
        avg.append(np.linalg.norm(est.estimate - gamma_ref) ** 2)
    assert np.median(raw) > np.median(avg)
