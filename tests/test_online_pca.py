"""Online tracking of the leading eigenvectors of the evolving MCM average."""

import base64
import copy
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from medcov import (
    DataError,
    GeometricMedianSGD,
    MedianCovariationSGD,
    NumericalError,
    OnlineEigenTracker,
    brownian_cov,
    eigenspace_error,
)
from medcov import bench, geomedian, linalg, mcm, online_pca
from medcov.bench import calibrated_schedules
from medcov.linalg import as_sym_matrix, eigh_descending, pack_array
from medcov.online_pca import StreamingRobustPCA
from oracles import (
    projector,
    sym_eigen,
    tracker_force_ready,
    tracker_offer,
    tracker_readouts,
    tracker_step,
)


def tracker_with_raw(raw, *, n=0, seed=0):
    """Tracker in a prescribed internal state (for single-step checks)."""
    raw = np.atleast_2d(np.asarray(raw, dtype=np.float64))
    return OnlineEigenTracker.from_state_dict({
        "dim": raw.shape[1], "q": raw.shape[0], "seed": seed,
        "n": n, "rng_draws": 0, "reinits": 0,
        "raw": raw.tolist(), "warmup": [],
    })


def offer(tracker, x):
    """Offer one finite row to an unready tracker's warm-up as the
    pipeline does: as a new float64 vector."""
    return tracker._offer(np.array(x, dtype=np.float64))


# ---------------------------------------------------------------------------
# warm-up

def test_warmup_requires_distinct_observations():
    t = OnlineEigenTracker(3, 2)
    assert not offer(t, [1.0, 0.0, 0.0])
    assert not offer(t, [2.0, 0.0, 0.0])  # dependent: ignored
    assert offer(t, [1.0, 1.0, 0.0])
    np.testing.assert_allclose(t.basis, [[1, 0, 0], [0, 1, 0]], atol=1e-12)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_warmup_normalizes_huge_rows():
    # |v|^2 overflows once entries pass ~1e154; the carrier must still be
    # the row's unit direction, not v / inf = 0 (NaN after the first step),
    # and the overflow test itself must not warn
    t = OnlineEigenTracker(3, 2)
    assert not offer(t, [1e200, 0.0, 0.0])
    assert not offer(t, [-3e250, 0.0, 0.0])  # dependent at every scale
    assert offer(t, [3e307, 4e307, 0.0])
    np.testing.assert_array_equal(t.basis, [[1, 0, 0], [0, 1, 0]])
    t.step(np.diag([3.0, 2.0, 1.0]))
    np.testing.assert_allclose(t.eigenvalues, [3.0, 2.0])


def test_the_pipeline_checks_a_row_once(monkeypatch):
    # update_many checks the block once; the warm-up offers of its
    # centered rows check nothing again
    calls = []

    def counting(x, *, dim=None):
        calls.append(dim)
        return linalg.as_vector(x, dim=dim)

    for module in (geomedian, mcm, online_pca):
        monkeypatch.setattr(module, "as_vector", counting)
    rows = np.random.default_rng(0).standard_normal((20, 4))
    model = StreamingRobustPCA(4, 2).update_many(rows)
    assert model.tracker.ready
    assert calls == []


def test_step_before_ready_is_an_error():
    t = OnlineEigenTracker(2, 1)
    with pytest.raises(RuntimeError):
        t.step(np.eye(2))


def test_force_ready_fills_remaining_slots():
    t = OnlineEigenTracker(5, 3)
    offer(t, [1.0, 0.0, 0.0, 0.0, 0.0])
    t.force_ready()
    assert t.ready
    b = t.basis
    np.testing.assert_allclose(b @ b.T, np.eye(3), atol=1e-10)


def test_seeded_replay_is_deterministic():
    def run(seed):
        t = OnlineEigenTracker(4, 2, seed=seed)
        t.force_ready()
        for _ in range(5):
            t.step(np.diag([3.0, 2.0, 1.0, 0.5]))
        return t.raw

    np.testing.assert_array_equal(run(7), run(7))
    assert not np.array_equal(run(7), run(8))
    with pytest.raises(ValueError, match="seed must be >= 0"):  # SeedSequence would refuse it later
        OnlineEigenTracker(4, 2, seed=-1)


def test_tracker_rejects_a_bad_size():
    with pytest.raises(ValueError, match=r"^dimension must be >= 1, got 0$"):
        OnlineEigenTracker(0, 1)
    with pytest.raises(ValueError, match=r"^q must be in \[1, 3\], got 4$"):
        OnlineEigenTracker(3, 4)


# ---------------------------------------------------------------------------
# single-step algebra

def test_fixed_point_of_the_update():
    u = np.array([2.0, 1.0, -2.0]) / 3.0  # unit vector
    lam = 4.0
    t = tracker_with_raw([lam * u], n=10)
    t.step(lam * np.outer(u, u))
    np.testing.assert_allclose(t.raw[0], lam * u, atol=1e-12)


def test_zero_matrix_shrinks_carriers():
    v = np.array([1.0, 2.0, 2.0])
    t = tracker_with_raw([v], n=5)
    t.step(np.zeros((3, 3)))
    np.testing.assert_allclose(t.raw[0], (1.0 - 1.0 / 6.0) * v, atol=1e-14)


def test_collapsed_carrier_is_reinitialized():
    u = np.array([1.0, 0.0])
    w = np.array([0.0, 1.0])
    # at n=0 the gain is 1, and w maps onto the u-direction, so the
    # second carrier collapses during deflation and must be replaced
    t = tracker_with_raw([u, w], n=0)
    t.step(np.outer(u, u))
    assert t.n_reinits == 1
    b = t.basis
    np.testing.assert_allclose(b @ b.T, np.eye(2), atol=1e-10)


@pytest.mark.parametrize("shape", [(3, 1), (1, 3), (3, 4), (4, 4), (3,), (9,)],
                         ids=lambda s: "x".join(map(str, s)))
def test_step_rejects_wrong_shape_without_changing_state(shape):
    # a (3, 1) column would otherwise broadcast into every carrier
    t = tracker_with_raw([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]], n=4)
    before = t.state_dict()
    with pytest.raises(ValueError, match="expected a 3x3 matrix"):
        t.step(np.ones(shape))
    assert t.state_dict() == before


def test_carrier_overflow_is_a_numerical_error():
    # eigenvalues ~1e200 are past where the carriers' squared norms fit
    # float64 (the tracker used to write inf and NaN carriers); the failing
    # step writes nothing.  In the pipeline the MCM stops first, since its
    # |V|_F^2 overflows before the average's eigenvalues get there
    t = tracker_with_raw([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], n=0)
    before = t.state_dict()
    with pytest.raises(NumericalError, match="the tracker carriers' squared norm overflows"):
        t.step(np.diag([3e200, 2e200, 1e200]))
    assert t.state_dict() == before


def test_power_iteration_example():
    # constant matrix diag(3,1,0), start (1,1,1): 500 steps must align
    # the top carrier with e1 to within 1e-2 radians
    t = OnlineEigenTracker(3, 1)
    offer(t, [1.0, 1.0, 1.0])
    v = np.diag([3.0, 1.0, 0.0])
    for _ in range(500):
        t.step(v)
    angle = np.arccos(min(1.0, abs(t.basis[0] @ np.array([1.0, 0.0, 0.0]))))
    assert angle <= 1e-2
    assert t.eigenvalues[0] == pytest.approx(3.0, rel=0.05)


def test_eigenvalues_sorted_and_nonnegative():
    rng = np.random.default_rng(0)
    t = OnlineEigenTracker(6, 3)
    for _ in range(3):
        offer(t, rng.standard_normal(6))
    m = np.diag([5.0, 3.0, 2.0, 1.0, 0.5, 0.1])
    for _ in range(200):
        t.step(m)
        vals = t.eigenvalues
        assert np.all(vals >= 0.0)
        assert np.all(np.diff(vals) <= 1e-12)
    b = t.basis
    np.testing.assert_allclose(b @ b.T, np.eye(3), atol=1e-8)


def test_basis_spans_match_raw_spans():
    t = OnlineEigenTracker(5, 3)
    t.force_ready()
    for _ in range(50):
        t.step(np.diag([4.0, 2.0, 1.0, 0.3, 0.1]))
    raw, b = t.raw, t.basis
    for j in range(1, 4):
        assert np.linalg.norm(projector(raw[:j]) - projector(b[:j])) <= 1e-8


def test_readouts_before_ready_are_errors():
    t = OnlineEigenTracker(3, 2)
    offer(t, [1.0, 0.0, 0.0])
    for read in (lambda: t.raw, lambda: t.eigenvalues, lambda: t.basis):
        with pytest.raises(RuntimeError, match="tracker not initialized"):
            read()


def test_state_roundtrip_continues_identically():
    rng = np.random.default_rng(2)
    t = OnlineEigenTracker(4, 2, seed=3)
    t.force_ready()
    mats = [np.diag(rng.uniform(0.1, 3.0, 4)) for _ in range(10)]
    for m in mats[:5]:
        t.step(m)
    clone = OnlineEigenTracker.from_state_dict(t.state_dict())
    for m in mats[5:]:
        t.step(m)
        clone.step(m)
    np.testing.assert_array_equal(clone.raw, t.raw)


def _tracker_stream(rng, d, kind, n=24):
    """``n`` exactly symmetric (d, d) operands.  "drift" is a random PSD
    matrix under small symmetric noise; "swap" moves the large
    eigenvalues to other coordinates at every step, so the carrier norms
    cross and get reordered; "zero" and "rank-one" open on matrices of
    rank below q, which collapse carriers at gain 1 (reinits); "tiny" and
    "huge" are "drift" scaled by 1e-30 and 1e100."""
    a = rng.standard_normal((d, d))
    base = a @ a.T / d
    mats = []
    for k in range(n):
        if kind == "swap":
            lam = np.zeros(d)
            lam[rng.permutation(d)[:4]] = [8.0, 4.0, 2.0, 1.0][:min(d, 4)]
            m = np.diag(lam)
        else:
            e = rng.standard_normal((d, d)) * 0.1
            m = base + (e + e.T)
        if kind == "zero" and k < 3:
            m = np.zeros((d, d))
        elif kind == "rank-one" and k < 6:
            u = rng.standard_normal(d)
            m = np.outer(u, u)
        mats.append(m * {"tiny": 1e-30, "huge": 1e100}.get(kind, 1.0))
    return mats


_STREAM_KINDS = ("drift", "swap", "zero", "rank-one", "tiny", "huge")


@pytest.mark.parametrize("d,q", [(1, 1)] + [(d, q) for d in (3, 7, 13, 101)
                                            for q in range(1, min(d, 4) + 1)])
def test_step_is_the_reference_step_bit_for_bit(d, q, monkeypatch):
    # 20 streams per (d, q), 320 in all.  The reference computes every
    # norm where it is used and always sorts; the step keeps squared
    # norms and row norms and sorts only when the order changes.  The
    # reference warms up and reinits through its own Gram-Schmidt loop.
    # Half the trackers start loaded from a snapshot, and each is reloaded
    # mid-stream, so the kept norms start empty; a step there against
    # 1e200 I overflows, and must raise and write nothing in both
    sorts = []
    argsort = np.argsort
    monkeypatch.setattr(np, "argsort", lambda *a, **k: sorts.append(1) or argsort(*a, **k))
    reorders = reinits = 0
    for seed in range(20):
        rng = np.random.default_rng([d, q, seed])
        start, ref = OnlineEigenTracker(d, q, seed=seed), OnlineEigenTracker(d, q, seed=seed)
        for _ in range(seed % (q + 1)):
            x = rng.standard_normal(d)
            assert start._offer(x.copy()) == tracker_offer(ref, x)
        start.force_ready()
        tracker_force_ready(ref)
        state = start.state_dict()
        assert ref.state_dict() == state
        tracker = OnlineEigenTracker.from_state_dict(state) if seed % 2 else start
        mats = _tracker_stream(rng, d, _STREAM_KINDS[seed % len(_STREAM_KINDS)])
        for k, m in enumerate(mats):
            if k == len(mats) // 2:
                tracker = OnlineEigenTracker.from_state_dict(
                    json.loads(json.dumps(tracker.state_dict())))
                before, errors = tracker.raw, []
                for step, t in ((OnlineEigenTracker.step, tracker), (tracker_step, ref)):
                    with pytest.raises(NumericalError) as exc:
                        step(t, np.eye(d) * 1e200)
                    errors.append(str(exc.value))
                assert errors[0] == errors[1]
                assert np.array_equal(tracker.raw, before)
            del sorts[:]
            tracker.step(m)
            reorders += len(sorts)
            tracker_step(ref, m)
            raw, basis, eigenvalues = tracker_readouts(ref)
            assert np.array_equal(tracker.raw, raw), (seed, k)
            assert np.array_equal(tracker.basis, basis), (seed, k)
            assert np.array_equal(tracker.eigenvalues, eigenvalues), (seed, k)
            assert tracker.state_dict() == ref.state_dict(), (seed, k)
        reinits += tracker.n_reinits
    assert reinits > 0
    assert reorders > 0 or q == 1


def _warmup_rows(rng, d, n, first_kind):
    """``n`` seeded warm-up rows of kinds ``first_kind``, ``first_kind`` + 1,
    ... (mod 6): Gaussian at unit scale, past 1e154 (|x|^2 overflows),
    near 1e307, a combination of two earlier rows (dependent at any
    scale), zero, and a spike of 1e300 in one entry."""
    rows = []
    for k in range(first_kind, first_kind + n):
        kind = k % 6
        z = rng.standard_normal(d)
        if kind == 1:
            z *= 1e160
        elif kind == 2:
            z = np.clip(z, -5.0, 5.0) * 3e307
        elif kind == 3 and rows:
            a, b = rng.integers(len(rows), size=2)
            z = rng.uniform(-0.5, 0.5) * rows[a] + rng.uniform(-0.5, 0.5) * rows[b]
        elif kind == 4:
            z[:] = 0.0
        elif kind == 5:
            z[rng.integers(d)] = 1e300
        assert np.isfinite(z).all()
        rows.append(z)
    return rows


@pytest.mark.parametrize("d,q", [(1, 1)] + [(d, q) for d in (3, 7, 13)
                                            for q in range(1, min(d, 4) + 1)])
def test_warmup_and_reinits_are_the_reference_bit_for_bit(d, q):
    # the warm-up, force_ready and the step's reinits deflate through one
    # routine; the reference keeps the Gram-Schmidt loops they replaced
    ignored = draws = reinits = 0
    for seed in range(12):
        rng = np.random.default_rng([d, q, seed, 1])
        tracker, ref = OnlineEigenTracker(d, q, seed=seed), OnlineEigenTracker(d, q, seed=seed)
        for x in _warmup_rows(rng, d, seed % 9, seed % 6):
            if tracker.ready:
                break
            filled = tracker._filled
            assert tracker._offer(x.copy()) == tracker_offer(ref, x.copy())
            assert tracker._filled == ref._filled
            assert np.array_equal(tracker._raw, ref._raw), seed
            ignored += tracker._filled == filled
        tracker.force_ready()
        tracker_force_ready(ref)
        assert np.array_equal(tracker._raw, ref._raw), seed
        assert tracker._rng_draws == ref._rng_draws
        draws += tracker._rng_draws
        state = tracker.state_dict()
        assert ref.state_dict() == state
        # at gain 1 these collapse every carrier, or all but the first
        u = rng.standard_normal(d)
        for m in (np.zeros((d, d)), np.outer(u, u), np.outer(u, u) * 1e100, np.eye(d) * 1e-30):
            tracker, ref = (OnlineEigenTracker.from_state_dict(state) for _ in range(2))
            tracker.step(m)
            tracker_step(ref, m)
            assert np.array_equal(tracker.raw, ref.raw), seed
            assert tracker.state_dict() == ref.state_dict(), seed
            reinits += tracker.n_reinits
    assert ignored > 0
    assert draws > 0
    assert reinits > 0


# ---------------------------------------------------------------------------
# scores

def test_scores_at_center_are_zero():
    scores, dist = tracker_with_raw([[1.0, 0.0]]).scores([1.0, 2.0], [1.0, 2.0])
    np.testing.assert_array_equal(scores, [0.0])
    assert dist == 0.0


def test_scores_coordinate_projection():
    basis = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
    scores, dist = tracker_with_raw(basis).scores([1.0, 2.0, 3.0], [0.0, 0.0, 0.0])
    np.testing.assert_allclose(scores, [1.0, 2.0])
    assert dist == pytest.approx(3.0)


def test_scores_pythagoras():
    rng = np.random.default_rng(4)
    q, _ = np.linalg.qr(rng.standard_normal((5, 3)))
    tracker = tracker_with_raw(q.T)
    for _ in range(20):
        x = rng.standard_normal(5)
        c = rng.standard_normal(5)
        scores, dist = tracker.scores(x, c)
        total = float(scores @ scores) + dist * dist
        assert total == pytest.approx(float((x - c) @ (x - c)), abs=1e-10)


def test_scores_of_an_overflowing_residual_are_finite():
    # the residual's squared norm overflows; its norm does not
    tracker = tracker_with_raw([[1.0, 0.0, 0.0, 0.0]])
    scores, dist = tracker.scores([1e200, 2e200, 3e200, 1e200], np.zeros(4))
    np.testing.assert_array_equal(scores, [1e200])
    assert dist == pytest.approx(np.sqrt(14.0) * 1e200, rel=1e-15)


def test_scores_check_the_tracker_then_both_vectors():
    tracker = tracker_with_raw([[1.0, 0.0, 0.0]])
    with pytest.raises(ValueError, match="expected 3, got 2"):
        tracker.scores([1.0, 2.0], np.zeros(3))
    with pytest.raises(ValueError, match="expected 3, got 4"):
        tracker.scores(np.zeros(3), np.zeros(4))
    with pytest.raises(ValueError, match="non-finite"):
        tracker.scores([1.0, np.nan, 0.0], np.zeros(3))
    unready = OnlineEigenTracker(3, 1)
    with pytest.raises(RuntimeError, match="warm-up incomplete"):
        unready.scores([1.0, 2.0], np.zeros(4))


# ---------------------------------------------------------------------------
# agreement with batch decomposition on a clean stream

def test_online_tracks_batch_eigenspace():
    # d=100 anisotropic clean Gaussian: the tracked top-3 projector and
    # the batch top-3 projector of Vbar_n agree (median R over 20 seeds
    # stays within 0.1 from n=500 on; pilot medians ~0.02 at 500)
    d, q, n = 100, 3, 2000
    checkpoints = (500, 1000, 2000)
    ms, cs = calibrated_schedules(d)
    factor = np.linalg.cholesky(brownian_cov(d))
    gaps = {c: [] for c in checkpoints}
    spot = None
    for seed in range(20):
        rng = np.random.default_rng(seed)
        est = StreamingRobustPCA(d, q, median_schedule=ms, cov_schedule=cs,
                                 eigen_seed=seed)
        xs = rng.standard_normal((n, d)) @ factor.T
        for i, x in enumerate(xs, start=1):
            est.update(x)
            if i in checkpoints:
                vbar = est.mcm.estimate
                _, vecs = eigh_descending(vbar)
                batch = projector(vecs[:, :q].T)
                gaps[i].append(eigenspace_error(est.tracker.projector(), batch))
                if seed == 0 and i == n:
                    spot = (vbar, batch)
    for c in checkpoints:
        assert np.median(gaps[c]) <= 0.1, (c, np.median(gaps[c]))
    # the fast path above uses LAPACK; confirm the reference Jacobi
    # solver produces the same batch projector on one snapshot
    vbar, batch = spot
    pairs = sym_eigen(vbar)
    jac = projector([p.vector for p in pairs[:3]])
    assert np.linalg.norm(jac - batch) <= 1e-8


# ---------------------------------------------------------------------------
# the pipeline steps on the live average as it is

def mixed_stream(rng, n, d):
    """Gaussian rows with every 7th row x1e75 and a run of 12 repeated rows."""
    xs = rng.standard_normal((n, d)) * rng.uniform(0.5, 3.0, d)
    xs[::7] *= 1e75
    xs[n // 2:n // 2 + 12] = xs[n // 2]
    return xs


@pytest.mark.parametrize("known", [False, True], ids=["joint", "known"])
@pytest.mark.parametrize("psd", [True, False], ids=["psd", "raw"])
def test_step_on_live_average_matches_symmetrized_copy(psd, known):
    # a clone of the pipeline's tracker, stepped on as_sym_matrix(Vbar),
    # stays bitwise equal: Vbar is exactly symmetric, so the check the
    # tracker no longer makes would change nothing
    for q in (1, 2, 3):
        for seed in range(3):
            rng = np.random.default_rng([q, seed])
            d = int(rng.integers(q + 1, 9))
            model = StreamingRobustPCA(d, q, psd_mode=psd, eigen_seed=seed,
                                       known_median=np.zeros(d) if known else None,
                                       eigen_lag=int(rng.integers(0, 2 * d)))
            clone = None
            for x in mixed_stream(rng, 300, d):
                model.update(x)
                if clone is None:
                    if model.tracker.ready:
                        clone = OnlineEigenTracker.from_state_dict(model.tracker.state_dict())
                elif model.tracker.n_steps > clone.n_steps:
                    clone.step(as_sym_matrix(model.mcm.estimate))
                    assert np.array_equal(clone.raw, model.tracker.raw)
            assert clone is not None and clone.n_steps > 200
            assert np.all(np.isfinite(model.tracker.raw))


@pytest.mark.parametrize("known", [False, True], ids=["joint", "known"])
def test_resume_at_every_split_matches_single_pass(known):
    # the early rows repeat, so the q=3 warm-up spans several rows and
    # some splits land while it is partly filled
    xs = np.random.default_rng(12).standard_normal((16, 4))
    xs[1:4] = xs[0]
    xs[5:7] = xs[4]

    def fresh():
        return StreamingRobustPCA(4, 3, eigen_lag=0, known_median=np.ones(4) if known else None)

    full = fresh()
    for x in xs:
        full.update(x)
    warmup_splits = 0
    for k in range(len(xs) + 1):
        head = fresh()
        for x in xs[:k]:
            head.update(x)
        state = json.loads(json.dumps(head.state_dict()))
        warmup_splits += len(state["tracker"]["warmup"]) > 0
        model = StreamingRobustPCA.from_state_dict(state)
        for x in xs[k:]:
            model.update(x)
        assert model.state_dict() == full.state_dict()
        # the resumed tracker rebuilds the carrier norms it keeps
        assert np.array_equal(model.tracker.basis, full.tracker.basis)
        assert np.array_equal(model.tracker.eigenvalues, full.tracker.eigenvalues)
    assert warmup_splits >= 3


@pytest.mark.filterwarnings("ignore:overflow encountered in subtract:RuntimeWarning")
def test_overflowing_row_leaves_the_pipeline_unchanged():
    a = np.array([1e308, -1e308, 1e308])
    model = StreamingRobustPCA(3, 2, eigen_lag=0).update(a)
    before = model.state_dict()
    with pytest.raises(NumericalError, match="overflows float64"):
        model.update(-a)
    assert model.rows == 1 and model.state_dict() == before


@pytest.mark.parametrize("known", [False, True], ids=["joint", "known"])
def test_update_many_matches_row_by_row(known):
    # the block path runs the same unchecked _update on each row
    rng = np.random.default_rng(21)
    xs = mixed_stream(rng, 300, 5)

    def fresh():
        return StreamingRobustPCA(5, 2, eigen_lag=3, known_median=np.ones(5) if known else None)

    rows = fresh()
    for x in xs:
        rows.update(x)
    blocks = fresh()
    for block in np.array_split(xs, [1, 2, 40, 41, 200]):
        blocks.update_many(block)
    assert blocks.tracker.n_steps > 200
    assert blocks.rows == rows.rows == 300
    assert blocks.state_dict() == rows.state_dict()


def test_a_rejected_block_leaves_the_pipeline_unchanged():
    xs = np.random.default_rng(22).standard_normal((30, 4))
    model = StreamingRobustPCA(4, 2, eigen_lag=0).update_many(xs[:10])
    before = model.state_dict()
    bad = xs[10:].copy()
    bad[7, 2] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        model.update_many(bad)
    with pytest.raises(ValueError, match="4 wide"):
        model.update_many(xs[10:, :3])
    assert model.rows == 10 and model.state_dict() == before


def test_a_row_is_checked_once(monkeypatch):
    # the pipeline checks a row where it enters and steps the MCM and the
    # median unchecked; update_many checks its block as a whole, not row by row
    calls = []

    def counted(x, *, dim=None):
        calls.append(dim)
        return linalg.as_vector(x, dim=dim)

    for module in (geomedian, mcm, bench, online_pca):
        if hasattr(module, "as_vector"):
            monkeypatch.setattr(module, "as_vector", counted)
    rows = np.random.default_rng(3).standard_normal((30, 4))
    model = StreamingRobustPCA(4, 2, eigen_lag=0)
    for x in rows[:10]:
        model.update(x)
    assert model.tracker.n_steps > 0
    calls.clear()
    for x in rows[10:]:
        model.update(x)
    assert len(calls) == 20
    calls.clear()
    for est in (GeometricMedianSGD(4), MedianCovariationSGD(4)):
        est.update_many(rows)
    assert calls == []


# ---------------------------------------------------------------------------
# snapshot loader fuzz

def _fuzz_bases():
    """Valid snapshots: a ready joint one (d=3, q=2), one mid-warm-up
    (d=4, q=3), a known-median one, and one of the deferred MCM with an
    open block of 5 rows."""
    rng = np.random.default_rng(9)
    ready = StreamingRobustPCA(3, 2, eigen_lag=0)
    warming = StreamingRobustPCA(4, 3, eigen_lag=0)
    known = StreamingRobustPCA(3, 1, known_median=np.ones(3))
    for x in rng.standard_normal((20, 3)):
        ready.update(x)
        known.update(x)
    warming.update(np.zeros(4)).update(np.ones(4)).update(np.ones(4))
    assert ready.tracker.ready and not warming.tracker.ready
    blocked = StreamingRobustPCA(mcm._BLOCK_MIN_DIM, 2, eigen_lag=0).update_many(
        rng.standard_normal((mcm._BLOCK_ROWS + 6, mcm._BLOCK_MIN_DIM)))
    assert blocked.mcm._k == 5
    return [json.loads(json.dumps(m.state_dict())) for m in (ready, warming, known, blocked)]


_FUZZ_BASES = _fuzz_bases()

_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.sampled_from([10**6, -(2**63), 10**400])
    | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


def _paths(node, prefix=()):
    """Paths to every value below the top of a payload, list items included."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _values_like(path, original):
    """Corrupt values of the field's own size: any float64 entries in a
    packed matrix or a nested list, so the shape checks pass."""
    if path[-1] in ("v", "vbar", "u", "w", "s") and isinstance(original, str):
        size = len(base64.b64decode(original)) // 8
        return hnp.arrays(np.float64, size).map(pack_array)
    if isinstance(original, list) and original:
        return hnp.arrays(np.float64, np.shape(original)).map(np.ndarray.tolist)
    return st.nothing()


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_snapshot_loader_raises_only_data_error(data):
    # one field anywhere in a valid snapshot gets a wrong value: the
    # loader either accepts it or raises DataError, never anything else
    state = copy.deepcopy(data.draw(st.sampled_from(_FUZZ_BASES)))
    path = data.draw(st.sampled_from(list(_paths(state))))
    node = state
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = data.draw(_JSON_VALUES | _values_like(path, node[path[-1]]))
    try:
        StreamingRobustPCA.from_state_dict(state)
    except DataError:
        pass
