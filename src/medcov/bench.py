"""Monte Carlo benchmark harness, streaming fit of a CSV file, and file IO.

Estimator names used throughout:

* ``pca``       -- classical PCA: eigenvectors of the sample covariance
                   (non-robust reference),
* ``mcm_w``     -- batch Weiszfeld median + Weiszfeld MCM,
* ``mcm_r``     -- streaming averaged-SGD MCM, raw steps,
* ``mcm_rplus`` -- streaming averaged-SGD MCM with the PSD step clip.

A replication fits the two streaming estimators as two lanes of one pass.

Every replication r of a benchmark draws its sample with seed
``base_seed + r``, so replications are independent, reproducible, and
safe to farm out to a process pool; results are reduced in replication
order, which makes the report CSV byte-identical no matter how many
workers ran (wall-clock timings go to the JSON sidecar, never the CSV).
The worker count is capped by the ``MEDCOV_MAX_WORKERS`` environment
variable (default 1).
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
import warnings
from contextlib import contextmanager, nullcontext, suppress
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DataError, MedcovError, NumericalError
from .geomedian import StepSchedule, weiszfeld_median
from .linalg import as_vector, eigh_descending
from .mcm import _block_fits, weiszfeld_mcm
from .metrics import SummaryStats, eigenspace_error, mc_summary
from .online_pca import StreamingRobustPCA
from .simgen import ScenarioConfig, brownian_cov, draw_sample

ESTIMATORS = ("pca", "mcm_w", "mcm_r", "mcm_rplus")

WORKERS_ENV = "MEDCOV_MAX_WORKERS"

_FAIL_EXC = (MedcovError, ValueError, ArithmeticError)

_BLOCK_BYTES, _BLOCK_LINES = 1 << 18, 64  # CSV text per read, and lines per loadtxt parse


# ---------------------------------------------------------------------------
# Output files (one writer) and CSV data files (observations, no header)

def _fmt(x):
    return repr(float(x))


@contextmanager
def _replace_on_success(path):
    """A text file open for writing on ``path``: the one writer behind
    every file medcov writes.  A regular file, or a missing one, is written
    to a temporary file beside it (beside a symlink's target), moved over
    it with ``os.replace`` only if the block succeeds, and removed on any
    failure; an existing file keeps its mode, and its owner where the
    writer may set it.  Anything else, say a FIFO or /dev/null, is opened
    and written as the block runs.  An OSError of the block or of the
    replacement that names no file, or the temporary one, names ``path``."""
    real = os.path.realpath(path)
    if os.path.exists(real) and not os.path.isfile(real):
        with open(path, "w", encoding="utf-8") as fh:
            yield fh
        return
    tmp = f"{real}.{os.urandom(8).hex()}.tmp"
    fd = None
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)  # the umask applies
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            if os.path.exists(real):
                old = os.stat(real)
                with suppress(PermissionError):  # only root may give a file away
                    os.chown(tmp, old.st_uid, old.st_gid)
                os.chmod(tmp, old.st_mode & 0o7777)  # after chown, which may clear set-id bits
            yield fh
        os.replace(tmp, real)
    except BaseException as exc:
        if fd is not None:
            os.remove(tmp)
        if isinstance(exc, OSError) and exc.errno and exc.filename in (None, tmp):
            raise OSError(exc.errno, exc.strerror, path) from None
        raise


def _write_lines(path, lines):
    with _replace_on_success(path) as fh:
        for line in lines:
            fh.write(line + "\n")


def write_csv(path, rows, header=False):
    """Write observations (2-D array) as CSV, one row per observation.

    Values are written with shortest round-trip precision.  ``header``
    adds a first line x1,...,xd.
    """
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2:
        raise ValueError(f"expected a 2-D sample array, got shape {rows.shape}")
    with _replace_on_success(path) as fh:
        _write_csv_stream(fh, rows, header)


def _write_csv_stream(fh, rows, header):
    if header:
        fh.write(",".join(f"x{j + 1}" for j in range(rows.shape[1])) + "\n")
    for row in rows:
        fh.write(",".join(map(repr, row.tolist())) + "\n")


def iter_csv_rows(path, *, skip_header=False):
    """Yield (line_number, vector) for each observation row of a CSV.

    Raises :class:`DataError` with the offending line (and column) on
    ragged rows or cells that do not parse to a finite float, and naming
    the file on bytes that are not UTF-8.  Each vector is a view of a block.
    """
    for line_no, block in _csv_blocks(path, skip_header):
        yield from zip(range(line_no, line_no + len(block)), block)


def _csv_blocks(path, skip_header):
    """Yield (first line number, float64 rows) for blocks of a CSV's
    observation lines.  A block :func:`_parse_block` refuses is parsed line
    by line: its good rows come first, then the DataError of its bad line."""
    with open(path, "r", encoding="utf-8") as fh:
        dim = None
        line_no = 2 if skip_header else 1
        try:
            if skip_header:
                fh.readline()
            while lines := fh.readlines(_BLOCK_BYTES):  # at least one line, however long
                for start in range(0, len(lines), _BLOCK_LINES):
                    part = lines[start:start + _BLOCK_LINES]
                    dim = dim or part[0].count(",") + 1  # the first row sets the width
                    block = _parse_block(part, dim)
                    if block is not None:
                        yield line_no, block
                    else:
                        for i, line in enumerate(part):
                            yield line_no + i, _parse_line(path, line_no + i, line, dim)[None]
                    line_no += len(part)
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not UTF-8 text: {exc}") from None


def _parse_block(lines, dim):
    """One np.loadtxt parse of ``lines``, or None unless it gives one
    finite row of width ``dim`` per line as float() would: loadtxt skips
    blank lines, and strips 0x1c-0x1f from a cell, which float() refuses."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # on a block of blank lines
        try:
            block = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
        except ValueError:
            return None
    text = "".join(lines)
    if (block.shape == (len(lines), dim) and np.isfinite(block).all()
            and not any(sep in text for sep in "\x1c\x1d\x1e\x1f")):
        return block
    return None


def _parse_line(path, line_no, line, dim):
    cells = line.rstrip("\n").split(",")
    if len(cells) != dim:
        raise DataError(f"{path}: line {line_no}: expected {dim} columns, got {len(cells)}")
    try:
        vec = np.array(cells, dtype=float)  # each cell as float() parses it
    except ValueError:
        vec = None
    if vec is None or not np.isfinite(vec).all():
        raise _cell_error(path, line_no, cells)
    return vec


def _cell_error(path, line_no, cells):
    """The :class:`DataError` naming the first cell of a row that is not a
    finite float."""
    for col, cell in enumerate(cells, start=1):
        try:
            if np.isfinite(float(cell)):
                continue
            problem = f"non-finite value {cell.strip()!r}"
        except ValueError:
            problem = f"not a number: {cell.strip()!r}"
        return DataError(f"{path}: line {line_no}, column {col}: {problem}")


# ---------------------------------------------------------------------------
# Benchmark configuration and report rows

def calibrated_schedules(d, *, c_median=None, c_mcm=None, alpha=StepSchedule.alpha):
    """Step schedules matched to the benchmark generator's scale.

    The recursions are scale-equivariant (scaling the data by s maps the
    sensible constants c_median -> s*c_median and c_mcm -> s^2*c_mcm), so
    a useful first step is one comparable to the typical residual it
    divides: under the Brownian-path design the residual norms grow like
    ``sqrt(d)/2`` for the median and like ``d/2`` for the rank-one
    centered outer products the covariation recursion consumes.  With
    constants of that size the estimation error is essentially dimension
    free, and the PSD step clip actually engages on early iterations.
    Explicit ``c_median``/``c_mcm`` values override the calibration.
    """
    if d < 1:
        raise ConfigError(f"dimension must be >= 1, got {d}")
    if c_median is None:
        c_median = 0.5 * float(np.sqrt(d))
    if c_mcm is None:
        c_mcm = 0.5 * float(d)
    return StepSchedule(c_median, alpha), StepSchedule(c_mcm, alpha)


@dataclass(frozen=True)
class RunConfig:
    """One Monte Carlo experiment: scenario x sample size x estimators.

    ``seed`` is the master seed: replication r draws its sample from the
    scenario reseeded with seed + r (the scenario's own seed field is
    only used for standalone sampling).  Schedules left as None are
    filled in by :func:`calibrated_schedules` for the scenario dimension.
    """

    scenario: ScenarioConfig
    n: int = 200
    q: int = 2
    replications: int = 100
    estimators: tuple = ESTIMATORS
    median_schedule: StepSchedule | None = None
    cov_schedule: StepSchedule | None = None
    output_path: str | None = None
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.scenario, ScenarioConfig):
            raise ConfigError("scenario must be a ScenarioConfig")
        if self.median_schedule is None or self.cov_schedule is None:
            med, cov = calibrated_schedules(self.scenario.d)
            if self.median_schedule is None:
                object.__setattr__(self, "median_schedule", med)
            if self.cov_schedule is None:
                object.__setattr__(self, "cov_schedule", cov)
        if self.n < 1:
            raise ConfigError(f"sample size must be >= 1, got {self.n}")
        if not (1 <= self.q <= self.scenario.d):
            raise ConfigError(
                f"q must be in [1, {self.scenario.d}], got {self.q}"
            )
        if self.replications < 1:
            raise ConfigError(f"replications must be >= 1, got {self.replications}")
        requested = tuple(self.estimators)
        unknown = [e for e in requested if e not in ESTIMATORS]
        if unknown:
            raise ConfigError(
                f"unknown estimators {unknown}; choose from {', '.join(ESTIMATORS)}"
            )
        if not requested:
            raise ConfigError("estimators must be nonempty")
        canonical = tuple(e for e in ESTIMATORS if e in requested)
        object.__setattr__(self, "estimators", canonical)


class ReportRow(NamedTuple):
    estimator: str
    scenario: str
    delta: float
    d: int
    n: int
    q: int
    reps: int
    excluded: int
    median_R: float
    q1_R: float
    q3_R: float
    mean_R: float
    seed: int
    wall_time_ms: float


REPORT_COLUMNS = ReportRow._fields[:-1]  # the wall time goes to the JSON sidecar only


@lru_cache(maxsize=32)
def _true_projector(d, q):
    p = top_q_projector(brownian_cov(d), q)
    p.setflags(write=False)
    return p


def top_q_projector(mat, q):
    """Orthogonal projector onto the span of the top-q eigenvectors."""
    values, vectors = eigh_descending(mat)
    if not (1 <= q <= vectors.shape[1]):
        raise ValueError(f"q must be in [1, {vectors.shape[1]}], got {q}")
    u = vectors[:, :q]
    return u @ u.T


def _sample_covariance(x):
    """Covariance of an in-memory sample, dividing by n (eigenvectors do
    not depend on n vs n - 1).  A sample whose covariance overflows
    raises ``FloatingPointError``, so its replication is excluded."""
    with np.errstate(over="raise", invalid="raise"):
        c = x - x.mean(axis=0)
        return c.T @ c / len(x)


def _fit_pca(x, cfg):
    return top_q_projector(_sample_covariance(x), cfg.q)


def _fit_mcm_w(x, cfg):
    m_hat = weiszfeld_median(x)
    gamma = weiszfeld_mcm(x, m_hat)
    return top_q_projector(gamma, cfg.q)


_FITTERS = {"pca": _fit_pca, "mcm_w": _fit_mcm_w}

# the streaming estimators, by PSD mode
_PSD_MODES = {"mcm_r": False, "mcm_rplus": True}


def _draw(cfg, r):
    """Replication r's sample (seed ``cfg.seed + r``) and the true top-q projector."""
    scen = dataclasses.replace(cfg.scenario, seed=cfg.seed + r)
    return draw_sample(scen, cfg.n), _true_projector(cfg.scenario.d, cfg.q)


def _run_replication(task):
    """Eigenspace errors (None for a failed fit) and fit times in ms, by
    estimator.  The streaming estimators are lanes of one ``_block_fits`` pass
    and split its time evenly; a raise excludes them all, a None lane its own."""
    cfg, r = task
    x, p_true = _draw(cfg, r)
    streams = [est for est in cfg.estimators if est in _PSD_MODES]
    t0 = time.perf_counter()
    try:
        lanes = _block_fits(x, [_PSD_MODES[est] for est in streams],
                            median_schedule=cfg.median_schedule,
                            cov_schedule=cfg.cov_schedule) if streams else []
    except _FAIL_EXC:
        lanes = [None] * len(streams)
    fits = {est: None if lane is None else lane[1] for est, lane in zip(streams, lanes)}
    share = (time.perf_counter() - t0) * 1000.0 / max(len(streams), 1)
    errors = {}
    times = {}
    for est in cfg.estimators:
        t0 = time.perf_counter()
        try:
            if est in fits:
                p = None if fits[est] is None else top_q_projector(fits[est], cfg.q)
            else:
                p = _FITTERS[est](x, cfg)
            errors[est] = None if p is None else eigenspace_error(p, p_true)
        except _FAIL_EXC:
            errors[est] = None
        times[est] = (time.perf_counter() - t0) * 1000.0 + (share if est in fits else 0.0)
    return errors, times


def resolve_workers(workers=None):
    """Worker-count policy: explicit argument, else MEDCOV_MAX_WORKERS, else 1."""
    if workers is None:
        raw = os.environ.get(WORKERS_ENV)
        if raw is None or raw.strip() == "":
            return 1
        try:
            workers = int(raw)
        except ValueError:
            raise ConfigError(
                f"{WORKERS_ENV} must be an integer, got {raw!r}"
            ) from None
    if workers < 1:
        raise ConfigError(f"worker count must be >= 1, got {workers}")
    return workers


def _pool_map(fn, tasks, workers):
    if workers <= 1 or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing

    with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
        return list(pool.map(fn, tasks))  # order preserved: deterministic reduce


def run_benchmark(cfg, *, workers=None):
    """Run the Monte Carlo experiment and aggregate per-estimator rows.

    A replication whose fit fails (overflow on wild draws, eigensolver
    breakdown) is excluded from that estimator's aggregation and counted
    in the ``excluded`` column.  Writes the report CSV and JSON sidecar
    when the config has an output path.
    """
    workers = resolve_workers(workers)
    results = _pool_map(
        _run_replication, [(cfg, r) for r in range(cfg.replications)], workers
    )
    rows = []
    scen = cfg.scenario
    for est in cfg.estimators:
        values = [errs[est] for errs, _ in results if errs[est] is not None]
        excluded = cfg.replications - len(values)
        if values:
            stats = mc_summary(values)
        else:
            stats = SummaryStats(float("nan"), float("nan"), float("nan"), float("nan"))
        wall = sum(times[est] for _, times in results)
        rows.append(ReportRow(est, scen.contamination, scen.delta, scen.d, cfg.n, cfg.q,
                              cfg.replications, excluded, *stats, cfg.seed, wall))
    if cfg.output_path:
        write_report(rows, cfg.output_path, cfg=cfg, workers=workers)
    return rows


def report_lines(rows, columns=REPORT_COLUMNS):
    """Table CSV lines: the header, then one line per row holding the
    row's ``columns`` attributes in order (floats in shortest round-trip
    form).  Serves the report rows and, with ``CURVE_COLUMNS``, the
    curve points.

    The report's timing fields are deliberately absent so the CSV is
    byte-identical for identical configs regardless of worker count.
    """
    lines = [",".join(columns)]
    for row in rows:
        cells = []
        for col in columns:
            value = getattr(row, col)
            cells.append(_fmt(value) if isinstance(value, float) else str(value))
        lines.append(",".join(cells))
    return lines


def write_report(rows, path, *, cfg, workers):
    """Write report rows as CSV (fixed column order, no timings) plus a
    ``<path>.meta.json`` sidecar with the config and wall-clock times."""
    _write_lines(path, report_lines(rows))
    meta = {
        "format": "medcov-report-meta",
        "version": 1,
        "columns": list(REPORT_COLUMNS),
        "config": dataclasses.asdict(cfg),
        "workers": workers,
        "wall_time_ms": {row.estimator: row.wall_time_ms for row in rows},
        "excluded": {row.estimator: row.excluded for row in rows},
    }
    _write_lines(path + ".meta.json", [json.dumps(meta, indent=2)])


# ---------------------------------------------------------------------------
# Convergence curves

class CurvePoint(NamedTuple):
    checkpoint: int
    series: str
    mean_R: float
    reps: int


CURVE_COLUMNS = CurvePoint._fields

CURVE_SERIES = ("pca", "mcm", "mcm_online", "online_vs_batch")


def _curve_replication(task):
    cfg, checkpoints, psd_mode, eigen_lag, r = task
    x, p_true = _draw(cfg, r)
    model = StreamingRobustPCA(
        cfg.scenario.d, cfg.q,
        median_schedule=cfg.median_schedule,
        cov_schedule=cfg.cov_schedule,
        psd_mode=psd_mode,
        eigen_seed=cfg.seed + r,
        eigen_lag=eigen_lag,
    )
    out = {}
    try:
        for start, t in zip((0,) + checkpoints, checkpoints):
            model.update_many(x[start:t])
            if not model.tracker.ready:
                model.tracker.force_ready()
            p_pca = top_q_projector(_sample_covariance(x[:t]), cfg.q)
            p_batch = top_q_projector(model.mcm.estimate, cfg.q)
            p_online = model.tracker.projector()
            out[t] = {
                "pca": eigenspace_error(p_pca, p_true),
                "mcm": eigenspace_error(p_batch, p_true),
                "mcm_online": eigenspace_error(p_online, p_true),
                "online_vs_batch": eigenspace_error(p_online, p_batch),
            }
    except _FAIL_EXC:
        return None
    return out


def convergence_curve(cfg, checkpoints, *, psd_mode=True, eigen_lag=None,
                      workers=None):
    """Record eigenspace errors along the stream at the given checkpoints,
    averaged over the config's replications.

    Series: classical PCA, batch eigendecomposition of the averaged MCM,
    the online tracker, and the online-vs-batch agreement error.
    ``eigen_lag`` is forwarded to :class:`StreamingRobustPCA` (None keeps
    its per-dimension default).  Failed replications are dropped from
    every series to keep averages aligned.
    """
    checkpoints = [int(c) for c in checkpoints]
    if not checkpoints:
        raise ConfigError("checkpoints must be nonempty")
    if any(b <= a for a, b in zip(checkpoints, checkpoints[1:])):
        raise ConfigError(f"checkpoints must be strictly increasing, got {checkpoints}")
    if checkpoints[0] < 2:
        raise ConfigError("checkpoints must start at 2 or later")
    if checkpoints[-1] > cfg.n:
        raise ConfigError(
            f"last checkpoint {checkpoints[-1]} exceeds the sample size {cfg.n}"
        )
    workers = resolve_workers(workers)
    tasks = [(cfg, tuple(checkpoints), psd_mode, eigen_lag, r)
             for r in range(cfg.replications)]
    results = [res for res in _pool_map(_curve_replication, tasks, workers) if res is not None]
    if not results:
        raise NumericalError("every curve replication failed")
    points = []
    for t in checkpoints:
        for series in CURVE_SERIES:
            mean = float(np.mean([res[t][series] for res in results]))
            points.append(CurvePoint(t, series, mean, len(results)))
    if cfg.output_path:
        _write_lines(cfg.output_path, report_lines(points, CURVE_COLUMNS))
    return points


# ---------------------------------------------------------------------------
# Streaming fit of a CSV file

def save_snapshot(state, path):
    """Write ``state`` as one JSON line to ``path``, or to an open text file."""
    # json.dumps runs the C encoder; json.dump streams through the Python one
    with nullcontext(path) if hasattr(path, "write") else _replace_on_success(path) as fh:
        fh.write(json.dumps(state) + "\n")


def load_snapshot(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            state = json.load(fh)
        # ValueError: bad JSON, bytes that are not UTF-8, or an integer
        # past Python's digit limit; RecursionError: nesting too deep
        except (ValueError, RecursionError) as exc:
            raise DataError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(state, dict):
        raise DataError(f"{path}: snapshot must be a JSON object")
    return state


def _refuse_overwrite(path, other, what, whose):
    """Raise ConfigError if ``path`` and ``other`` name one file, whether
    it exists or not: the same real path, or a hard link to it."""
    if path and other and (
            os.path.realpath(path) == os.path.realpath(other)
            or all(map(os.path.exists, (path, other))) and os.path.samefile(path, other)):
        raise ConfigError(f"{path}: the {what} would overwrite the {whose}")


def fit_stream(csv_in, *, q=2, median_schedule=None, cov_schedule=None,
               psd_mode=True, eigen_seed=0, eigen_lag=None, resume=None,
               scores_out=None, skip_header=False):
    """Single pass over a CSV of observations.

    Returns ``(snapshot, report)``: the versioned serialized state of
    the joint median/MCM/eigen pipeline, and a small report dict with
    the row count, the median estimate, and the top-q eigenvalue
    estimates (None until the tracker has warmed up).

    ``resume`` takes the path of a snapshot from a previous partial
    pass; feeding rows 1..k, snapshotting, then resuming with rows
    k+1..n reproduces the single-pass state bit for bit.  With
    ``scores_out``, per-row principal-component scores and the
    orthogonal distance are written to a sidecar CSV (rows seen before
    the tracker is ready get nan entries); it must not be ``csv_in`` or
    ``resume``, whose state it would replace.  The sidecar is written by
    ``_replace_on_success``: a regular file is replaced only once the
    whole pass has succeeded; a FIFO or a device gets the rows as they come.
    """
    _refuse_overwrite(scores_out, csv_in, "scores sidecar", "input")
    _refuse_overwrite(scores_out, resume, "scores sidecar", "resumed snapshot")
    model = None
    if resume is not None:
        state = load_snapshot(resume)
        try:
            model = StreamingRobustPCA.from_state_dict(state)
        except DataError as exc:
            raise DataError(f"{resume}: snapshot field {exc}") from None
        q = model.tracker.q  # the snapshot's geometry wins over the arguments
        psd_mode = model.mcm.psd_mode
    rows = 0
    with _replace_on_success(scores_out) if scores_out else nullcontext() as sidecar:
        if sidecar:
            sidecar.write(",".join([f"pc{j + 1}" for j in range(q)] + ["ortho_dist"]) + "\n")
        for line_no, vec in iter_csv_rows(csv_in, skip_header=skip_header):
            if model is None:
                model = StreamingRobustPCA(
                    vec.shape[0], q,
                    median_schedule=median_schedule,
                    cov_schedule=cov_schedule,
                    psd_mode=psd_mode,
                    eigen_seed=eigen_seed,
                    eigen_lag=eigen_lag,
                )
            try:
                if rows == 0:  # a resumed snapshot's width; later rows match the first's
                    as_vector(vec, dim=model.dim)
                model._update(vec)  # iter_csv_rows has checked the row
            except ValueError as exc:
                raise DataError(f"{csv_in}: line {line_no}: {exc}") from exc
            except NumericalError as exc:
                raise NumericalError(f"{csv_in}: line {line_no}: {exc}") from exc
            rows += 1
            if sidecar:
                if model.tracker.ready:
                    scores, dist = model._scores(vec)
                    line = ",".join(map(repr, scores.tolist())) + "," + repr(float(dist))
                else:
                    line = ",".join(["nan"] * (model.tracker.q + 1))
                sidecar.write(line + "\n")
        if model is None:
            raise DataError(f"{csv_in}: file contains no observations")
    snapshot = model.state_dict()
    report = {
        "rows": model.rows,
        "rows_this_pass": rows,
        "updates": model.mcm.n_updates,
        "q": q,
        "psd_mode": bool(psd_mode),
        "median": model.mcm.median_estimate.tolist(),
        "eigenvalues": (model.tracker.eigenvalues.tolist()
                        if model.tracker.ready else None),
    }
    return snapshot, report
