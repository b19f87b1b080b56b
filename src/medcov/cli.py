"""Command-line interface.

Subcommands: ``simulate`` (emit synthetic CSV), ``fit-stream`` (one-pass
robust fit of a CSV), ``fit-weiszfeld`` (batch baseline), ``bench``
(Monte Carlo table), ``curve`` (convergence checkpoints).

Every flag can also be supplied through ``--config FILE`` holding flat
``key=value`` lines (``#`` comments allowed, dashes and underscores
interchangeable in keys); explicit command-line flags override the
file.  Exit codes: 0 success, 2 configuration error, 3 data error,
4 numerical failure.  The ``MEDCOV_MAX_WORKERS`` environment variable
caps the replication worker pool.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext

import numpy as np

from . import bench as _bench
from .errors import ConfigError, DataError, NumericalError
from .geomedian import StepSchedule, weiszfeld_median
from .linalg import eigh_descending
from .mcm import weiszfeld_mcm
from .simgen import CONTAMINATIONS, ScenarioConfig, draw_sample


def _onoff(value):
    text = str(value).strip().lower()
    if text in ("on", "true", "1", "yes"):
        return True
    if text in ("off", "false", "0", "no"):
        return False
    raise ConfigError(f"expected on/off, got {value!r}")


def _step_help(what, calibrated):
    return lambda base: (f"{what} step constant (default "
                         f"{calibrated if base is None else base})")


# key -> (flag, converter, default, help[, argparse keywords]), in --help
# order.  The converter parses config-file values and is reapplied to flag
# values; a help entry that is callable gets the command's default.
_OPTIONS = {
    "d": ("--d", int, 50, "dimension"),
    "n": ("--n", int, 200, "sample size"),
    "delta": ("--delta", float, 0.0, "contamination rate in [0, 1]"),
    "scenario": ("--scenario", str, "none", "contamination law",
                 {"choices": CONTAMINATIONS}),
    "estimators": ("--estimators", str, ",".join(_bench.ESTIMATORS),
                   "comma-separated subset of " + ",".join(_bench.ESTIMATORS)),
    "reps": ("--reps", int, 100, "Monte Carlo replications"),
    "seed": ("--seed", int, 0, "base seed"),
    "q": ("--q", int, 2, "eigenspace dimension"),
    "alpha": ("--alpha", float, StepSchedule.alpha, "step decay exponent in (0.5, 1)"),
    # bench/curve generate their own data, so missing step constants are
    # calibrated to the scenario dimension (see calibrated_schedules).
    "c_median": ("--c-median", float, None, _step_help("median", "0.5*sqrt(d)")),
    "c_mcm": ("--c-mcm", float, None, _step_help("MCM", "0.5*d")),
    "psd_mode": ("--psd-mode", _onoff, True, "PSD step clipping",
                 {"choices": ("on", "off")}),
    "eigen_seed": ("--eigen-seed", int, 0, "seed for tracker reinits"),
    "eigen_lag": ("--eigen-lag", int, None, "MCM updates to absorb before eigen "
                  "tracking starts (default: one per dimension)"),
    "input": ("--in", str, None, "input observations, one row each",
              {"metavar": "CSV"}),
    "eps": ("--eps", float, 1e-8, "Weiszfeld stop: the median's displacement, and the MCM's "
            "relative to the Frobenius norm of its start"),
    "max_iter": ("--max-iter", int, 1000, "Weiszfeld iteration cap"),
    "resume": ("--resume", str, None, "snapshot JSON to continue from",
               {"metavar": "SNAPSHOT"}),
    "scores_out": ("--scores-out", str, None, "per-row score sidecar",
                   {"metavar": "CSV"}),
    "checkpoints": ("--checkpoints", str, None,
                    "comma-separated increasing sample sizes"),
    "header": ("--header", _onoff, False, "emit/expect a header line x1..xd",
               {"action": "store_true"}),
    "out": ("--out", str, None, "output path ('-' for stdout where supported)"),
}

# config-file keys: every option key plus its flag spelled as a key
_KEY_ALIASES = {spec[0][2:].replace("-", "_"): key for key, spec in _OPTIONS.items()}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="medcov",
        description="Streaming robust PCA via the median covariation matrix.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd, (_, help_text, _, _) in _COMMANDS.items():
        p = sub.add_parser(cmd, help=help_text)
        p.add_argument("--config", default=None, metavar="FILE",
                       help="key=value file supplying defaults for any flag")
        defaults = _DEFAULTS[cmd]
        for key, (flag, convert, _, text, *extra) in _OPTIONS.items():
            if key in defaults:
                if callable(text):
                    text = text(defaults[key])
                p.add_argument(flag, dest=key, default=None, help=text,
                               **(extra[0] if extra else {"type": convert}))
    return parser


def _read_config_file(path):
    data = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line_no, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                key, sep, value = line.partition("=")
                if not sep:
                    raise ConfigError(
                        f"{path}: line {line_no}: expected key=value, got {line!r}"
                    )
                key = key.strip().replace("-", "_")
                key = _KEY_ALIASES.get(key, key)
                data[key] = value.strip()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return data


def _merge_options(args):
    cmd = args.command
    opts = dict(_DEFAULTS[cmd])
    if args.config:
        for key, raw in _read_config_file(args.config).items():
            if key not in opts:
                raise ConfigError(
                    f"config key {key!r} is not a {cmd} option "
                    f"(expected one of: {', '.join(sorted(opts))})"
                )
            try:
                opts[key] = _OPTIONS[key][1](raw)
            except (ValueError, TypeError):
                raise ConfigError(
                    f"config key {key!r}: cannot parse {raw!r}"
                ) from None
    for key in opts:
        cli_value = getattr(args, key)
        if cli_value is not None:
            opts[key] = _OPTIONS[key][1](cli_value)
    return opts


def _require_input(opts):
    if not opts["input"]:
        raise ConfigError("an input CSV is required (--in or config key 'in')")
    return opts["input"]


def _load_points(path, header):
    vectors = [vec for _, vec in _bench.iter_csv_rows(path, skip_header=header)]
    if not vectors:
        raise DataError(f"{path}: file contains no observations")
    return np.array(vectors)


def _cmd_simulate(opts):
    cfg = ScenarioConfig(d=opts["d"], delta=opts["delta"],
                         contamination=opts["scenario"], seed=opts["seed"])
    sample = draw_sample(cfg, opts["n"])
    if opts["out"] == "-":
        _bench._write_csv_stream(sys.stdout, sample, opts["header"])
    else:
        _bench.write_csv(opts["out"], sample, header=opts["header"])
    return 0


def _cmd_fit_stream(opts):
    median_schedule = StepSchedule(opts["c_median"], opts["alpha"])
    cov_schedule = StepSchedule(opts["c_mcm"], opts["alpha"])
    csv_in = _require_input(opts)
    _bench._refuse_overwrite(opts["out"], csv_in, "snapshot", "input")
    _bench._refuse_overwrite(opts["out"], opts["scores_out"], "snapshot", "scores sidecar")
    # the snapshot's file is opened before the pass, so an unwritable one fails first
    with _bench._replace_on_success(opts["out"]) if opts["out"] else nullcontext() as out:
        snapshot, report = _bench.fit_stream(
            csv_in,
            q=opts["q"],
            median_schedule=median_schedule,
            cov_schedule=cov_schedule,
            psd_mode=opts["psd_mode"],
            eigen_seed=opts["eigen_seed"],
            eigen_lag=opts["eigen_lag"],
            resume=opts["resume"],
            scores_out=opts["scores_out"],
            skip_header=opts["header"],
        )
        if out:
            _bench.save_snapshot(snapshot, out)
    print(json.dumps(report))
    return 0


def _cmd_fit_weiszfeld(opts):
    csv_in = _require_input(opts)
    _bench._refuse_overwrite(opts["out"], csv_in, "result", "input")
    points = _load_points(csv_in, opts["header"])
    if not (1 <= opts["q"] <= points.shape[1]):
        raise ConfigError(f"q must be in [1, {points.shape[1]}], got {opts['q']}")
    m_hat = weiszfeld_median(points, eps=opts["eps"], max_iter=opts["max_iter"])
    gamma = weiszfeld_mcm(points, m_hat, eps=opts["eps"], max_iter=opts["max_iter"])
    values, _ = eigh_descending(gamma)
    result = {
        "n": int(points.shape[0]),
        "median": m_hat.tolist(),
        "mcm": gamma.tolist(),
        "eigenvalues": values[: opts["q"]].tolist(),
    }
    text = json.dumps(result)
    if opts["out"]:
        _bench._write_lines(opts["out"], [text])
    else:
        print(text)
    return 0


def _run_config(opts):
    scenario = ScenarioConfig(d=opts["d"], delta=opts["delta"],
                              contamination=opts["scenario"], seed=opts["seed"])
    median_schedule, cov_schedule = _bench.calibrated_schedules(
        opts["d"], c_median=opts["c_median"], c_mcm=opts["c_mcm"], alpha=opts["alpha"],
    )
    estimators = tuple(e.strip() for e in opts.get("estimators", "").split(",") if e.strip()) \
        if "estimators" in opts else _bench.ESTIMATORS
    return _bench.RunConfig(
        scenario=scenario,
        n=opts["n"],
        q=opts["q"],
        replications=opts["reps"],
        estimators=estimators,
        median_schedule=median_schedule,
        cov_schedule=cov_schedule,
        output_path=opts["out"],
        seed=opts["seed"],
    )


def _cmd_bench(opts):
    cfg = _run_config(opts)
    rows = _bench.run_benchmark(cfg)
    if not cfg.output_path:
        for line in _bench.report_lines(rows):
            print(line)
    return 0


def _cmd_curve(opts):
    if not opts["checkpoints"]:
        raise ConfigError("--checkpoints is required (comma-separated integers)")
    try:
        checkpoints = [int(c) for c in str(opts["checkpoints"]).split(",") if c.strip()]
    except ValueError:
        raise ConfigError(
            f"cannot parse checkpoints {opts['checkpoints']!r}"
        ) from None
    cfg = _run_config(opts)
    points = _bench.convergence_curve(cfg, checkpoints, psd_mode=opts["psd_mode"],
                                      eigen_lag=opts["eigen_lag"])
    if not cfg.output_path:
        for line in _bench.report_lines(points, _bench.CURVE_COLUMNS):
            print(line)
    return 0


# command -> (handler, help, option keys, defaults that differ from _OPTIONS)
_COMMANDS = {
    "simulate": (_cmd_simulate, "draw a synthetic contaminated sample and write CSV",
                 "d n delta scenario seed out header", {"out": "-"}),
    "fit-stream": (_cmd_fit_stream, "one-pass streaming robust fit of a CSV stream",
                   "input q alpha c_median c_mcm psd_mode eigen_seed eigen_lag out "
                   "scores_out resume header",
                   {"c_median": StepSchedule.c, "c_mcm": StepSchedule.c}),
    "fit-weiszfeld": (_cmd_fit_weiszfeld, "batch Weiszfeld median + MCM fit of a CSV file",
                      "input q eps max_iter out header", {}),
    "bench": (_cmd_bench, "Monte Carlo benchmark table over replications",
              "d n delta scenario estimators reps seed q alpha c_median c_mcm out", {}),
    "curve": (_cmd_curve, "convergence-curve table at checkpoints",
              "d n delta scenario reps seed q alpha c_median c_mcm psd_mode eigen_lag "
              "checkpoints out", {"reps": 20}),
}

# each command's options and their defaults, in the command's key order
_DEFAULTS = {cmd: {key: changed.get(key, _OPTIONS[key][2]) for key in keys.split()}
             for cmd, (_, _, keys, changed) in _COMMANDS.items()}


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command][0](_merge_options(args))
    except (NumericalError, FloatingPointError, np.linalg.LinAlgError) as exc:
        # first: LinAlgError is a ValueError, which would read as exit 2
        print(f"medcov: numerical failure: {exc}", file=sys.stderr)
        return 4
    except (ConfigError, ValueError) as exc:
        print(f"medcov: config error: {exc}", file=sys.stderr)
        return 2
    except (DataError, OSError) as exc:
        print(f"medcov: data error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:  # numpy's names the allocation; a bare one has no message
        detail = f": {exc}" if str(exc) else ""
        print(f"medcov: data error: out of memory{detail}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
