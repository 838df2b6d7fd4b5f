"""Command-line entry point: single runs, comparison suites, trace tooling.

Config files are flat ``key = value`` lines with ``#`` comments; dotted keys
(``per.alpha``) map onto the underscored RunConfig fields (``per_alpha``).
``--set key=value`` overrides the file, and the ``REPLAY_OPT_SEED`` env var
is the lowest-precedence seed default.

Exit codes: 0 success, 1 partial compare failure, 2 config error,
3 numeric fault, 4 failed gradient check.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import typing
from pathlib import Path

from . import gradchecks, harness
from .errors import ConfigError, NumericFault, ReplayOptError

EXIT_OK = 0
EXIT_PARTIAL = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_GRADCHECK = 4


# -------------------------------------------------------------- config files

def parse_config_text(text: str, source: str = "<config>") -> dict[str, str]:
    """Parse ``key = value`` lines; '#' starts a comment, blanks are skipped."""
    mapping: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        mapping[key.strip()] = value.strip()
    return mapping


def load_config_file(path: str) -> dict[str, str]:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {path}")
    return parse_config_text(p.read_text(), source=path)


def _field_types() -> dict[str, type]:
    hints = typing.get_type_hints(harness.RunConfig)
    return {f.name: hints[f.name] for f in dataclasses.fields(harness.RunConfig)}


def _convert(key: str, value: str, typ) -> object:
    try:
        if typ is bool:
            lowered = value.lower()
            if lowered in ("true", "1", "yes", "on"):
                return True
            if lowered in ("false", "0", "no", "off"):
                return False
            raise ValueError(value)
        if typ is int:
            return int(value)
        if typ is float:
            return float(value)
        if typ is tuple:
            return tuple(int(part) for part in value.split(",") if part.strip())
        return value
    except ValueError as exc:
        raise ConfigError(f"cannot parse {key} = {value!r} as {typ.__name__}") from exc


def build_run_config(mapping: dict[str, str], overrides: dict[str, str]) -> harness.RunConfig:
    """Type-checked RunConfig from file contents plus --set overrides."""
    types = _field_types()
    merged = dict(mapping)
    merged.update(overrides)
    values: dict[str, object] = {}
    for key, value in merged.items():
        name = key.replace(".", "_")
        if name not in types:
            raise ConfigError(f"unknown config key {key!r}")
        values[name] = _convert(name, value, types[name])
    if "seed" not in values and os.environ.get("REPLAY_OPT_SEED"):
        values["seed"] = _convert("seed", os.environ["REPLAY_OPT_SEED"], int)
    return harness.RunConfig(**values)


def parse_set_flags(pairs: list[str]) -> dict[str, str]:
    overrides = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"--set expects key=value, got {pair!r}")
        key, value = pair.split("=", 1)
        overrides[key.strip()] = value.strip()
    return overrides


def write_effective_config(config: harness.RunConfig, path: Path) -> None:
    lines = [f"{key} = {value}" for key, value in config.to_items()]
    path.write_text("\n".join(lines) + "\n")


# ----------------------------------------------------------------- commands

def cmd_run(args) -> int:
    mapping = load_config_file(args.config) if args.config else {}
    overrides = parse_set_flags(args.set or [])
    if args.eval_every is not None:
        overrides["eval_every"] = str(args.eval_every)
    config = build_run_config(mapping, overrides)
    out_dir = Path(args.out or config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    summary = harness.run(config)

    write_effective_config(config, out_dir / "config.txt")
    harness.write_episode_csv(summary.episodes, out_dir / "episodes.csv")
    harness.write_trace_csv(summary.traces, out_dir / "trace.csv")
    row = harness.summarize([harness.SuiteResult(config=config, summary=summary)])
    harness.write_summary_csv(row, out_dir / "summary.csv")
    if summary.evals:
        harness.write_eval_csv(summary.evals, out_dir / "evals.csv")

    final = summary.final_window_mean
    print(
        f"sampler={config.sampler} env={config.env} steps={summary.total_steps} "
        f"final={final:.6g}"
    )
    return EXIT_OK


def cmd_compare(args) -> int:
    mapping = load_config_file(args.config) if args.config else {}
    overrides = parse_set_flags(args.set or [])
    mapping.update(overrides)
    samplers = [s.strip() for s in mapping.pop("samplers", "uniform,ero").split(",") if s.strip()]
    seeds = [int(s) for s in mapping.pop("seeds", "0").split(",") if s.strip()]

    configs = []
    for sampler in samplers:
        for seed in seeds:
            per_run = dict(mapping)
            per_run["sampler"] = sampler
            per_run["seed"] = str(seed)
            config = build_run_config(per_run, {})
            config.config_id = f"{sampler}-{config.env}"
            configs.append(config)

    # An invalid setting shared by the whole grid fails every config: that is
    # a config error, reported before any run starts. An invalid grid entry
    # among valid ones (an unknown sampler name) fails alone in run_suite.
    errors = []
    for config in configs:
        try:
            config.validate()
        except ConfigError as exc:
            errors.append(exc)
    if len(errors) == len(configs):
        raise errors[0]

    out_dir = Path(args.out or configs[0].out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    results = harness.run_suite(configs, jobs=max(1, args.jobs))
    failures = [r for r in results if r.error is not None]
    for res in results:
        if res.error is not None:
            print(
                f"FAILED {res.config.resolved_id()} seed={res.config.seed}: {res.error}",
                file=sys.stderr,
            )
        else:
            harness.write_episode_csv(
                res.summary.episodes,
                out_dir / f"episodes-{res.config.resolved_id()}-seed{res.config.seed}.csv",
            )

    rows = sorted(harness.summarize(results), key=lambda r: -r.final_mean)
    harness.write_summary_csv(rows, out_dir / "summary.csv")
    print(f"{'config':<28}{'seeds':>6}{'final_mean':>14}{'final_std':>12}")
    for row in rows:
        print(f"{row.config_id:<28}{row.seed_count:>6}{row.final_mean:>14.4f}{row.final_std:>12.4f}")
    return EXIT_PARTIAL if failures else EXIT_OK


def cmd_trace(args) -> int:
    path = Path(args.input)
    if not path.is_file():
        raise ConfigError(f"trace file not found: {args.input}")
    try:
        records = harness.read_trace_csv(path)
    except (ValueError, KeyError) as exc:
        # locate the offending line for the error message
        lines = path.read_text().splitlines()
        bad = 0
        for lineno, line in enumerate(lines[1:], start=2):
            parts = line.split(",")
            try:
                int(parts[0]), [float(p) for p in parts[1:]]
            except (ValueError, IndexError):
                bad = lineno
                break
        raise ConfigError(f"malformed trace CSV at {args.input}:{bad or '?'}: {exc}") from exc

    window = max(1, args.window)
    smoothed = []
    for i, rec in enumerate(records):
        lo = max(0, i - window + 1)
        chunk = records[lo : i + 1]
        smoothed.append(
            harness.TraceRecord(
                global_step=rec.global_step,
                mean_abs_td=sum(r.mean_abs_td for r in chunk) / len(chunk),
                mean_step_diff=sum(r.mean_step_diff for r in chunk) / len(chunk),
                mean_reward=sum(r.mean_reward for r in chunk) / len(chunk),
            )
        )

    out_path = Path(args.out) / "trace_smoothed.csv" if args.out else None
    if out_path is not None:
        out_path.parent.mkdir(parents=True, exist_ok=True)
        harness.write_trace_csv(smoothed, out_path)
    else:
        print(",".join(harness.TRACE_HEADER))
        for r in smoothed:
            print(f"{r.global_step},{r.mean_abs_td!r},{r.mean_step_diff!r},{r.mean_reward!r}")

    for name in ("mean_abs_td", "mean_step_diff", "mean_reward"):
        series = [getattr(r, name) for r in smoothed]
        if series:
            print(f"{name} min={min(series):.6g} max={max(series):.6g} final={series[-1]:.6g}")
        else:
            print(f"{name} min=nan max=nan final=nan")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    results = gradchecks.run_all(corrupt=args.corrupt)
    failed = []
    for name, err in results:
        status = "ok" if err < gradchecks.THRESHOLD else "FAIL"
        print(f"{name:<16} max_rel_err={err:.3e}  {status}")
        if err >= gradchecks.THRESHOLD:
            failed.append(name)
    if failed:
        print(f"failed checks: {', '.join(failed)}", file=sys.stderr)
        return EXIT_GRADCHECK
    return EXIT_OK


# -------------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="replay-opt",
        description="Train and compare replay strategies for an off-policy agent.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="path to a key = value config file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE", help="override a config key")
        p.add_argument("--out", help="output directory for CSV metrics")

    p_run = sub.add_parser("run", help="execute a single training run")
    common(p_run)
    p_run.add_argument("--eval-every", type=int, default=None, metavar="N",
                       help="run a noise-free eval episode every N training episodes")
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="run a sampler x seed grid and summarize")
    common(p_cmp)
    p_cmp.add_argument("--jobs", type=int, default=1, help="parallel runs")
    p_cmp.set_defaults(func=cmd_compare)

    p_tr = sub.add_parser("trace", help="window-average a trace CSV and print stats")
    p_tr.add_argument("input", help="trace CSV produced by a run")
    p_tr.add_argument("--window", type=int, default=1, help="moving-average width")
    p_tr.add_argument("--out", help="directory for the smoothed CSV")
    p_tr.set_defaults(func=cmd_trace)

    p_gc = sub.add_parser("gradcheck", help="run all gradient verification checks")
    p_gc.add_argument("--corrupt", help=argparse.SUPPRESS)  # negative-control test hook
    p_gc.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericFault as exc:
        print(f"numeric fault: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ReplayOptError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
