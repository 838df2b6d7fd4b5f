"""Command-line entry point: single runs, comparison suites, trace tooling.

Config files are flat ``key = value`` lines with ``#`` comments; dotted keys
(``per.alpha``) map onto the underscored RunConfig fields (``per_alpha``).
``--set key=value`` overrides the file.

Exit codes: 0 success, 1 partial compare failure, 2 config error,
3 numeric fault, 4 failed gradient check.
"""

from __future__ import annotations

import argparse
import sys
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
    """Parse ``key = value`` lines; '#' starts a comment, blanks are skipped.

    A key may be set once (``per.alpha`` and ``per_alpha`` are one key).
    """
    mapping: dict[str, str] = {}
    first_line: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        name = key.replace(".", "_")
        if name in first_line:
            raise ConfigError(f"{source}:{lineno}: {key!r} is set again (first on line {first_line[name]})")
        first_line[name] = lineno
        mapping[key] = value
    return mapping


def load_config_file(path: str) -> dict[str, str]:
    p = Path(path)
    if p.exists() and not p.is_file():
        raise ConfigError(f"config path is not a file: {path}")
    if not p.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        text = p.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return parse_config_text(text, source=path)


def make_out_dir(path, files=()) -> Path:
    """Create the output directory ``path`` (and its parents) if missing.

    Commands call it before any run, so that it fails before any step when
    one of the ``files`` they write there is an existing directory.
    """
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {path}: {exc.strerror}") from exc
    for name in files:
        if (out / name).is_dir():
            raise ConfigError(f"output path {out / name} is a directory")
    return out


def build_run_config(mapping: dict[str, str], overrides: dict[str, str]) -> harness.RunConfig:
    """Type-checked RunConfig from file contents plus --set overrides."""
    types = harness.field_types(harness.RunConfig)
    merged = dict(mapping)
    merged.update(overrides)
    values: dict[str, object] = {}
    for key, value in merged.items():
        name = key.replace(".", "_")
        if name not in types:
            raise ConfigError(f"unknown config key {key!r}")
        values[name] = harness.parse_field(name, value, types[name])
    return harness.RunConfig(**values)


def parse_set_flags(pairs: list[str]) -> dict[str, str]:
    """``--set key=value`` pairs as a mapping; a key may be set once, as in a config file."""
    overrides: dict[str, str] = {}
    first: dict[str, str] = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"--set expects key=value, got {pair!r}")
        key, value = (part.strip() for part in pair.split("=", 1))
        name = key.replace(".", "_")
        if name in first:
            raise ConfigError(f"--set {key!r} is set again (first as {first[name]!r})")
        first[name] = pair
        overrides[key] = value
    return overrides


def write_effective_config(config: harness.RunConfig, path: Path) -> None:
    lines = [f"{key} = {value}" for key, value in config.to_items()]
    path.write_text("\n".join(lines) + "\n")


# ----------------------------------------------------------------- commands

def cmd_run(args) -> int:
    mapping = load_config_file(args.config) if args.config else {}
    config = build_run_config(mapping, parse_set_flags(args.set or []))
    files = ("config.txt", "episodes.csv", "trace.csv", "summary.csv", "evals.csv")
    out_dir = make_out_dir(args.out or config.out_dir, files)

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
    for key in mapping:
        if key.replace(".", "_") in ("seed", "sampler", "config_id"):
            raise ConfigError(f"compare sets {key!r} per run; list the grid in 'samplers' and 'seeds'")
    samplers = [s.strip() for s in mapping.pop("samplers", "uniform,ero").split(",") if s.strip()]
    seeds = [
        harness.parse_field("seeds", s, int) for s in mapping.pop("seeds", "0").split(",") if s.strip()
    ]
    for key, values in (("samplers", samplers), ("seeds", seeds)):
        if not values:
            raise ConfigError(f"{key} is empty: compare needs at least one")
        # a repeated entry would run one config twice into the same episodes CSV
        repeated = next((v for i, v in enumerate(values) if v in values[:i]), None)
        if repeated is not None:
            raise ConfigError(f"{key} lists {repeated!r} more than once")

    configs = []
    for sampler in samplers:
        for seed in seeds:
            per_run = dict(mapping)
            per_run["sampler"] = sampler
            per_run["seed"] = str(seed)
            configs.append(build_run_config(per_run, {}))

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

    episode_files = [f"episodes-{c.resolved_id()}-seed{c.seed}.csv" for c in configs]
    out_dir = make_out_dir(args.out or configs[0].out_dir, ["summary.csv", *episode_files])

    results = harness.run_suite(configs)
    failures = [r for r in results if r.error is not None]
    for res, name in zip(results, episode_files):  # results come back in config order
        if res.error is not None:
            print(f"FAILED {res.config.resolved_id()} seed={res.config.seed}: {res.error}", file=sys.stderr)
        else:
            harness.write_episode_csv(res.summary.episodes, out_dir / name)

    rows = sorted(harness.summarize(results), key=lambda r: -r.final_mean)
    harness.write_summary_csv(rows, out_dir / "summary.csv")
    print(f"{'config':<28}{'seeds':>6}{'final_mean':>14}{'final_std':>12}")
    for row in rows:
        print(f"{row.config_id:<28}{row.seed_count:>6}{row.final_mean:>14.4f}{row.final_std:>12.4f}")
    return EXIT_PARTIAL if failures else EXIT_OK


def cmd_trace(args) -> int:
    path = Path(args.input)
    if path.exists() and not path.is_file():
        raise ConfigError(f"trace path is not a file: {args.input}")
    if not path.is_file():
        raise ConfigError(f"trace file not found: {args.input}")
    records = harness.read_csv(harness.TraceRecord, path)

    window = args.window
    if window < 1:
        raise ConfigError(f"--window must be >= 1, got {window}")
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

    out_path = make_out_dir(args.out) / "trace_smoothed.csv" if args.out else None
    harness.write_trace_csv(smoothed, out_path or sys.stdout)

    for name in ("mean_abs_td", "mean_step_diff", "mean_reward"):
        series = [getattr(r, name) for r in smoothed]
        if series:
            print(f"{name} min={min(series):.6g} max={max(series):.6g} final={series[-1]:.6g}")
        else:
            print(f"{name} min=nan max=nan final=nan")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    results = gradchecks.run_all()
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
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="run a sampler x seed grid and summarize")
    common(p_cmp)
    p_cmp.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="ignored; runs execute one at a time (kept so existing command lines parse)")
    p_cmp.set_defaults(func=cmd_compare)

    p_tr = sub.add_parser("trace", help="window-average a trace CSV and print stats")
    p_tr.add_argument("input", help="trace CSV produced by a run")
    p_tr.add_argument("--window", type=int, default=1, help="moving-average width")
    p_tr.add_argument("--out", help="directory for the smoothed CSV")
    p_tr.set_defaults(func=cmd_trace)

    p_gc = sub.add_parser("gradcheck", help="run all gradient verification checks")
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
