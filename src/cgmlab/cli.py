"""Experiment runner: verification suites and simulation dumps.

Every subcommand is deterministic given its config and seed.  Config
files are flat key=value text; command-line flags override file values.
Verification subcommands write one JSON line per statistical report plus
any CSV artifacts, print a per-criterion summary, and exit nonzero when a
criterion fails even after the backup seeds.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .rng import RngSpec, sample_exp_field
from .lpp import lpp_grid, backtrack_geodesic
from .busemann import competition_interface
from .multiclass import sample_mu_rho
from .queueing import BoundaryPolicy
from .verification import DEFAULT_MASTER_SEED, CriterionResult, seed_ladder

__all__ = ["main"]

_SUITES = {
    "verify-queueing": (1, 2, 3),
    "verify-multiline": (4,),
    "verify-coupled": (5, 7),
    "verify-busemann": (6, 13),
    "verify-geodesics": (8, 9),
    "verify-exact": (10, 11, 12),
}

try:
    from importlib.metadata import version as _dist_version
    _VERSION = _dist_version("cgmlab")
except Exception:
    _VERSION = "0.1.0"


def _read_config(path: str) -> dict:
    values = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value")
        key, _, val = line.partition("=")
        values[key.strip()] = val.strip()
    return values


def _out_path(args, name: str) -> Path:
    path = Path(args.out) / name
    if path.exists() and not args.force:
        raise FileExistsError(f"{path} exists; pass --force to overwrite")
    return path


def _write_csv(path: Path, header, rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(v) if isinstance(v, float) else str(v)
                              for v in row) + "\n")


def _write_reports(path: Path, results: list[CriterionResult]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for res in results:
            for rep in res.reports:
                fh.write(json.dumps(rep.to_json_dict()) + "\n")


def _overrides_for(args, index: int) -> dict:
    over = {}
    if getattr(args, "instances", None) is not None:
        over["instances"] = args.instances
    if getattr(args, "window", None) is not None and index in (2, 3):
        over["window"] = args.window
    return over


def _run_verify(args, indices) -> int:
    # a used output directory is refused before any criterion runs
    report_path = _out_path(args, "reports.jsonl")
    # each criterion's ladder's last attempt: its first pass, or its last seed
    results = [list(seed_ladder(i, args.seed, **_overrides_for(args, i)))[-1][0]
               for i in indices]
    _write_reports(report_path, results)
    failed = []
    for res in results:
        for name, (header, rows) in res.artifacts.items():
            _write_csv(_out_path(args, f"criterion{res.index}_{name}.csv"),
                       header, rows)
        status = "PASS" if res.passed else "FAIL"
        print(f"criterion {res.index}: {status} (seed {res.seed})")
        if not res.passed:
            failed.append(res.index)
            for rep in res.reports:
                if not rep.passed:
                    print(f"  {rep}")
    print(f"reports written to {report_path}")
    return 1 if failed else 0


def _cmd_simulate_lpp(args) -> int:
    n = args.n
    if n < 2:
        raise ValueError("need n >= 2")
    spec = RngSpec(args.seed, "simulate-lpp")
    field = sample_exp_field(n + 1, n + 1, 1.0, spec, origin=(-n, -n))
    table = lpp_grid(field)
    rows = [(-n + a, -n + b, float(table.values[a, b]))
            for a in range(n + 1) for b in range(n + 1)]
    _write_csv(_out_path(args, "gtable.csv"), ["k", "t", "value"], rows)
    path = backtrack_geodesic(table, (0, 0))
    _write_csv(_out_path(args, "geodesic.csv"), ["step_index", "x", "y"],
               [(i, p[0], p[1]) for i, p in enumerate(path.points())])
    pts = competition_interface(field)
    _write_csv(_out_path(args, "interface.csv"), ["step_index", "x", "y"],
               [(i, int(p[0]), int(p[1])) for i, p in enumerate(pts)])
    print(f"wrote gtable.csv, geodesic.csv, interface.csv to {args.out}")
    return 0


def _cmd_sample_mu(args) -> int:
    rates = tuple(float(r) for r in args.rates.split(","))
    spec = RngSpec(args.seed, "sample-mu")
    cfg = sample_mu_rho(rates, 0, args.length, spec,
                        BoundaryPolicy.burn_in(args.burn_in))
    rows = [(i, cfg.offset + j, float(cfg.values[i, j]))
            for i in range(cfg.n_lines) for j in range(cfg.length)]
    _write_csv(_out_path(args, "mu.csv"), ["line", "index", "value"], rows)
    _write_csv(_out_path(args, "mu_rates.csv"), ["line", "rate"],
               [(i, r) for i, r in enumerate(rates)])
    print(f"wrote mu.csv, mu_rates.csv to {args.out}")
    return 0


def _add_common(parser: argparse.ArgumentParser) -> None:
    # argparse converts a string default with type=int, so a bad CGMLAB_SEED
    # is a usage error, and an explicit --seed wins without reading it
    parser.add_argument("--seed", type=int,
                        default=os.environ.get("CGMLAB_SEED") or DEFAULT_MASTER_SEED,
                        help="master seed (env CGMLAB_SEED overrides the default)")
    parser.add_argument("--out", default="cgmlab-out", help="output directory")
    parser.add_argument("--force", action="store_true",
                        help="overwrite existing output files")
    parser.add_argument("--config", default=None,
                        help="key=value config file; flags win over it")


def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The parser and its subcommands' parsers by name."""
    parser = argparse.ArgumentParser(
        prog="cgmlab",
        description="corner growth laboratory: verification suites and dumps")
    parser.add_argument("--version", action="version",
                        version=f"cgmlab {_VERSION}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _SUITES:
        p = sub.add_parser(name, help=f"run acceptance criteria {_SUITES[name]}")
        _add_common(p)
        if name == "verify-queueing":
            p.add_argument("--instances", type=int, default=None,
                           help="random instances per identity check")
            p.add_argument("--window", type=int, default=None,
                           help="sequence window length per instance")
    p = sub.add_parser("simulate-lpp",
                       help="dump a passage-time table, geodesic, and interface")
    _add_common(p)
    p.add_argument("--n", type=int, default=100, help="lattice size")
    p = sub.add_parser("sample-mu", help="dump a coupled stationary sample")
    _add_common(p)
    p.add_argument("--rates", default="1.5,2,4", help="comma-separated line means")
    p.add_argument("--length", type=int, default=1000, help="window length")
    p.add_argument("--burn-in", type=float, default=0.2, dest="burn_in",
                   help="boundary burn-in fraction")
    return parser, sub.choices


def _bool(text: str) -> bool:
    if text not in ("true", "false"):
        raise ValueError(f"expected true or false, got {text!r}")
    return text == "true"


def _parse(argv: list[str]) -> argparse.Namespace:
    """Parse argv.  A --config file's values become the subcommand's
    defaults and argv is parsed again, so argparse converts each value with
    its flag's type and any flag on the command line, abbreviated or not,
    wins.  force, a flag without a type, is converted here."""
    parser, commands = _build_parser()
    args = parser.parse_args(argv)
    if not args.config:
        return args
    values = _read_config(args.config)
    unknown = set(values) - (set(vars(args)) - {"command", "config"})
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(sorted(unknown))}")
    if "force" in values:
        values["force"] = _bool(values["force"])
    commands[args.command].set_defaults(**values)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _parse(argv)
        if args.command in _SUITES:
            return _run_verify(args, _SUITES[args.command])
        if args.command == "simulate-lpp":
            return _cmd_simulate_lpp(args)
        if args.command == "sample-mu":
            return _cmd_sample_mu(args)
        raise ValueError(f"unknown command {args.command}")
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
