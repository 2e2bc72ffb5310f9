"""Experiment runner: verification suites and simulation dumps.

Every subcommand is deterministic given its config and seed.  Config
files are flat key=value text; command-line flags override file values.
Verification subcommands write one JSON line per statistical report plus
any CSV artifacts, print a per-criterion summary, and exit nonzero when a
criterion fails even after the backup seeds.  Before any work, a command
refuses an output path that is not a directory (or lies under a file),
and an output directory that holds a file it would write, unless
--force; it writes all of its files once the work is done, or none.
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
from .verification import DEFAULT_MASTER_SEED, seed_ladder

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


def _csv(header, rows) -> str:
    return "".join(",".join(repr(v) if isinstance(v, float) else str(v) for v in row) + "\n"
                   for row in [header, *rows])


def _write_outputs(args, used, work) -> int:
    """The one writer of output files.  Before work runs, an output path
    that is not a directory, or whose nearest existing ancestor is not
    one, is refused, and so, without --force, is an output directory
    that holds a file matching any glob in used; work returns (exit code,
    {name: text}, a line to print once the files are written), and every
    file is then written."""
    out = Path(args.out)
    existing = next((path for path in (out, *out.parents) if path.exists()), out)
    if not existing.is_dir():
        raise NotADirectoryError(f"{existing} is not a directory")
    held = sorted({path.name for glob in used for path in out.glob(glob)})
    if held and not args.force:
        raise FileExistsError(f"{out} holds {', '.join(held)}; pass --force to overwrite")
    code, files, done = work()
    out.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (out / name).write_text(text)
    print(done)
    return code


def _overrides_for(args, index: int) -> dict:
    over = {}
    if getattr(args, "instances", None) is not None:
        over["instances"] = args.instances
    if getattr(args, "window", None) is not None and index in (2, 3):
        over["window"] = args.window
    return over


def _run_verify(args, indices):
    # each criterion's ladder's last attempt: its first pass, or its last seed
    results = [list(seed_ladder(i, args.seed, **_overrides_for(args, i)))[-1][0]
               for i in indices]
    files = {"reports.jsonl": "".join(json.dumps(rep.to_json_dict()) + "\n"
                                      for res in results for rep in res.reports)}
    for res in results:
        files.update((f"criterion{res.index}_{name}.csv", _csv(*table))
                     for name, table in res.artifacts.items())
        print(f"criterion {res.index}: {'PASS' if res.passed else 'FAIL'} (seed {res.seed})")
        for rep in res.reports:
            if not rep.passed:
                print(f"  {rep}")
    return (int(not all(res.passed for res in results)), files,
            f"reports written to {Path(args.out) / 'reports.jsonl'}")


def _simulate_lpp(args):
    n = args.n
    if n < 2:
        raise ValueError("need n >= 2")
    spec = RngSpec(args.seed, "simulate-lpp")
    field = sample_exp_field(n + 1, n + 1, 1.0, spec, origin=(-n, -n))
    table = lpp_grid(field)
    rows = [(-n + a, -n + b, float(table.values[a, b]))
            for a in range(n + 1) for b in range(n + 1)]
    path = backtrack_geodesic(table, (0, 0))
    pts = competition_interface(field)
    return (_csv(["k", "t", "value"], rows),
            _csv(["step_index", "x", "y"], [(i, p[0], p[1]) for i, p in enumerate(path.points())]),
            _csv(["step_index", "x", "y"], [(i, int(p[0]), int(p[1])) for i, p in enumerate(pts)]))


def _sample_mu(args):
    rates = tuple(float(r) for r in args.rates.split(","))
    spec = RngSpec(args.seed, "sample-mu")
    cfg = sample_mu_rho(rates, 0, args.length, spec,
                        BoundaryPolicy.burn_in(args.burn_in))
    rows = [(i, cfg.offset + j, float(cfg.values[i, j]))
            for i in range(cfg.n_lines) for j in range(cfg.length)]
    return (_csv(["line", "index", "value"], rows),
            _csv(["line", "rate"], [(i, r) for i, r in enumerate(rates)]))


# Each dump's file names, and the function that returns their texts in order.
_DUMPS = {
    "simulate-lpp": (("gtable.csv", "geodesic.csv", "interface.csv"), _simulate_lpp),
    "sample-mu": (("mu.csv", "mu_rates.csv"), _sample_mu),
}


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
            indices = _SUITES[args.command]
            used = ("reports.jsonl", *(f"criterion{i}_*.csv" for i in indices))
            return _write_outputs(args, used, lambda: _run_verify(args, indices))
        names, dump = _DUMPS[args.command]
        return _write_outputs(args, names, lambda: (
            0, dict(zip(names, dump(args))), f"wrote {', '.join(names)} to {args.out}"))
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
