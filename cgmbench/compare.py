"""Compare two sets of benchmark runs, metric by metric.

    python3 cgmbench/compare.py OLD.jsonl NEW.jsonl

Each file holds run records as cgmbench/run.py appends them to
cgmbench/results/runs.jsonl (copy that file aside between commits).  For
every workload and metric the script prints both sides' median and
quartiles over their runs, the change of the medians, and, for an
end-to-end metric, whether the change is worse than the bound that
BENCHMARK.json fixes.  A metric whose quartile spread, on either side, is
wider than its bound reads "unresolved": its noise hides any change the
bound could flag.  The script exits 1 when some metric is worse than its
bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _load(path) -> dict:
    """(workload, metric) -> values, one per run, from correct runs only."""
    out: dict = {}
    with open(path) as fh:
        for line in fh:
            rec = json.loads(line)
            if not rec["correct"]:
                continue
            for name, m in rec["metrics"].items():
                out.setdefault((rec["workload"], name), []).append(m["value"])
    return out


def _quartiles(values) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("old")
    p.add_argument("new")
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    better = {**{m["name"]: m["better"] for m in spec["per_layer"]},
              **{m: e2e[m]["better"] for m in e2e}}
    old, new = _load(args.old), _load(args.new)
    worse = 0
    print(f"{'workload':16} {'metric':52} {'old q1/med/q3':>30} {'new q1/med/q3':>30} "
          f"{'change':>8}  verdict")
    for key in sorted(set(old) & set(new)):
        workload, metric = key
        o1, om, o3 = _quartiles(old[key])
        n1, nm, n3 = _quartiles(new[key])
        change = nm / om - 1.0 if om else float("inf")
        verdict = ""
        if metric in e2e:
            bound = e2e[metric]["bound"]
            spread = max((o3 - o1) / om if om else 0.0, (n3 - n1) / nm if nm else 0.0)
            loss = change if better[metric] == "lower" else -change
            if spread > bound:
                # The runs' own noise is wider than the bound, so no change
                # of the medians can be told apart from it.
                verdict = f"unresolved: spread {spread:.3f} > bound {bound:g}"
            elif loss > bound:
                worse += 1
                verdict = f"WORSE than bound {bound:g}"
            else:
                verdict = f"within bound {bound:g}"
        print(f"{workload:16} {metric:52} {o1:9.4g}/{om:9.4g}/{o3:9.4g} "
              f"{n1:9.4g}/{nm:9.4g}/{n3:9.4g} {change:+8.1%}  {verdict}")
    for key in sorted(set(old) ^ set(new)):
        print(f"{key[0]:16} {key[1]:52} only in {'old' if key in old else 'new'}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
