"""Compare two sets of benchmark results, per workload and per metric.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the result files ``run.py`` writes (``--out DIR``
puts them in ``DIR/results``; either directory may be given). For every
metric of every workload found on both sides it prints each side's median
and quartiles, the fraction of runs paired by seed (or by order when the
seeds differ) that the new side wins, and a verdict:

* ``better`` / ``worse``: every new run beats (loses to) every base run; or
  the new side wins (loses) at least 9 in 10 pairs and the medians differ
  by more than the base quartile distance; or, for a metric with a bound,
  the new median is worse than the base one by more than the bound.
* ``unresolved``: a side's quartile spread, as a share of its median,
  exceeds the metric's bound.
* ``same``: none of the above.

Work counts are compared exactly: a count that differs between runs of one
side (at one seed, or at all for counts that do not depend on the seed) is
flagged ``DIFFERS``, and one that differs between the sides ``changed``.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from pathlib import Path

from stats import quartiles, spread

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE / "metrics.json").read_text(encoding="utf-8"))
BENCH_PATH = HERE.parent / "BENCHMARK.json"
BENCH = json.loads(BENCH_PATH.read_text(encoding="utf-8")) if BENCH_PATH.exists() else {}
WIN_SHARE = 0.9


def load_runs(directory: Path) -> dict[tuple[str, int], list[dict]]:
    """Result files by (workload, trace flag)."""
    if (directory / "results").is_dir():
        directory = directory / "results"
    runs: dict[tuple[str, int], list[dict]] = defaultdict(list)
    for path in sorted(directory.glob("*.json")):
        res = json.loads(path.read_text(encoding="utf-8"))
        runs[(res["workload"], res["trace"])].append(res)
    return runs


def metric_values(res: dict) -> dict[str, float]:
    values = {k: v["value"] for k, v in res["result"]["metrics"].items()}
    if not res["trace"]:
        values.update({k: v["value"] for k, v in res["workload_metrics"].items()})
    return values


def metric_info(workload: str) -> dict[str, dict]:
    """Unit, direction and bound of every metric name that can appear."""
    info = {e["name"]: {**e, "bound": e.get("bound")} for e in BENCH.get("end_to_end", [])}
    info.update({e["name"]: {**e, "bound": None} for e in BENCH.get("per_layer", [])})
    info.update(SPEC["workloads"].get(workload, {}))
    return info


def pairs(base: list[dict], new: list[dict]) -> list[tuple[dict, dict]]:
    by_seed = {r["seed"]: r for r in base}
    if all(r["seed"] in by_seed for r in new):
        return [(by_seed[r["seed"]], r) for r in new]
    return list(zip(base, new))


def verdict(b: list[float], n: list[float], won: float, lost: float, info: dict) -> str:
    higher = info.get("better") == "higher"

    def better(x: float, y: float) -> bool:
        return x > y if higher else x < y

    if all(better(x, y) for x in n for y in b):
        return "better"
    if all(better(y, x) for x in n for y in b):
        return "worse"
    bq1, bmed, bq3 = quartiles(b)
    nmed = quartiles(n)[1]
    bound = info.get("bound")
    if bound is not None and max(spread(b), spread(n)) > bound:
        return "unresolved"
    if abs(nmed - bmed) > bq3 - bq1:
        if won >= WIN_SHARE:
            return "better"
        if lost >= WIN_SHARE:
            return "worse"
    if bound is not None and (bmed - nmed if higher else nmed - bmed) > bound * abs(bmed):
        return "worse"
    return "same"


def compare_metrics(workload: str, base: list[dict], new: list[dict]) -> None:
    info = metric_info(workload)
    matched = pairs(base, new)
    names = [k for k in metric_values(base[0]) if all(k in metric_values(r) for r in base + new)]
    print(f"  {'metric':<42} {'unit':<6} {'base q1/median/q3':<32} {'new q1/median/q3':<32} won  verdict")
    for name in names:
        b = [metric_values(r)[name] for r in base]
        n = [metric_values(r)[name] for r in new]
        higher = info.get(name, {}).get("better") == "higher"
        wins = losses = 0
        for rb, rn in matched:
            x, y = metric_values(rn)[name], metric_values(rb)[name]
            if x != y:
                if (x > y) == higher:
                    wins += 1
                else:
                    losses += 1
        total = max(len(matched), 1)
        v = verdict(b, n, wins / total, losses / total, info.get(name, {}))
        fmt = lambda q: "/".join(f"{x:.4g}" for x in q)  # noqa: E731
        print(f"  {name:<42} {info.get(name, {}).get('unit', ''):<6} {fmt(quartiles(b)):<32} "
              f"{fmt(quartiles(n)):<32} {wins}/{len(matched):<3} {v}")


def compare_counts(base: list[dict], new: list[dict]) -> None:
    seeded = set(SPEC["seed_dependent_counts"])
    names = sorted({k for r in base + new for k in r["counts"]})
    for name in names:
        notes = []
        sides = {}
        for label, runs in (("base", base), ("new", new)):
            per_seed: dict[int, set] = defaultdict(set)
            for r in runs:
                if name in r["counts"]:
                    per_seed[r["seed"]].add(r["counts"][name])
            everything = set().union(*per_seed.values()) if per_seed else set()
            if any(len(v) > 1 for v in per_seed.values()) or (name not in seeded and len(everything) > 1):
                notes.append(f"DIFFERS within {label}")
            sides[label] = per_seed
        common = set(sides["base"]) & set(sides["new"])
        if any(sides["base"][s] != sides["new"][s] for s in common):
            notes.append("changed")
        shown = {label: sorted(set().union(*s.values())) if s else [] for label, s in sides.items()}
        print(f"  {name:<46} base {shown['base']}  new {shown['new']}  {' '.join(notes) or 'identical'}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    base_runs, new_runs = load_runs(args.base), load_runs(args.new)
    common = sorted(set(base_runs) & set(new_runs))
    if not common:
        print("no workload has results on both sides", file=sys.stderr)
        return 1
    for workload, trace in common:
        base, new = base_runs[(workload, trace)], new_runs[(workload, trace)]
        print(f"\n{workload}  trace {trace}  runs base {len(base)}  new {len(new)}")
        compare_metrics(workload, base, new)
        print("  work counts")
        compare_counts(base, new)
    return 0


if __name__ == "__main__":
    sys.exit(main())
