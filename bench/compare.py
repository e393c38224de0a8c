"""Compare the benchmark results of two commits: parent versus change.

    python3 bench/compare.py PARENT_DIR CHANGE_DIR
    python3 bench/compare.py --run PARENT_CHECKOUT CHANGE_CHECKOUT
                             [--workload NAME] [--results DIR]

The first form reads result files written by ``bench/run.py --out``,
paired by sorted file name: :data:`PAIRS` runs of each workload per
side.  The second runs the benchmark in both checkouts first,
:data:`PAIRS` alternating pairs, pair ``i`` on seed ``i`` with the side
that runs first alternating, then compares.

Per workload and end-to-end metric it reports each side's median and
quartiles, how many pairs the change won, and the median over pairs of
the change-to-parent ratio.  The two runs of a pair share a seed and
ran back to back, so the ratio cancels most of the host's drift.  It
decides:

* ``REGRESSION``: the median pair ratio is worse than 1 by more than
  the metric's bound in ``BENCHMARK.json``;
* ``gain``: the change won at least 9 of 10 pairs (ties count for
  neither) and the medians differ by more than the interquartile range
  of either side's own runs;
* ``unresolved``: the pair ratios spread (interquartile range over
  median) more than the bound, unless every change run reads better
  than every parent run;
* ``within bound`` otherwise.

Any rise in the error rate (failed over attempted answers) rejects the
change; so does a workload that gives no numbers on one side.  The exit
status is 1 when the change is rejected.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Pairs of runs per comparison.
PAIRS = 10
#: Share of the pairs the change must win to claim a gain.
WIN_SHARE = 0.9


def _better(value: float, than: float, better: str) -> bool:
    return value < than if better == "lower" else value > than


def _spread(values: list[float]) -> tuple[float, float, float, float]:
    """Median, first and third quartile, and the IQR over the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / abs(median)


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """The comparison of one metric on one workload (paired samples)."""
    if len(parent) != len(change) or len(parent) < 2:
        raise ValueError("need at least two pairs of samples")
    p_med, p_q1, p_q3, _ = _spread(parent)
    c_med, c_q1, c_q3, _ = _spread(change)
    ratio, _, _, ratio_spread = _spread([c / p for p, c in zip(parent, change)])
    worse_by = ratio - 1.0 if better == "lower" else 1.0 - ratio
    wins = sum(_better(c, p, better) for p, c in zip(parent, change))
    all_better = all(_better(c, p, better) for c in change for p in parent)
    if worse_by > bound:
        decision = "REGRESSION"
    elif (
        wins >= WIN_SHARE * len(parent)
        and _better(c_med, p_med, better)
        and abs(c_med - p_med) > max(p_q3 - p_q1, c_q3 - c_q1)
    ):
        decision = "gain"
    elif ratio_spread > bound and not all_better:
        decision = "unresolved"
    else:
        decision = "within bound"
    return {
        "parent": (p_med, p_q1, p_q3),
        "change": (c_med, c_q1, c_q3),
        "ratio": ratio,
        "wins": wins,
        "pairs": len(parent),
        "decision": decision,
    }


def error_rate(results: list[dict]) -> float:
    attempted = sum(result["attempted"] for result in results)
    failed = sum(result["failed"] for result in results)
    return failed / attempted if attempted else 0.0


def load_side(directory: Path) -> list[dict]:
    """Result files of one side, in pairing (sorted file name) order."""
    return [
        json.loads(path.read_text(encoding="utf-8"))
        for path in sorted(directory.glob("*.json"))
    ]


def _by_workload(runs: list[dict]) -> dict[str, list[dict]]:
    table: dict[str, list[dict]] = {}
    for run in runs:
        for result in run["results"]:
            if "skipped" not in result:
                table.setdefault(result["workload"], []).append(result)
    return table


def compare(parent_runs: list[dict], change_runs: list[dict], spec: dict) -> bool:
    """Print the comparison table; True when the change is acceptable."""
    lengths = {
        result.get("seconds")
        for run in parent_runs + change_runs
        for result in run["results"]
    }
    if len(lengths) > 1:
        raise SystemExit(f"compare: the runs measured for different lengths {lengths}")
    parent, change = _by_workload(parent_runs), _by_workload(change_runs)
    acceptable = True
    print(
        f"{'workload':<17} {'metric':<15} {'parent median [q1, q3]':>30} "
        f"{'change median [q1, q3]':>30} {'ratio':>7} {'wins':>6}  decision"
    )
    for workload in sorted(set(parent) | set(change)):
        p_results, c_results = parent.get(workload, []), change.get(workload, [])
        if len(p_results) != PAIRS or len(c_results) != PAIRS:
            print(
                f"{workload:<17} REJECT: {len(p_results)} parent and "
                f"{len(c_results)} change runs, not {PAIRS} each"
            )
            acceptable = False
            continue
        p_errors, c_errors = error_rate(p_results), error_rate(c_results)
        rose = c_errors > p_errors
        acceptable &= not rose
        print(
            f"{workload:<17} {'error_rate':<15} {p_errors:>30.4g} "
            f"{c_errors:>30.4g} {'':>14}  "
            f"{'REJECT: error rate rose' if rose else 'no change'}"
        )
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p_values = [result["metrics"][name] for result in p_results]
            c_values = [result["metrics"][name] for result in c_results]
            if None in p_values or None in c_values:
                print(f"{workload:<17} {name:<15} REJECT: a run gave no number")
                acceptable = False
                continue
            row = verdict(p_values, c_values, metric["better"], metric["bound"])
            acceptable &= row["decision"] != "REGRESSION"
            p_med, p_q1, p_q3 = row["parent"]
            c_med, c_q1, c_q3 = row["change"]
            print(
                f"{workload:<17} {name:<15} "
                f"{f'{p_med:.4g} [{p_q1:.4g}, {p_q3:.4g}]':>30} "
                f"{f'{c_med:.4g} [{c_q1:.4g}, {c_q3:.4g}]':>30} "
                f"{row['ratio']:>7.3f} {row['wins']:>3}/{row['pairs']:<2}  "
                f"{row['decision']}"
            )
    return acceptable


def _fingerprint(checkout: Path) -> str:
    """Hash of the benchmark's own files, to prove both sides match."""
    digest = hashlib.sha256()
    files = [checkout / "BENCHMARK.json"] + sorted(
        path
        for path in (checkout / "bench").rglob("*")
        if path.is_file() and "__pycache__" not in path.parts
    )
    for path in files:
        digest.update(path.relative_to(checkout).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def run_pairs(parent: Path, change: Path, workload, results: Path) -> None:
    if _fingerprint(parent) != _fingerprint(change):
        raise SystemExit(
            "compare: the checkouts' benchmarks differ; a change that "
            "claims a gain may not edit the benchmark"
        )
    for index in range(PAIRS):
        sides = [("parent", parent), ("change", change)]
        if index % 2:
            sides.reverse()
        for side, checkout in sides:
            out = results / side / f"pair-{index:02d}.json"
            out.parent.mkdir(parents=True, exist_ok=True)
            command = [
                sys.executable, "bench/run.py",
                "--seed", str(index), "--out", str(out.resolve()),
            ]
            if workload:
                command += ["--workload", workload]
            print(f"compare: pair {index} {side}", file=sys.stderr)
            subprocess.run(command, cwd=checkout, check=False,
                           stdout=subprocess.DEVNULL)
            if not out.is_file():
                raise SystemExit(f"compare: pair {index} {side} left no result")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument(
        "--run", action="store_true",
        help="the arguments are checkouts: run the pairs first",
    )
    parser.add_argument("--workload")
    parser.add_argument(
        "--results", type=Path, default=ROOT / "bench_out" / "compare"
    )
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parent_dir, change_dir = args.parent, args.change
    if args.run:
        run_pairs(args.parent, args.change, args.workload, args.results)
        parent_dir, change_dir = args.results / "parent", args.results / "change"
    ok = compare(load_side(parent_dir), load_side(change_dir), spec)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
