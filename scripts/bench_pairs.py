"""Compare two source checkouts on one perfbench workload, in alternating pairs.

    python3 scripts/bench_pairs.py PARENT CHANGE --workload analysis --pairs 5 --seconds 8

Each pair runs `python3 perfbench/run.py --workload W --seed N --seconds S
--trace 0` once in each checkout, with that checkout as the working
directory, so each side runs its own harness on its own source. The runs
go one at a time; odd pairs run PARENT first and even pairs CHANGE first,
so a drift in machine speed lands on both sides alike. Every pair is
printed as it finishes, then, per metric, the median of each side, the
relative change of the medians, the parent's interquartile distance and
the number of pairs in which CHANGE was better, followed by two verdicts:

- claim: CHANGE was better in at least 9 of 10 pairs (a tie counts for
  neither side) and its median is better than the parent's by more than
  the parent's interquartile distance;
- bound: CHANGE's median is worse than the parent's by no more than the
  metric's relative bound.

The metrics, their direction ("better": lower or higher) and their bounds
are read from PARENT's BENCHMARK.json ("end_to_end"), which is only read.
With --json the summary, and each pair's [parent, change] value of every
metric, is also written to a file. The script only invokes perfbench and
changes nothing under either checkout's perfbench/.

Exits 1 if any run fails or reports correct: false.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

# a claimed gain needs CHANGE better in at least this share of the pairs
CLAIM_SHARE = 0.9


def end_to_end_metrics(checkout: Path) -> list[dict]:
    """The end-to-end metrics of the checkout's BENCHMARK.json: name, unit, better, bound."""
    return json.loads((checkout / "BENCHMARK.json").read_text())["end_to_end"]


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced perfbench run in `checkout`: its last stdout line, parsed."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"perfbench in {checkout} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> list[float]:
    return [float(q) for q in np.percentile(values, (25, 50, 75))]


def summarize(pairs: list[tuple[dict, dict]], metrics: list[dict]) -> dict:
    """Per metric: each side's quartiles, the relative change of the medians, the wins and the verdicts."""
    out = {}
    for metric in metrics:
        name, sign = metric["name"], (1.0 if metric["better"] == "lower" else -1.0)
        parent = [p["metrics"][name]["value"] for p, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        pq, cq = quartiles(parent), quartiles(change)
        iqr = pq[2] - pq[0]
        better_pairs = sum(sign * (p - c) > 0.0 for p, c in zip(parent, change))
        gain = sign * (pq[1] - cq[1])  # how much better CHANGE's median is, in the metric's unit
        out[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "bound": metric["bound"],
            "parent_q1_median_q3": [round(v, 6) for v in pq],
            "change_q1_median_q3": [round(v, 6) for v in cq],
            "parent_iqr": round(iqr, 6),
            "relative_change": round(cq[1] / pq[1] - 1.0, 4) if pq[1] else None,
            "change_better_pairs": better_pairs,
            "claim_holds": better_pairs >= CLAIM_SHARE * len(pairs) and gain > iqr,
            "within_bound": -gain <= metric["bound"] * abs(pq[1]),
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", type=Path, help="checkout to compare against")
    parser.add_argument("change", type=Path, help="checkout with the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--json", type=Path, help="also write the summary here")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    for checkout in (args.parent, args.change):
        if not (checkout / "perfbench" / "run.py").is_file():
            parser.error(f"{checkout} has no perfbench/run.py")

    metrics = end_to_end_metrics(args.parent)
    names = [metric["name"] for metric in metrics]
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    pairs = []
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        result = {side: run_once(sides[side], args.workload, args.seed, args.seconds) for side in order}
        pairs.append((result["parent"], result["change"]))
        cells = "  ".join(
            f"{name} {result['parent']['metrics'][name]['value']:.6g} -> {result['change']['metrics'][name]['value']:.6g}"
            for name in names
        )
        print(f"pair {i + 1} ({order[0]} first): {cells}", flush=True)

    summary = summarize(pairs, metrics)
    print(f"\n{args.workload} --seed {args.seed}, {args.pairs} pairs: median parent -> change")
    for name, m in summary.items():
        print(
            f"  {name:18s} {m['parent_q1_median_q3'][1]:.6g} -> {m['change_q1_median_q3'][1]:.6g} {m['unit']}"
            f"  ({m['relative_change']:+.1%}; parent IQR {m['parent_iqr']:.3g};"
            f" change better in {m['change_better_pairs']} of {args.pairs})"
            f"  claim {'holds' if m['claim_holds'] else 'fails'};"
            f" {'within' if m['within_bound'] else 'OUTSIDE'} the {m['bound']:.0%} bound"
        )
    all_correct = all(p["correct"] and c["correct"] and not p["failed"] and not c["failed"] for p, c in pairs)
    print(f"  all runs correct with no failed operations: {all_correct}")
    if args.json is not None:
        doc = {
            "pairs": args.pairs, "seconds": args.seconds, "all_correct": all_correct, "metrics": summary,
            "runs": [
                {name: [p["metrics"][name]["value"], c["metrics"][name]["value"]] for name in names}
                for p, c in pairs
            ],
        }
        args.json.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0 if all_correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
