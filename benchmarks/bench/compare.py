"""Compare two result files of ``benchmarks/bench/run.py``.

    python3 benchmarks/bench/compare.py A.json B.json

One row per workload x end-to-end metric: both medians with quartiles
and sample count, the bound ``BENCHMARK.json`` fixes for the metric, and
a verdict for B against A:

* ``ok`` — B's median is not worse than A's by more than the bound;
* ``worse`` — it is (the command then exits non-zero);
* ``unresolved`` — the quartile spread of either side is wider than the
  bound, so a difference of that size cannot be told from noise.  It is
  reported instead of ``ok``/``worse`` unless every sample of B is
  better than every sample of A.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def spread(metric: dict) -> float:
    """Inter-quartile distance as a share of the median (0 if unknown)."""
    if metric["q1"] is None or not metric["value"]:
        return 0.0
    return (metric["q3"] - metric["q1"]) / abs(metric["value"])


def verdict(a: dict, b: dict, better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    worsening = sign * (b["value"] - a["value"])
    samples_a, samples_b = a.get("samples"), b.get("samples")
    if max(spread(a), spread(b)) > bound:
        separated = (
            samples_a
            and samples_b
            and max(sign * x for x in samples_b)
            < min(sign * x for x in samples_a)
        )
        if not separated:
            return "unresolved"
    return "worse" if worsening > bound * abs(a["value"]) else "ok"


def cell(metric: dict) -> str:
    text = f"{metric['value']:.5g}"
    if metric["q1"] is not None:
        text += f" [{metric['q1']:.4g}, {metric['q3']:.4g}]"
    return f"{text} n={metric['n']}"


def compare(a: dict, b: dict, bench: dict) -> list[tuple]:
    rows = []
    for workload in (w["name"] for w in bench["workloads"]):
        runs = [doc["workloads"].get(workload, {}).get("end_to_end")
                for doc in (a, b)]
        if None in runs:
            continue
        for decl in bench["end_to_end"]:
            ma, mb = (run["metrics"][decl["name"]] for run in runs)
            rows.append(
                (
                    workload, decl["name"], decl["unit"], cell(ma), cell(mb),
                    decl["bound"],
                    verdict(ma, mb, decl["better"], decl["bound"]),
                )
            )
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (json.loads(Path(p).read_text()) for p in argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = compare(a, b, bench)
    print(f"{'workload':<13} {'metric':<22} {'unit':<8} {'A':<34} "
          f"{'B':<34} {'bound':>6}  verdict")
    for workload, name, unit, ca, cb, bound, result in rows:
        print(f"{workload:<13} {name:<22} {unit:<8} {ca:<34} {cb:<34} "
              f"{bound:>6}  {result}")
    return 1 if any(row[-1] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
