#!/usr/bin/env python3
"""Summarize the runs saved under perfbench/out/ (or another directory).

    python3 perfbench/report.py [DIR]

Per workload and metric: the number of runs, the median, the quartiles and
the spread (quartile distance over the median, as the acceptance rule uses
it). Traced runs add the per-layer medians, whether each count repeated
exactly, and the tracing overhead (traced ``scene.step_ms`` over untraced
``step_ms_p50``). The paper's headline ratios, column_standard over
column_fast, are printed with their bases; they are not gated metrics. The
last line is the whole summary as JSON.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent


def load(directory: Path):
    runs = defaultdict(list)  # (workload, trace) -> results
    for path in sorted(directory.glob("*-trace[01].json")):
        result = json.loads(path.read_text())
        runs[result["workload"], result["trace"]].append(result)
    return runs


def spread(values: list[float]) -> dict:
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"runs": len(values), "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def summarize(runs) -> dict:
    summary = {"workloads": {}, "paper_ratios": {}, "machine": None}
    for (workload, trace), results in sorted(runs.items()):
        summary["machine"] = summary["machine"] or results[0]["machine"]
        entry = summary["workloads"].setdefault(workload, {})
        names = results[0]["metrics"]
        table = {}
        for name, first in names.items():
            values = [r["metrics"][name]["value"] for r in results]
            row = spread(values)
            row["unit"] = first["unit"]
            if first["unit"] == "count":
                row["repeats"] = len(set(values)) == 1
            table[name] = row
        entry["per_layer" if trace else "end_to_end"] = table
        entry["dofs"] = results[0]["dofs"]
        if not trace:
            entry["timed_steps"] = results[0]["timed_steps"]
            entry["tail_percentile"] = results[0]["tail_percentile"]
    for workload, entry in summary["workloads"].items():
        if "end_to_end" in entry and "per_layer" in entry:
            traced = entry["per_layer"]["scene.step_ms"]["median"]
            plain = entry["end_to_end"]["step_ms_p50"]["median"]
            entry["trace_overhead"] = traced / plain - 1.0
    std = summary["workloads"].get("column_standard", {})
    fast = summary["workloads"].get("column_fast", {})
    for kind, name in (("end_to_end", "step_ms_p50"), ("per_layer", "solver.newton_iteration_ms")):
        if kind in std and kind in fast:
            a, b = std[kind][name]["median"], fast[kind][name]["median"]
            summary["paper_ratios"][name] = {"column_standard": a, "column_fast": b,
                                             "ratio": a / b}
    return summary


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    directory = Path(argv[0]) if argv else HERE / "out"
    summary = summarize(load(directory))
    for workload, entry in summary["workloads"].items():
        print(f"{workload}: {entry['dofs']} DOFs"
              + (f", {entry['timed_steps']} timed steps, step_ms_tail is "
                 f"p{entry['tail_percentile']:.1f}" if "timed_steps" in entry else "")
              + (f", tracing adds {100 * entry['trace_overhead']:.1f}% to the step"
                 if "trace_overhead" in entry else ""))
        for kind in ("end_to_end", "per_layer"):
            for name, row in entry.get(kind, {}).items():
                note = "" if "repeats" not in row else (
                    "  repeats" if row["repeats"] else "  VARIES")
                print(f"  {name:34s} {row['median']:.6g} {row['unit']:6s} "
                      f"[{row['q1']:.6g}, {row['q3']:.6g}] spread {100 * row['spread']:.2f}% "
                      f"over {row['runs']} runs{note}")
    for name, r in summary["paper_ratios"].items():
        print(f"paper ratio {name}: column_standard {r['column_standard']:.2f} / "
              f"column_fast {r['column_fast']:.2f} = {r['ratio']:.2f}x")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
