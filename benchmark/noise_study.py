#!/usr/bin/env python3
"""Host-noise study behind README.md's choice of run length and estimator.

    stackbench --workload tree_fresh --seed 1 --seconds 650 --trace 1
    python3 benchmark/noise_study.py benchmark/results/trace_tree_fresh.jsonl

The traced phase of that run is ~227 s of one fixed kernel: a 1600-playout
serial search over a cycle of 64 positions, so request `req` searched
position `(req - 1) % 64`. The timeline is cut into windows of 10, 30 and
60 s, and for each window length the script prints how much five summaries
of the same work differ between windows — the coefficient of variation and
the range, both relative to the mean:

  mean, p50, p10, p95   of the duration of blocks of 16 consecutive requests
  fastest               the median over the 64 positions of each position's
                        fastest search in the window (what `req_p50_ms` is)
"""
import json
import statistics
import sys

BLOCK = 16
POSITIONS = 64


def quantile(sorted_values, q):
    rank = (len(sorted_values) - 1) * q
    lo, hi = int(rank), min(int(rank) + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (rank - lo)


def fastest(requests):
    best = {}
    for _, ms, slot in requests:
        best[slot] = min(ms, best.get(slot, ms))
    return statistics.median(best.values())


def main(path):
    spans = [json.loads(line) for line in open(path)]
    requests = sorted(  # (start, duration in ms, position)
        (s["start_ns"], (s["end_ns"] - s["start_ns"]) * 1e-6, (s["req"] - 1) % POSITIONS)
        for s in spans
        if s["name"] == "request"
    )
    blocks = [  # (start of block, duration in ms, unused)
        (requests[i][0], (requests[i + BLOCK - 1][0] - requests[i][0]) * 1e-6 + requests[i + BLOCK - 1][1], 0)
        for i in range(0, len(requests) - BLOCK + 1, BLOCK)
    ]
    t0, t1 = requests[0][0], requests[-1][0]
    print(f"{len(requests)} requests, {len(blocks)} blocks of {BLOCK}, {(t1 - t0) * 1e-9:.0f} s")
    of_blocks = {
        "mean": statistics.fmean,
        "p50": lambda v: quantile(sorted(v), 0.50),
        "p10": lambda v: quantile(sorted(v), 0.10),
        "p95": lambda v: quantile(sorted(v), 0.95),
    }
    names = list(of_blocks) + ["fastest"]
    print(f"{'window':>8} {'n':>3} " + " ".join(f"{name + ' cv/range':>18}" for name in names))
    for window_s in (10, 30, 60):
        width = window_s * 1e9
        full = int((t1 - t0) // width)  # the last, partial window is left out

        def windows(rows):
            cut = [[] for _ in range(full)]
            for row in rows:
                k = int((row[0] - t0) // width)
                if k < full:
                    cut[k].append(row)
            return cut

        per_window = {
            name: [fn([ms for _, ms, _ in w]) for w in windows(blocks)] for name, fn in of_blocks.items()
        }
        per_window["fastest"] = [fastest(w) for w in windows(requests)]
        cells = []
        for name in names:
            values = per_window[name]
            mean = statistics.fmean(values)
            cv = statistics.pstdev(values) / mean
            spread = (max(values) - min(values)) / mean
            cells.append(f"{cv * 100:7.2f}% /{spread * 100:6.2f}%")
        print(f"{window_s:>6} s {full:>3} " + " ".join(f"{c:>18}" for c in cells))


if __name__ == "__main__":
    main(sys.argv[1])
