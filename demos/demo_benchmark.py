#!/usr/bin/env python3
"""Throughput: batched cascade scoring vs the sequential biLSTM baseline.

The baseline walks the document token by token (50 states per direction),
so parallel hardware cannot help it. The cascade scores all spans with
batched matrix work, so it is faster per token at every length; both costs
are linear in the document length.
"""

from spancascade.bench import run_benchmark


def main():
    result = run_benchmark(
        lengths=[200, 1000, 3000, 10000],
        reps=3,
        embed_dim=16,
        hidden_width=32,
        seed=0,
        log=print,
    )
    result.write_csv("bench.csv")
    print("\nwrote bench.csv")
    rows = result.rows
    print(f"speedup {rows[0].speedup:.1f}x at n={rows[0].n}, "
          f"{rows[-1].speedup:.1f}x at n={rows[-1].n}")
    ops0, ops1 = rows[0].cascade_macs, rows[-1].cascade_macs
    print(f"cascade multiply-accumulates: {ops0:,} -> {ops1:,} "
          f"({ops1 / ops0:.1f}x for {rows[-1].n / rows[0].n:.0f}x the tokens)")


if __name__ == "__main__":
    main()
