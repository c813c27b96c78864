"""Seeded COO input generator for the benchmark.

Writes an N x N x K tensor in the text COO format the CLI reads: a
`%dims N N K` header, then one `i j k value` line per observed entry.
Values come from a planted nonnegative low-rank truth whose temporal
factor follows an AR(1) recurrence per column, plus slot/node biases and
Gaussian noise clamped at 0. Positions are distinct and uniform.

The truth is drawn from the fixed TRUTH_SEED and the observed positions
and noise from `--seed`, so runs with different seeds sample the same
network and their held-out scores stay comparable.

The generator uses only numpy and its own writer, never dyntf, so the
program under test receives inputs that do not change when dyntf's own
synthetic generator changes. The same arguments give the same bytes.

    python3 perfbench/gen.py --nodes 200 --slots 50 --entries 100000 \
        --seed 1 --out data.coo
"""

from __future__ import annotations

import argparse
import hashlib
import os

import numpy as np

TRUTH_RANK = 4
AR = 0.9
NOISE = 0.05
TRUTH_SEED = 0


def generate(nodes: int, slots: int, entries: int, seed: int):
    """Return (i, j, k, values) arrays for `entries` distinct positions."""
    total = nodes * nodes * slots
    if not 0 < entries <= total // 4:
        raise ValueError(f"entries must lie in (0, N*N*K/4], got {entries}")
    rng = np.random.default_rng(seed)
    keys = np.empty(0, dtype=np.int64)
    while keys.size < entries:
        draw = rng.integers(0, total, size=2 * (entries - keys.size) + 16)
        keys = np.unique(np.concatenate((keys, draw)))
    keys = np.sort(rng.permutation(keys)[:entries])
    ii, rest = np.divmod(keys, nodes * slots)
    jj, kk = np.divmod(rest, slots)
    noise = rng.normal(0.0, NOISE, size=entries)

    rng = np.random.default_rng(TRUTH_SEED)
    s = rng.uniform(0.2, 1.0, size=(nodes, TRUTH_RANK))
    u = rng.uniform(0.2, 1.0, size=(nodes, TRUTH_RANK))
    z = np.empty((slots, TRUTH_RANK))
    z[0] = rng.uniform(0.5, 1.5, size=TRUTH_RANK)
    for t in range(1, slots):
        z[t] = AR * z[t - 1] + 2.0 * (1.0 - AR) * rng.uniform(size=TRUTH_RANK)
    a = rng.uniform(0.05, 0.25, size=nodes)
    c = rng.uniform(0.05, 0.25, size=nodes)
    e = rng.uniform(0.05, 0.25, size=slots)
    values = (np.einsum("nd,nd->n", s[ii] * u[jj], z[kk])
              + a[ii] + c[jj] + e[kk] + noise)
    return ii, jj, kk, np.maximum(values, 0.0)


def write_coo(path, nodes: int, slots: int, ii, jj, kk, values) -> None:
    lines = [f"%dims {nodes} {nodes} {slots}"]
    lines += [f"{a} {b} {c} {v!r}" for a, b, c, v in
              zip(ii.tolist(), jj.tolist(), kk.tolist(), values.tolist())]
    lines.append("")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))


def make_input(path, nodes: int, slots: int, entries: int, seed: int) -> dict:
    """Generate and write one input; return its record (sha256, size, count)."""
    write_coo(path, nodes, slots, *generate(nodes, slots, entries, seed))
    with open(path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    return {"path": os.path.basename(path), "nodes": nodes, "slots": slots,
            "entries": entries, "seed": seed,
            "bytes": os.path.getsize(path), "sha256": digest}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nodes", type=int, required=True)
    parser.add_argument("--slots", type=int, required=True)
    parser.add_argument("--entries", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True, help="positions and noise")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    print(make_input(args.out, args.nodes, args.slots, args.entries, args.seed))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
