"""Spec generator for the benchmark workloads.

Writes ``warmup.json`` and ``spec_0000.json`` ... into an output directory.
Inputs depend only on (workload, seed, call index), never on
``dirichlet_lab``, so a change to the program cannot change a workload.

    python3 benchmark/gen.py --workload graph_exact --seed 1 [--start 0] --count 8 --out DIR

Spec ``i`` of a seed is the same whatever ``--count`` is; the warm-up spec
comes from its own stream and is never one of the timed inputs.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import numpy as np

WARMUP = -1
_GOLDEN = (5 ** 0.5 - 1.0) / 2.0


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed) & 0xFFFFFFFF, *key]))


def _nested(rng: np.random.Generator, D: np.ndarray, sizes) -> list:
    """Random increasing chain of subsets of D with the given sizes, ending at D."""
    order = rng.permutation(D)
    return [sorted(int(v) for v in order[:k]) for k in sizes] + [[int(v) for v in D]]


def graph_exact(seed: int, index: int) -> dict:
    """Dense connected graph, n=1600, |D|=960, 4-level nest, cubic absorption.

    Jump weights are multiples of 1e-3 and the other data carry the factor n
    instead, so rates and solution are those of weights J/n at a third of the
    spec size.
    """
    rng = _rng(seed, 1, 0, index & 0xFFFFFFFF)
    n, nD = 1600, 960
    weights = rng.integers(200, 1001, size=(n, n)) * (rng.random((n, n)) < 0.5)
    codes = np.triu(weights, 1)
    kappa = np.where(rng.random(n) < 0.4, rng.uniform(0.3, 1.2, size=n), 0.0)
    m = rng.uniform(0.5, 2.0, size=n)
    D = np.sort(rng.choice(n, size=nD, replace=False))
    g = rng.uniform(-1.0, 1.0, size=n)
    mu = np.zeros(n)
    mu[D] = rng.uniform(-0.5, 0.5, size=nD) * (rng.random(nD) < 0.7)
    b = rng.uniform(0.0, 1.0, size=n)
    return {"schema": 1, "backend": "graph",
            "form": {"m": (n * m).tolist(), "J": codes + codes.T, "kappa": (n * kappa).tolist()},
            "D": D.tolist(), "g": g.tolist(), "mu": (n * mu).tolist(),
            "f": {"kind": "power", "p": 3.0, "b": b.tolist()},
            "nest": _nested(rng, D, (240, 480, 720))}


def _mean_jumps(J: np.ndarray, D: np.ndarray) -> float:
    """Expected number of jumps of the chain from state 0 until it leaves D."""
    P = J[np.ix_(D, D)] / J[D].sum(axis=1)[:, None]
    return float(np.linalg.solve(np.eye(D.size) - P, np.ones(D.size))[0])


def graph_mc(seed: int, index: int) -> dict:
    """Sparse connected graph, n=300, |D|=270, mean degree about 4.

    The edges are two random Hamiltonian cycles and the 30 states outside D
    are drawn among states 1..299.  The mc suite starts its paths at the
    smallest state of D, state 0, and a graph is kept only if a path from
    there makes 14 to 16 jumps on average (the middle of what such graphs
    give): the simulation cost is proportional to that number, so it hardly
    depends on the drawn graph.  Killing sits only outside D, so every path
    leaves D by a jump.  The warm-up graph has n=30 and |D|=15, so its paths
    are short: it runs the same modules at a fraction of the cost.
    """
    rng = _rng(seed, 2, 0, index & 0xFFFFFFFF)
    n, nD = (30, 15) if index == WARMUP else (300, 270)
    while True:
        J = np.zeros((n, n), dtype=np.int64)
        for _ in range(2):
            cycle = rng.permutation(n)
            J[cycle, np.roll(cycle, 1)] = rng.integers(200, 1001, size=n)
        J = np.maximum(J, J.T)
        outside = 1 + rng.choice(n - 1, size=n - nD, replace=False)
        D = np.setdiff1d(np.arange(n), outside)
        if index == WARMUP or 14.0 <= _mean_jumps(J.astype(float), D) <= 16.0:
            break
    kappa = np.zeros(n)
    kappa[outside] = rng.uniform(0.3, 1.2, size=n - nD)
    m = rng.uniform(0.5, 2.0, size=n)
    g = rng.uniform(-1.0, 1.0, size=n)
    mu = np.zeros(n)
    mu[D] = rng.uniform(-0.5, 0.5, size=nD) * (rng.random(nD) < 0.7)
    b = rng.uniform(0.0, 1.0, size=n)
    return {"schema": 1, "backend": "graph",
            "form": {"m": m.tolist(), "J": J, "kappa": kappa.tolist()},
            "D": D.tolist(), "g": g.tolist(), "mu": mu.tolist(),
            "f": {"kind": "power", "p": 3.0, "b": b.tolist()}}


def frac(seed: int, index: int) -> dict:
    """Continuum problem on the default grid, cubic absorption, constant g.

    alpha ~ U[0.5, 1.5], g ~ U[0.5, 1.5] and b ~ U[0.5, 2] are drawn for
    each pair of calls; the odd call of a pair takes the mirror images
    (2 - alpha, 2 - g, 2.5 - b).  Every input stays uniform on its range, and
    a run of two calls already covers both ends of each range, so the cost
    and Monte Carlo band of a run hardly depend on where the draws fell.
    The pair's alpha follows a golden-ratio sequence with a random start, so
    the calls of a run also spread evenly over [0.5, 1.5].
    """
    if index == WARMUP:  # no absorption: the same modules at a fraction of the cost
        alpha, g = _rng(seed, 3, 2).uniform((0.5, 0.5), (1.5, 1.5))
        return {"schema": 1, "backend": "frac1d", "alpha": float(alpha),
                "g": {"kind": "const", "value": float(g)}, "f": {"kind": "zero"}}
    pair = index // 2
    start = _rng(seed, 3, 1).random()
    alpha = 0.5 + (start + pair * _GOLDEN) % 1.0
    g, b = _rng(seed, 3, 0, pair).uniform((0.5, 0.5), (1.5, 2.0))
    if index % 2:
        alpha, g, b = 2.0 - alpha, 2.0 - g, 2.5 - b
    return {"schema": 1, "backend": "frac1d", "alpha": float(alpha),
            "g": {"kind": "const", "value": float(g)},
            "f": {"kind": "power", "p": 3.0, "b": float(b)}}


GENERATORS = {"graph_exact": graph_exact, "graph_mc": graph_mc,
              "frac_exact": frac, "frac_wos": frac}


def _dumps(spec: dict) -> str:
    """JSON text of a spec; an integer jump matrix is written in units of 1e-3.

    Writing through a table of the 1,001 possible numbers is several times
    faster than ``json.dumps`` on a dense float matrix.
    """
    form = spec.get("form")
    if form is None:
        return json.dumps(spec)
    codes = form["J"]
    table = [repr(k / 1000) for k in range(int(codes.max()) + 1)]
    rows = ",".join("[" + ",".join([table[k] for k in row]) + "]" for row in codes.tolist())
    text = json.dumps({**spec, "form": {**form, "J": "@J@"}})
    return text.replace('"@J@"', "[" + rows + "]")


def write_specs(workload: str, seed: int, start: int, count: int, out: Path) -> None:
    """Specs ``start`` .. ``start + count - 1``; the warm-up spec with the first batch."""
    out.mkdir(parents=True, exist_ok=True)
    gen = GENERATORS[workload]
    jobs = [(i, f"spec_{i:04d}.json") for i in range(start, start + count)]
    for index, name in ([(WARMUP, "warmup.json")] if start == 0 else []) + jobs:
        (out / name).write_text(_dumps(gen(seed, index)) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(GENERATORS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--start", type=int, default=0)
    parser.add_argument("--count", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    write_specs(args.workload, args.seed, args.start, args.count, args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
