"""Seeded input generation for the price-kit benchmark.

Every workload's inputs come from ``numpy.random.default_rng([seed, salt])``,
with a fixed salt per workload, and are written as JSON with ``repr`` floats,
so one seed gives byte-identical files on one numpy version.  The program
under test only ever sees these files (and, on the library path, the arrays
loaded back from them).
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

REPORT_LARGE_K = 64
SIMULATE_K = 48
SIMULATE_GENERATIONS = 16
SCREEN_PAIRS = 200
SCREEN_K = (2, 12)
SCREEN_D = (2, 4)
CROSSCHECK_K = 16
KS_HORIZON = 4

# Shares of screen_small pairs with a special shape, fixed by pair index so
# every seed has the same mix: 1 in 5 has childless rows (factorisation drops
# types), 1 in 5 has an injective kernel (reversibility builds retractions,
# sections and inverses).
CHILDLESS_EVERY, CHILDLESS_AT = 5, 1
INJECTIVE_EVERY, INJECTIVE_AT = 5, 3


def _labels(prefix: str, k: int) -> list[str]:
    return [f"{prefix}{i}" for i in range(k)]


def _kernel(rng, k: int, k_out: int, density: float = 0.5, childless: int = 0) -> np.ndarray:
    """Nonnegative K x K' kernel, about ``density`` nonzero.

    Every live row has a child and every column has a live parent, so no
    child type is empty; the first ``childless`` rows (after a shuffle) are
    all zero.
    """
    dead = rng.permutation(k)[:childless]
    live = np.setdiff1d(np.arange(k), dead)
    mask = rng.random((k, k_out)) < density
    mask[dead] = False
    for i in live:
        if not mask[i].any():
            mask[i, rng.integers(k_out)] = True
    for j in range(k_out):
        if not mask[live, j].any():
            mask[live[rng.integers(len(live))], j] = True
    kernel = np.where(mask, rng.uniform(0.1, 1.0, size=(k, k_out)), 0.0)
    # Row sums between 0.8 and 1.25 keep iterated populations near unit scale.
    sums = kernel.sum(axis=1)
    scale = np.divide(rng.uniform(0.8, 1.25, size=k), sums,
                      out=np.zeros(k), where=sums > 0)
    return kernel * scale[:, None]


def _injective_kernel(rng, k: int) -> np.ndarray:
    kernel = np.zeros((k, k))
    kernel[np.arange(k), rng.permutation(k)] = rng.uniform(0.5, 1.5, size=k)
    return kernel


def _two_blocks(rng, labels: list[str]) -> list[list[str]]:
    order = rng.permutation(len(labels))
    cut = int(rng.integers(1, len(labels)))
    return [[labels[i] for i in sorted(order[:cut])],
            [labels[i] for i in sorted(order[cut:])]]


def _complex_rows(m: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]


def _quantum_block(rng, d_in: int, d_out: int) -> dict:
    g = rng.normal(size=(d_in, d_in)) + 1j * rng.normal(size=(d_in, d_in))
    rho = g @ g.conj().T
    rho = 0.5 * (rho + rho.conj().T) / np.trace(rho).real
    kraus = [0.6 * (rng.normal(size=(d_out, d_in)) + 1j * rng.normal(size=(d_out, d_in)))
             for _ in range(2)]
    return {"rho": _complex_rows(rho), "kraus": [_complex_rows(a) for a in kraus]}


def composable_pair(rng, k: int, k_mid: int, k_next: int, *, childless: int = 0,
                    injective: bool = False, endomorphic: bool = False,
                    quantum: tuple[int, int] | None = None) -> tuple[dict, dict]:
    """Documents for p: K -> K' and q: K' -> K'' with p's target = q's source.

    p carries a source and a target observable, two-block partitions and an
    open (orphan) block; ``quantum`` adds a Kraus block with (d_in, d_out).
    """
    src = _labels("s", k) if not endomorphic else _labels("m", k)
    mid = _labels("m", k_mid)
    nxt = _labels("n", k_next)
    weights = rng.uniform(0.5, 2.0, size=k)
    kernel = _injective_kernel(rng, k) if injective else _kernel(rng, k, k_mid, childless=childless)
    mid_weights = kernel.T @ weights
    p = {
        "types": src,
        "weights": weights.tolist(),
        "kernel": kernel.tolist(),
        "target_types": mid,
        "observables": {
            "trait": rng.normal(size=k).tolist(),
            "offspring_trait": rng.normal(size=k_mid).tolist(),
        },
        "partitions": {"source": _two_blocks(rng, src), "target": _two_blocks(rng, mid)},
        "open": {"orphan_weights": (rng.uniform(0.0, 0.3, size=k_mid) * mid_weights).tolist()},
    }
    if quantum is not None:
        p["quantum"] = _quantum_block(rng, *quantum)
    q = {
        "types": mid,
        "weights": mid_weights.tolist(),
        "kernel": _kernel(rng, k_mid, k_next).tolist(),
        "target_types": nxt,
    }
    return p, q


def simulate_doc(rng, k: int) -> dict:
    labels = _labels("t", k)
    return {
        "types": labels,
        "target_types": labels,
        "weights": rng.uniform(0.5, 2.0, size=k).tolist(),
        "kernel": _kernel(rng, k, k).tolist(),
    }


# Distinct streams per workload, so seed s of one workload is unrelated to
# seed s of another.
_WORKLOAD_SALT = {"report_large": 1, "simulate_long": 2, "screen_small": 3,
                  "library_crosscheck": 4}
WORKLOADS = tuple(_WORKLOAD_SALT)


def generate(workload: str, seed: int) -> dict[str, dict]:
    """File name -> JSON document for one workload and seed."""
    rng = np.random.default_rng([seed, _WORKLOAD_SALT[workload]])
    if workload == "report_large":
        k = REPORT_LARGE_K
        p, q = composable_pair(rng, k, k, k)
        return {"p.json": p, "q.json": q}
    if workload == "simulate_long":
        return {"p.json": simulate_doc(rng, SIMULATE_K)}
    if workload == "screen_small":
        docs = {}
        lo, hi = SCREEN_K
        for i in range(SCREEN_PAIRS):
            k, k_mid, k_next = (int(v) for v in rng.integers(lo, hi + 1, size=3))
            injective = i % INJECTIVE_EVERY == INJECTIVE_AT
            if injective:
                k_mid = k
            childless = 0
            if i % CHILDLESS_EVERY == CHILDLESS_AT:
                childless = int(rng.integers(1, max(1, k // 3) + 1))
            d_in, d_out = (int(v) for v in rng.integers(SCREEN_D[0], SCREEN_D[1] + 1, size=2))
            p, q = composable_pair(rng, k, k_mid, k_next, childless=childless,
                                   injective=injective, quantum=(d_in, d_out))
            docs[f"p{i:03d}.json"] = p
            docs[f"q{i:03d}.json"] = q
        return docs
    if workload == "library_crosscheck":
        k = CROSSCHECK_K
        p, q = composable_pair(rng, k, k, k, endomorphic=True)
        return {"p.json": p, "q.json": q}
    raise ValueError(f"unknown workload {workload!r}")


def encode(doc: dict) -> bytes:
    return (json.dumps(doc, sort_keys=True) + "\n").encode()


def write_inputs(docs: dict[str, dict], directory: str) -> str:
    """Write the documents and return the SHA-256 over names and bytes."""
    os.makedirs(directory, exist_ok=True)
    digest = hashlib.sha256()
    for name in sorted(docs):
        data = encode(docs[name])
        with open(os.path.join(directory, name), "wb") as fh:
            fh.write(data)
        digest.update(name.encode() + b"\0" + data)
    return digest.hexdigest()
