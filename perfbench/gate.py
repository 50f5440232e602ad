"""Correctness gate: frozen references and the checks a run must pass.

References live in perfbench/refs/<workload>.json and are written by
freeze.py.  Query points depend on the seed, so their reference is the P1
interpolant of the frozen nodal values, evaluated here with numpy alone.
"""
from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

TOL = 1e-9                      # absolute, for nodal, query and exact costs
MC_SIGMAS = 4.0                 # Monte Carlo mean vs exact cost
BARY_TOL = 1e-10
REF_DIR = Path(__file__).resolve().parent / "refs"


class Ops:
    """Operations attempted and failed; a failed check fails its operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list = []

    def record(self, label: str, ok: bool, n: int = 1, n_failed: int | None = None):
        self.attempted += n
        bad = (0 if ok else n) if n_failed is None else n_failed
        self.failed += bad
        if bad:
            self.messages.append(label)


def ref_path(workload: str) -> Path:
    return REF_DIR / f"{workload}.json"


def load_ref(workload: str) -> dict:
    with open(ref_path(workload), encoding="ascii") as fh:
        return json.load(fh)


def mesh_fingerprint(mesh) -> dict:
    """Sizes, vertex moments and an order-free hash of the simplex set."""
    simp = np.sort(np.asarray(mesh.simplices, dtype=np.int64), axis=1)
    simp = simp[np.lexsort(simp.T[::-1])]
    verts = np.asarray(mesh.vertices, dtype=float)
    return {
        "n_vertices": int(verts.shape[0]),
        "n_simplices": int(simp.shape[0]),
        "simplices_sha256": hashlib.sha256(simp.tobytes()).hexdigest(),
        "vertex_sum": [float(v) for v in verts.sum(axis=0)],
        "vertex_sq_sum": float((verts * verts).sum()),
    }


def same_mesh(fp: dict, ref: dict) -> bool:
    return (fp["n_vertices"] == ref["n_vertices"]
            and fp["n_simplices"] == ref["n_simplices"]
            and fp["simplices_sha256"] == ref["simplices_sha256"]
            and np.allclose(fp["vertex_sum"], ref["vertex_sum"], rtol=0, atol=TOL)
            and abs(fp["vertex_sq_sum"] - ref["vertex_sq_sum"]) <= TOL)


def max_abs_diff(values, ref_values) -> float:
    a = np.asarray(values, dtype=float)
    b = np.asarray(ref_values, dtype=float)
    if a.shape != b.shape:
        return math.inf
    return float(np.max(np.abs(a - b))) if a.size else 0.0


def p1_reference(vertices, simplices, nodal, pts) -> np.ndarray:
    """P1 interpolant at pts; points off the polygon go to the nearest
    boundary edge first, as the mesh projection does."""
    vertices = np.asarray(vertices, dtype=float)
    simplices = np.asarray(simplices, dtype=np.int64)
    nodal = np.asarray(nodal, dtype=float)
    pts = np.asarray(pts, dtype=float).reshape(len(pts), -1)
    if vertices.shape[1] == 1:
        order = np.argsort(vertices[:, 0])
        return np.interp(pts[:, 0], vertices[order, 0], nodal[order])
    tri = vertices[simplices]                              # (m, 3, 2)
    mats = np.concatenate([tri.transpose(0, 2, 1),
                           np.ones((len(simplices), 1, 3))], axis=1)
    inv = np.linalg.inv(mats)                              # (m, 3, 3)
    out = np.full(len(pts), np.nan)
    for lo in range(0, len(pts), 256):
        chunk = pts[lo:lo + 256]
        rhs = np.column_stack([chunk, np.ones(len(chunk))])
        lam = np.einsum("mij,qj->qmi", inv, rhs)           # (q, m, 3)
        ok = lam.min(axis=2) >= -BARY_TOL
        hit = ok.any(axis=1)
        first = ok.argmax(axis=1)
        rows = np.nonzero(hit)[0]
        lam_hit = np.clip(lam[rows, first[rows]], 0.0, None)
        lam_hit /= lam_hit.sum(axis=1, keepdims=True)
        out[lo + rows] = (nodal[simplices[first[rows]]] * lam_hit).sum(axis=1)
    miss = np.nonzero(np.isnan(out))[0]
    if len(miss):
        edges = _boundary_edges(simplices)
        a, b = vertices[edges[:, 0]], vertices[edges[:, 1]]
        ab = b - a
        for q in miss:
            x = pts[q]
            t = np.clip(((x - a) * ab).sum(axis=1) / (ab * ab).sum(axis=1), 0.0, 1.0)
            d = np.linalg.norm(a + t[:, None] * ab - x, axis=1)
            e = int(np.argmin(d))
            out[q] = (1.0 - t[e]) * nodal[edges[e, 0]] + t[e] * nodal[edges[e, 1]]
    return out


def _boundary_edges(simplices) -> np.ndarray:
    e = np.concatenate([simplices[:, [0, 1]], simplices[:, [1, 2]],
                        simplices[:, [0, 2]]])
    e = np.sort(e, axis=1)
    uniq, counts = np.unique(e, axis=0, return_counts=True)
    return uniq[counts == 1]


def mc_within(mean: float, stderr: float, exact: float) -> bool:
    return (math.isfinite(mean) and math.isfinite(stderr)
            and abs(mean - exact) <= max(MC_SIGMAS * stderr, TOL))
