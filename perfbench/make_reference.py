"""Regenerate perfbench/reference.json, the frozen list of regular
triangulations the benchmark checks fan-scan output against.

    python3 perfbench/make_reference.py

For every configuration whose Gale dual has rank 1 or 2 the secondary fan,
taken modulo its lineality space (the row space of A), lives in a line or a
plane.  The script sweeps the unit circle of ker(A) with bisection down to
1e-9 rad, so every regular triangulation whose chamber is wider than that is
found, and validates each candidate with ``triangulate``.  The result is
cross-checked against a seeded random fan-scan.  e36 and e36c (rank 4) have
no frozen list; the benchmark checks their invariants at run time.
"""

import json
import math
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from gkzeuler import config, triangulation  # noqa: E402
from gkzeuler.errors import DegenerateLifting, NotATriangulation  # noqa: E402

SWEPT = ["g1", "gamma2", "h4", "gauss", "kummer", "phi1", "f1"]
# triangulation counts pinned by tests/test_acceptance.py
PINNED = {"g1": 5, "gamma2": 3, "h4": 4}
SCALE = 10 ** 9
GRID = 720
MIN_ARC = 1e-9


def _kernel_basis(cfg):
    A = np.array(cfg.matrix, dtype=float)
    _, s, vt = np.linalg.svd(A)
    rank = int((s > 1e-9).sum())
    return vt[rank:]                  # rows span ker(A), orthonormal


def _lifting(basis, theta):
    if len(basis) == 1:
        vec = basis[0] * (1.0 if math.cos(theta) >= 0 else -1.0)
    else:
        vec = math.cos(theta) * basis[0] + math.sin(theta) * basis[1]
    return [int(round(SCALE * x)) for x in vec]


def _raw_key(cfg, omega):
    try:
        simplices = triangulation._triangulate_raw(cfg, omega)
    except DegenerateLifting:
        return None
    return frozenset(s.indices for s in simplices)


def _sweep(cfg):
    """Chambers of the raw lifting map on the unit circle of ker(A):
    {index sets: [(theta_lo, theta_hi), ...]}."""
    basis = _kernel_basis(cfg)
    if len(basis) == 1:               # the circle is two points
        return basis, {_raw_key(cfg, _lifting(basis, a)): [(a, a)]
                       for a in (0.0, math.pi)}
    angles = [2 * math.pi * i / GRID for i in range(GRID + 1)]
    keys = [_raw_key(cfg, _lifting(basis, a)) for a in angles[:-1]]
    keys.append(keys[0])
    cuts = []                         # (end of a chamber, start of next, key)

    def bisect(a, ka, b, kb):
        if ka == kb:
            return
        if b - a < MIN_ARC:
            cuts.append((a, b, kb))
            return
        m = 0.5 * (a + b)
        km = _raw_key(cfg, _lifting(basis, m))
        bisect(a, ka, m, km)
        bisect(m, km, b, kb)

    for i in range(GRID):
        bisect(angles[i], keys[i], angles[i + 1], keys[i + 1])
    if not cuts:
        return basis, {keys[0]: [(0.0, 2 * math.pi)]}
    cuts.sort()
    wrapped = cuts[1:] + [(cuts[0][0] + 2 * math.pi,) + cuts[0][1:]]
    arcs = {}
    for (_, start, key), (end, _, _) in zip(cuts, wrapped):
        arcs.setdefault(key, []).append((start, end))
    return basis, arcs


def _validated(cfg, basis, lo, hi, frac):
    """(triangulation, lifting) near the given fraction of the arc; the
    lifting is nudged off the measure-zero angles where some non-facet
    simplex ties, which ``triangulate`` rejects as degenerate."""
    for nudge in (0.0, 0.013, -0.017, 0.029):
        omega = _lifting(basis, lo + (frac + nudge) * (hi - lo))
        try:
            return triangulation.triangulate(cfg, omega), omega
        except DegenerateLifting:
            continue
        except NotATriangulation:
            return None
    return None


def _payload(tri):
    return {"simplices": sorted(list(s.indices) for s in tri.simplices),
            "convergent": tri.convergent, "unimodular": tri.unimodular}


def _swept_entry(name):
    cfg = config.get_config(name)
    basis, arcs = _sweep(cfg)
    found = []
    for key, spans in arcs.items():
        if key is None:
            continue
        lo, hi = max(spans, key=lambda s: s[1] - s[0])
        picked = [_validated(cfg, basis, lo, hi, f) for f in (0.25, 0.5, 0.75)]
        if None in picked:
            continue                  # outside the support of the fan
        assert all(t.index_sets() == key for t, _ in picked), name
        found.append(picked[0][0])
    found.sort(key=lambda t: sorted(t.index_sets()))
    scanned = triangulation.enumerate_regular_triangulations(
        cfg, samples=300, seed=7)
    assert {t.index_sets() for t in scanned} \
        <= {t.index_sets() for t in found}, name
    return found


def main():
    fan = {}
    for name in SWEPT:
        found = _swept_entry(name)
        assert len(found) == PINNED.get(name, len(found)), name
        fan[name] = [_payload(t) for t in found]
        print(name, len(found), "triangulations", file=sys.stderr)
    Path(__file__).with_name("reference.json").write_text(render(fan))


def render(fan):
    """reference.json's text: one triangulation a line."""
    lines = ["{", ' "fan_scan": {']
    for j, (name, items) in enumerate(sorted(fan.items())):
        lines.append(f"  {json.dumps(name)}: [")
        lines.extend("   " + json.dumps(item, sort_keys=True)
                     + ("," if k < len(items) - 1 else "")
                     for k, item in enumerate(items))
        lines.append("  ]" + ("," if j < len(fan) - 1 else ""))
    lines += [" }", "}"]
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    main()
