"""Command line interface.

All output is JSON on stdout (or --out FILE).  Complex numbers are encoded
as two-element arrays [re, im]; integers too large for a double are encoded
as decimal strings.  Given the same inputs and seed the output bytes are
identical across runs.

Exit codes: 0 success, 1 residual above tolerance, 2 bad input,
3 degenerate or non-generic parameters, 4 numerical failure.
"""

import argparse
import functools
import json
import math
import os
import random
import sys
from fractions import Fraction

from .errors import (BadDimensions, DegenerateLifting, DegenerateParameter,
                     DivergentTail, ExhaustedRetries, GkzError,
                     LatticeNotFull, NonGenericParameter, NotATriangulation,
                     NotConvergent, NotUnimodular, PoleAtNonpositiveInteger,
                     ScaleTooSmall, SineZero, SingularMatrix, UndefinedRatio,
                     ZeroDenominator)
from .config import get_config, load_block_config_json, registry_names
from .triangulation import (enumerate_ladders, enumerate_regular_triangulations,
                            ladder_exponents, triangulate)
from .series import dual_gamma_series, gamma_series
from .intersection import (case_names, exact_coefficient_identity,
                           verify_case)

EXIT_OK = 0
EXIT_RESIDUAL = 1
EXIT_BAD_INPUT = 2
EXIT_DEGENERATE = 3
EXIT_NUMERIC = 4

# the exact identities' cost grows steeply with the degree (Fractions of
# growing size): the largest accepted degree takes about 0.5 s in a fresh
# process on a 2-core host (degree 76: 0.47 s, 78: 0.51 s)
_IDENTITIES_MAX_DEGREE = 76

_BAD_INPUT = (BadDimensions, LatticeNotFull, NotATriangulation,
              NotConvergent, NotUnimodular, SingularMatrix, KeyError,
              ValueError, OSError)
_DEGENERATE = (DegenerateLifting, DegenerateParameter, NonGenericParameter,
               PoleAtNonpositiveInteger, SineZero, UndefinedRatio,
               ZeroDenominator)
_NUMERIC = (DivergentTail, ExhaustedRetries, ScaleTooSmall, OverflowError)


def _encode(obj):
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, int):
        return obj if abs(obj) < 2 ** 53 else str(obj)
    if isinstance(obj, float):
        return obj
    if isinstance(obj, str):
        return obj
    if isinstance(obj, dict):
        return {k: _encode(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_encode(v) for v in obj]
    if obj is None:
        return None
    return str(obj)


def _emit(payload, out):
    try:
        text = json.dumps(_encode(payload), sort_keys=True,
                          separators=(",", ":"), allow_nan=False) + "\n"
    except ValueError as exc:        # NaN and Infinity are not JSON
        raise OverflowError("a number of the output is not finite") from exc
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_config(args):
    if args.config in registry_names():
        return get_config(args.config)
    if os.path.exists(args.config):
        with open(args.config) as fh:
            cfg, _ = load_block_config_json(json.load(fh))
        return cfg
    raise KeyError(f"unknown config {args.config!r}; registry: "
                   f"{registry_names()}")


def _floats(text):
    return tuple(float(x) for x in text.split(",")) if text else ()


def _complexes(text):
    out = []
    for part in text.split(","):
        out.append(complex(part))
    return tuple(out)


def _ints(text):
    return tuple(int(x) for x in text.split(",")) if text else ()


def _tri_payload(cfg, tri):
    return {
        "simplices": [list(s.indices) for s in tri.simplices],
        "volumes": [abs(s.det) for s in tri.simplices],
        "convergent": tri.convergent,
        "unimodular": tri.unimodular,
        "omega": list(tri.omega),
    }


def _cmd_triangulate(args):
    cfg = _load_config(args)
    omega = _ints(args.omega)
    if len(omega) != cfg.N:
        raise ValueError(f"omega needs {cfg.N} entries, got {len(omega)}")
    tri = triangulate(cfg, list(omega), seed=args.seed)
    _emit({"config": cfg.name, **_tri_payload(cfg, tri)}, args.out)
    return EXIT_OK


def _cmd_fan_scan(args):
    cfg = _load_config(args)
    tris = enumerate_regular_triangulations(cfg, samples=args.samples,
                                            seed=args.seed)
    payload = {
        "config": cfg.name,
        "samples": args.samples,
        "count": len(tris),
        "triangulations": [_tri_payload(cfg, t) for t in tris],
    }
    _emit(payload, args.out)
    return EXIT_OK


def _cmd_ladders(args):
    ladders = enumerate_ladders(args.k, args.n)
    payload = {
        "k": args.k,
        "n": args.n,
        "count": len(ladders),
        "ladders": [[list(p) for p in lad] for lad in ladders],
    }
    if args.ctilde:
        ct = _floats(args.ctilde)
        want = args.n if args.confluent else args.n + 1
        if len(ct) != want:
            raise BadDimensions(f"ctilde needs {want} entries for n={args.n}, "
                                f"got {len(ct)}")
        if not all(math.isfinite(x) for x in ct):
            raise BadDimensions("ctilde needs finite entries")
        payload["exponents"] = [
            {f"{i},{j}": v for (i, j), v in
             ladder_exponents(lad, ct, confluent=args.confluent).items()}
            for lad in ladders]
    _emit(payload, args.out)
    return EXIT_OK


def _cmd_series(args):
    cfg = _load_config(args)
    sigma = _ints(args.sigma)
    delta = _complexes(args.delta)
    z = _complexes(args.z)
    if len(delta) != cfg.d:
        raise ValueError(f"delta needs {cfg.d} entries")
    if len(z) != cfg.N:
        raise ValueError(f"z needs {cfg.N} entries")
    kvec = _ints(args.kvec) if args.kvec else None
    fn = dual_gamma_series if args.dual else gamma_series
    val = fn(cfg, sigma, kvec, z, delta, args.order)
    payload = {
        "config": cfg.name,
        "sigma": list(sigma),
        "dual": bool(args.dual),
        "order": val.order,
        "value": complex(val.value),
        "terms_summed": val.terms_summed,
        "last_shell_max": val.last_shell_max,
        "trusted": val.trusted,
    }
    _emit(payload, args.out)
    return EXIT_OK if val.trusted else EXIT_NUMERIC


def _verify_one(name, seed, order):
    rep = verify_case(name, seed=seed, order=order)
    return {
        "case": rep.case,
        "delta": list(rep.delta),
        "z": [complex(x) for x in rep.z],
        "order": rep.order,
        "lhs": rep.lhs,
        "rhs": rep.rhs,
        "residual": rep.residual,
        "tol": rep.tol,
        "ok": rep.ok,
    }


def _cmd_verify(args):
    rep = _verify_one(args.case, args.seed, args.order)
    _emit(rep, args.out)
    return EXIT_OK if rep["ok"] else EXIT_RESIDUAL


def _cmd_identities(args):
    if args.degree > _IDENTITIES_MAX_DEGREE:
        raise BadDimensions(f"degree {args.degree} exceeds "
                            f"{_IDENTITIES_MAX_DEGREE}")
    rng = random.Random(args.seed)
    rows = []
    ok = True
    for n in range(1, args.degree + 1):
        a = Fraction(rng.randint(1, 40), 41)
        b = Fraction(rng.randint(1, 40), 43)
        g = Fraction(rng.randint(43, 80), 41)
        dg = exact_coefficient_identity("gauss", n, a, beta=b, gamma=g)
        dk = exact_coefficient_identity("kummer", n, a, gamma=g)
        good = dg == 0 and dk == 0
        ok = ok and good
        rows.append({"degree": n,
                     "alpha": str(a), "beta": str(b), "gamma": str(g),
                     "gauss_defect": str(dg), "kummer_defect": str(dk),
                     "ok": good})
    _emit({"seed": args.seed, "degree": args.degree, "ok": ok,
           "identities": rows}, args.out)
    return EXIT_OK if ok else EXIT_RESIDUAL


def _cmd_report(args):
    reports = [_verify_one(n, args.seed, None) for n in case_names()]
    ok = all(r["ok"] for r in reports)
    _emit({"seed": args.seed, "ok": ok, "cases": reports}, args.out)
    return EXIT_OK if ok else EXIT_RESIDUAL


@functools.cache   # one parser per process; parse_args leaves it unchanged
def build_parser():
    p = argparse.ArgumentParser(
        prog="gkzeuler",
        description="GKZ hypergeometric systems: triangulations, "
                    "Gamma-series, and quadratic relations.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--out", default=None)

    sp = sub.add_parser("triangulate", help="regular triangulation T(omega)")
    sp.add_argument("--config", required=True)
    sp.add_argument("--omega", required=True,
                    help="comma separated integer lifting")
    common(sp)
    sp.set_defaults(func=_cmd_triangulate)

    sp = sub.add_parser("fan-scan",
                        help="sample the secondary fan for distinct "
                             "regular triangulations, listed in discovery "
                             "order")
    sp.add_argument("--config", required=True)
    sp.add_argument("--samples", type=int, default=500)
    common(sp)
    sp.set_defaults(func=_cmd_fan_scan)

    sp = sub.add_parser("ladders", help="enumerate staircase index sets")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--ctilde", default=None,
                    help="comma separated exponents for the exponent map")
    sp.add_argument("--confluent", action="store_true")
    common(sp)
    sp.set_defaults(func=_cmd_ladders)

    sp = sub.add_parser("series", help="evaluate a truncated Gamma-series")
    sp.add_argument("--config", required=True)
    sp.add_argument("--sigma", required=True)
    sp.add_argument("--delta", required=True)
    sp.add_argument("--z", required=True)
    sp.add_argument("--order", type=int, default=40)
    sp.add_argument("--kvec", default=None)
    sp.add_argument("--dual", action="store_true")
    common(sp)
    sp.set_defaults(func=_cmd_series)

    sp = sub.add_parser("verify", help="verify a named quadratic relation")
    sp.add_argument("--case", required=True, choices=case_names())
    sp.add_argument("--order", type=int, default=None)
    common(sp)
    sp.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("identities",
                        help="exact rational coefficient identities")
    sp.add_argument("--degree", type=int, default=12)
    common(sp)
    sp.set_defaults(func=_cmd_identities)

    sp = sub.add_parser("report", help="verify every named case")
    common(sp)
    sp.set_defaults(func=_cmd_report)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _DEGENERATE as exc:
        print(f"degenerate parameters: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except _NUMERIC as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except _BAD_INPUT as exc:
        print(f"bad input: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except GkzError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
