"""Command line interface.

All output is JSON on stdout (or --out FILE).  Complex numbers are encoded
as two-element arrays [re, im]; integers too large for a double are encoded
as decimal strings.  Given the same inputs and seed the output bytes are
identical across runs.

Exit codes: 0 success and 1 residual above tolerance, from the command;
else main reads the code and stderr label off the error's category
(errors): 2 bad input (also KeyError, ValueError and OSError), 3 degenerate
or non-generic parameters, 4 numerical failure (also OverflowError).
"""

import argparse
import functools
import json
import math
import os
import random
import sys
from fractions import Fraction

from .errors import (BadDimensions, BadInput, Degenerate, GkzError,
                     NumericalFailure)
from .config import get_config, load_block_config_json, registry_names
from .triangulation import (_CELLS_MAX, enumerate_ladders,
                            enumerate_regular_triangulations, ladder_exponents,
                            triangulate)
from .series import dual_gamma_series, gamma_series
from .intersection import (case_names, exact_coefficient_identity,
                           verify_case)

EXIT_OK = 0
EXIT_RESIDUAL = 1
EXIT_BAD_INPUT = BadInput.exit_code
EXIT_DEGENERATE = Degenerate.exit_code
EXIT_NUMERIC = NumericalFailure.exit_code

# the exact identities' cost grows steeply with the degree (Fractions of
# growing size): the largest accepted degree takes about 0.5 s in a fresh
# process on a 2-core host (degree 76: 0.47 s, 78: 0.51 s)
_IDENTITIES_MAX_DEGREE = 76


def _int(n):
    """n, or its decimal string when a double cannot hold it exactly."""
    return n if abs(n) < 2 ** 53 else str(n)


def _json(obj):
    """What json cannot write itself: a complex as [re, im], else str(obj)."""
    return [obj.real, obj.imag] if isinstance(obj, complex) else str(obj)


def _emit(payload, out):
    try:
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"),
                          allow_nan=False, default=_json) + "\n"
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
    return tuple(complex(x) for x in text.split(","))


def _ints(text):
    return tuple(int(x) for x in text.split(",")) if text else ()


def _tri_payload(tri):
    return {
        "simplices": [list(s.indices) for s in tri.simplices],
        "volumes": [_int(abs(s.det)) for s in tri.simplices],
        "convergent": tri.convergent,
        "unimodular": tri.unimodular,
        "omega": [_int(w) for w in tri.omega],
    }


def _cmd_triangulate(args):
    cfg = _load_config(args)
    tri = triangulate(cfg, list(_ints(args.omega)))
    _emit({"config": cfg.name, **_tri_payload(tri)}, args.out)
    return EXIT_OK


def _cmd_fan_scan(args):
    cfg = _load_config(args)
    tris = enumerate_regular_triangulations(cfg, samples=args.samples,
                                            seed=args.seed)
    payload = {
        "config": cfg.name,
        "samples": args.samples,
        "count": len(tris),
        "triangulations": [_tri_payload(t) for t in tris],
    }
    _emit(payload, args.out)
    return EXIT_OK


def _cmd_ladders(args):
    ladders = enumerate_ladders(args.k, args.n)
    payload = {
        "k": args.k,
        "n": args.n,
        "count": len(ladders),
        "ladders": ladders,
    }
    if args.ctilde:
        ct = _floats(args.ctilde)
        want = args.n if args.confluent else args.n + 1
        if len(ct) != want:
            raise BadDimensions(f"ctilde needs {want} entries for n={args.n}, "
                                f"got {len(ct)}")
        if not all(math.isfinite(x) for x in ct):
            raise BadDimensions("ctilde needs finite entries")
        if len(ladders) * args.n * (args.k + 1) > _CELLS_MAX:
            raise BadDimensions(f"{len(ladders) * args.n} cells of "
                                f"{args.k + 1} ctilde terms each exceed "
                                f"{_CELLS_MAX} terms")
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


def _cmd_verify(args):
    rep = verify_case(args.case, seed=args.seed, order=args.order)
    _emit(vars(rep), args.out)
    return EXIT_OK if rep.ok else EXIT_RESIDUAL


def _cmd_identities(args):
    if args.degree > _IDENTITIES_MAX_DEGREE:
        raise BadDimensions(f"degree {args.degree} exceeds "
                            f"{_IDENTITIES_MAX_DEGREE}")
    rng = random.Random(args.seed)
    rows = []
    for n in range(1, args.degree + 1):
        a = Fraction(rng.randint(1, 40), 41)
        b = Fraction(rng.randint(1, 40), 43)
        g = Fraction(rng.randint(43, 80), 41)
        dg = exact_coefficient_identity("gauss", n, a, beta=b, gamma=g)
        dk = exact_coefficient_identity("kummer", n, a, gamma=g)
        rows.append({"degree": n,
                     "alpha": str(a), "beta": str(b), "gamma": str(g),
                     "gauss_defect": str(dg), "kummer_defect": str(dk),
                     "ok": dg == 0 and dk == 0})
    ok = all(row["ok"] for row in rows)
    _emit({"seed": _int(args.seed), "degree": _int(args.degree), "ok": ok,
           "identities": rows}, args.out)
    return EXIT_OK if ok else EXIT_RESIDUAL


def _cmd_report(args):
    reports = [verify_case(n, seed=args.seed) for n in case_names()]
    ok = all(r.ok for r in reports)
    _emit({"seed": _int(args.seed), "ok": ok,
           "cases": [vars(r) for r in reports]}, args.out)
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
    except (GkzError, OverflowError, KeyError, ValueError, OSError) as exc:
        kind = type(exc) if isinstance(exc, GkzError) else \
            NumericalFailure if isinstance(exc, OverflowError) else BadInput
        print(f"{kind.label}: {exc}", file=sys.stderr)
        return kind.exit_code


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
