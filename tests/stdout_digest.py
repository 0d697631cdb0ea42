"""Digest of what the CLI prints for a fixed list of argv.

Prints one line per argv, `sha256  argv`, the sha256 of the JSON array
[exit code, stdout, stderr] of `gkzeuler <argv>`.  The list covers verify
for every case at seeds 0-19 and at orders 0, 2, 8 and 10^20, report, the
series command on gauss and on both cosets of g1's volume-2 simplex (with
and without --dual, and with a non-generic delta, a divergent z and a zero
z, and a z and a delta of the wrong length), a 100-sample fan-scan and one
triangulate of each small configuration, ladders at (k, n) = (2, 5), (3, 7)
and (0, 500), each with and without --ctilde and --confluent, and
identities at degree 20 for seeds 0 and 1 (the exact-rational output).  It
ends with an argv for each way main maps an error (a degenerate lifting, an
omega of the wrong length, a non-integer omega, an unknown config and an
exponent sum that overflows) and one for each integer the output writes as
a decimal string (the report and identities seeds, a negative identities
degree, and an omega entry above 2^53).

All argv run in one process, in list order and then in reverse; the script
exits 1 if any argv prints other bytes the second time, so no output may
depend on what an earlier request left in the caches.  Two trees compare by
running it in each on the same machine and diffing the outputs:

    PYTHONPATH=src python tests/stdout_digest.py > digest.txt

Not a test module: pytest does not collect it.
"""

import contextlib
import hashlib
import io
import json
import sys

from gkzeuler import cli
from gkzeuler.intersection import case_names

_SMALL_CONFIGS = ("g1", "gamma2", "h4", "f1", "phi1", "gauss", "kummer")
_GAUSS = "series --config gauss --sigma 1,2,3 --delta 0.377,0.211,0.613"
_G1 = "series --config g1 --sigma 2,3,4 --delta 0.3,0.2,0.6"
# a lifting per small configuration, each generic for its configuration
_OMEGA = {"g1": "1,11,12,4,10", "gamma2": "1,11,12,4", "h4": "1,11,12,4,10",
          "f1": "1,11,12,4,10,7", "phi1": "2,11,3,9,5", "gauss": "1,11,12,4",
          "kummer": "1,11,12"}


def _ctilde(size):
    return ",".join(f"{0.1 * (1 + (7 * l) % 11) - 0.55:.2f}"
                    for l in range(size))


def argvs():
    out = []
    for case in case_names():
        out += [f"verify --case {case} --seed {seed}" for seed in range(20)]
        out += [f"verify --case {case} --seed 0 --order {order}"
                for order in (0, 2, 8, 10 ** 20)]
    out.append("report --seed 0")
    for dual in ("", " --dual"):
        out.append(f"{_GAUSS} --z 1,1,1,0.21{dual}")
        out += [f"{_G1} --z 1,1,1,1,0.1 --kvec {kvec}{dual}"
                for kvec in ("0,0", "1,0")]
    out += [
        # delta = A_sigma (1, 2, 1): not very generic
        "series --config gauss --sigma 1,2,3 --delta 2,2,1 --z 1,1,1,0.21",
        f"{_GAUSS} --z 1,1,1,50",        # outside the convergence domain
        f"{_GAUSS} --z 0,1,1,0.21",      # z must lie in (C*)^N
        f"{_GAUSS} --z 1,1,0.21",        # z and delta of the wrong length
        "series --config gauss --sigma 1,2,3 --delta 0.377,0.211 "
        "--z 1,1,1,0.21",
    ]
    out += [f"fan-scan --config {name} --samples 100"
            for name in _SMALL_CONFIGS]
    out += [f"triangulate --config {name} --omega {_OMEGA[name]}"
            for name in _SMALL_CONFIGS]
    for k, n in ((2, 5), (3, 7), (0, 500)):
        out += [f"ladders --k {k} --n {n}",
                f"ladders --k {k} --n {n} --confluent",
                f"ladders --k {k} --n {n} --ctilde={_ctilde(n + 1)}",
                f"ladders --k {k} --n {n} --confluent --ctilde={_ctilde(n)}"]
    out += [f"identities --degree 20 --seed {seed}" for seed in (0, 1)]
    out += [
        # an error of each category and each builtin that main maps
        "triangulate --config gamma2 --omega 0,0,0,0",   # degenerate
        "triangulate --config gamma2 --omega 1,2",       # wrong length
        "triangulate --config gamma2 --omega 1,2,x,4",   # ValueError
        "fan-scan --config nosuch",                      # KeyError
        "ladders --k 1 --n 3 --ctilde=1e308,1e308,1e308,1e308",  # overflow
        # integers at or above 2^53, written as decimal strings
        f"identities --degree -{10 ** 20} --seed {10 ** 20}",
        f"report --seed {10 ** 20}",
        f"triangulate --config gauss --omega 1,11,12,{4 * 10 ** 19}",
    ]
    return out


def digest(argv):
    """sha256 of [exit code, stdout, stderr] of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv.split())
    blob = json.dumps([code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(blob.encode()).hexdigest()


def main():
    argv_list = argvs()
    forward = {argv: digest(argv) for argv in argv_list}
    for argv in argv_list:
        print(f"{forward[argv]}  {argv}")
    changed = [argv for argv in reversed(argv_list)
               if digest(argv) != forward[argv]]
    for argv in changed:
        print(f"differs when run in reverse order: {argv}", file=sys.stderr)
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
