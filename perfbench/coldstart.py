"""One cold start: a fresh interpreter imports gkzeuler.cli and runs the
given requests in order.

    python3 perfbench/coldstart.py '[["verify", "--case", "gauss"], ...]'

Prints one JSON list with [exit code, sha256 of stdout] per request.  The
caller times the whole process.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from gkzeuler import cli  # noqa: E402


def main():
    results = []
    for argv in json.loads(sys.argv[1]):
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            rc = None
        digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
        results.append([rc, digest])
    print(json.dumps(results))


if __name__ == "__main__":
    main()
