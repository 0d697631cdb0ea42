"""Benchmark of the gkzeuler CLI.

    python3 perfbench/run.py --workload relations --seed 0 --seconds 40 \
        --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  Each workload is a closed loop with one client in one process:
every request is a CLI command run in-process through
``gkzeuler.cli.main(argv)``, so argument parsing, JSON encoding and exit
codes are part of the request.  Workloads (see workloads.py):

  relations     verify --case <c> over the eight named quadratic relations
  fan-scan      fan-scan --config <c> --samples <S> over nine configurations

With --trace 0 the run measures end-to-end metrics:

  setup_s          median wall time of SETUP_REPEATS fresh interpreters
                   that import gkzeuler.cli and run one small cold request
                   per configuration the workload uses
  throughput_rps   completed requests / wall time spent in requests
  latency_p50_s    median request wall time
  latency_tail_s   the highest percentile with at least 10 requests beyond
                   it (the 11th slowest request; the stderr report names the
                   percentile and the request's case or configuration)
  peak_rss_mb      ru_maxrss of the benchmark process after the timed loop
  accuracy_digits  min over checked requests of -log10(relative error)
                   against the workload's reference, capped at the 15.95
                   digits of float64 (exact results score the cap)

The four time metrics are scaled to a reference host speed.  On a shared
host the same code runs up to 1.7x slower at times, which swamps changes to
the program.  So a fixed probe (exact rational and
numpy/scipy work like the program's that does not touch gkzeuler,
``probe``) runs after every request, and each request time is multiplied by
PROBE_S / (mean probe time of the run): the metrics read in seconds of a
host on which the probe takes PROBE_S.  Each cold start is scaled the same
way by the probes run just before and just after it.  The host flips
between a fast and a slow state every few seconds, so probe times are
bimodal; their mean (trimmed of outliers) follows the share of time spent
in each state, where a median would jump from one state to the other.  The
report in .perfbench/ keeps the unscaled values.

The timed loop runs whole cycles of the request stream until --seconds of
request time have passed.  With --trace 1 the run replays the first
TRACE_CYCLES cycles, each request once plainly and once with every public
gkzeuler function wrapped (tracer.py), and reports per-layer metrics;
those times are not scaled.

Every request's output is checked after the timed window, and the sha256 of
its stdout is compared with every earlier run in this checkout that sent the
same argv (the CLI promises byte-identical output), and with the cold
starts.  Per-run details and trace spans go to .perfbench/.  The last line
of stdout is one JSON object: correct, attempted, failed, metrics.
"""

import argparse
import contextlib
import hashlib
import importlib.metadata
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
from scipy.special import gammaln, loggamma

from tracer import LAYERS, Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 7
# the probe's mean time on the 2-core host the baseline was measured on
PROBE_S = 0.005
# probes run before and again after each cold start
PROBES_PER_COLD_START = 10
# cycles a traced run replays; fixed, so that its counts repeat exactly for
# a given seed
TRACE_CYCLES = {"relations": 2, "fan-scan": 1}
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS")


def _import_program():
    src = ROOT / "src"
    if not (src / "gkzeuler" / "cli.py").is_file():
        sys.exit(f"perfbench: no gkzeuler sources under {src}")
    sys.path.insert(0, str(src))
    import gkzeuler.cli
    if Path(gkzeuler.__file__).resolve().parent != src / "gkzeuler":
        sys.exit(f"perfbench: imported gkzeuler from {gkzeuler.__file__}, "
                 f"not from {src}")
    return gkzeuler.cli


def environment(threads_was_set):
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "mpmath": version("mpmath"),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": _git_sha(),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "GKZ_EULER_THREADS": "unset (removed by the benchmark)"
                             if threads_was_set else "unset",
    }


def _git_sha():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def execute(cli, argv):
    """Run one request in-process: (exit code, stdout, stderr, seconds).
    The exit code is None when an exception escaped cli.main."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(argv))
    except SystemExit as exc:            # argparse rejected the argv
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:             # a traceback the CLI let through
        rc = None
        err.write(f"{type(exc).__name__}: {exc}")
    seconds = time.perf_counter() - t0
    return rc, out.getvalue(), err.getvalue(), seconds


# probe data: a 3x9 integer matrix, four rational 3x3 matrices, and a 4x4
# real matrix with four complex logarithms
PROBE_A = [[1, 0, 0, 1, 1, 2, 1, 0, 3], [0, 1, 0, 1, 2, 1, 0, 1, 1],
           [0, 0, 1, 1, 1, 1, 2, 3, 1]]
PROBE_INV = [[[Fraction(3 * i + j + k + 1, (i + 2 * j + k) % 5 + 1)
               for j in range(3)] for i in range(3)] for k in range(4)]
PROBE_C = np.array([[0.5, -1.0, 2.0, 1.0], [1.5, 0.25, -1.0, 0.5],
                    [-0.5, 1.0, 1.0, 2.0], [1.0, 1.0, -2.0, 0.75]])
PROBE_LOGX = np.array([-1.0 + 0.3j, -2.0, -1.5 - 0.2j, -1.0 - 0.7j])


def _shell(dim, degree):
    if dim == 1:
        yield (degree,)
        return
    for k in range(degree, -1, -1):
        for rest in _shell(dim - 1, degree - k):
            yield (k,) + rest


def probe():
    """Seconds taken by a fixed piece of work of the program's two kinds:
    rational rays tested against simplicial cones, as in the triangulation
    check, and Gamma-series terms summed over lattice shells, as in the
    series layer."""
    t0 = time.perf_counter()
    rng = random.Random(0)
    hits = 0
    for _ in range(8):
        lam = [Fraction(rng.randint(1, 1000), rng.randint(1, 7))
               for _ in range(9)]
        ray = [sum(row[j] * lam[j] for j in range(9)) for row in PROBE_A]
        for inv in PROBE_INV:
            x = [sum(row[j] * ray[j] for j in range(3)) for row in inv]
            hits += all(v > 0 for v in x)
    total = 0j
    for degree in range(1, 9):
        W = np.array(list(_shell(4, degree)), dtype=float)
        E = 0.63 - W @ PROBE_C.T + 0.01j
        logt = (W @ PROBE_LOGX - gammaln(W + 1.0).sum(axis=1)
                - loggamma(E).sum(axis=1))
        total += complex(np.exp(logt).sum())
    return time.perf_counter() - t0


def trimmed_mean(values, cut=0.1):
    """Mean of values without the lowest and highest `cut` share."""
    ordered = sorted(values)
    k = int(len(ordered) * cut)
    return statistics.fmean(ordered[k:len(ordered) - k])


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def cold_starts(requests):
    """SETUP_REPEATS fresh interpreters; returns (seconds, scale,
    [[rc, sha]...]) per start, where scale is PROBE_S over the median of the
    probes run just before and just after the start."""
    payload = json.dumps([list(r.argv) for r in requests])
    starts = []
    after = [probe() for _ in range(PROBES_PER_COLD_START)]
    for _ in range(SETUP_REPEATS):
        before = after
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, str(HERE / "coldstart.py"),
                               payload], cwd=ROOT, capture_output=True,
                              text=True, timeout=25)
        seconds = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"cold start failed: {proc.stderr.strip()}")
        after = [probe() for _ in range(PROBES_PER_COLD_START)]
        starts.append((seconds, PROBE_S / trimmed_mean(before + after),
                       json.loads(proc.stdout)))
    return starts


class Ledger:
    """Outcome of every request a run sends."""

    def __init__(self, workload):
        self.workload = workload
        self.records = []         # (request, rc, stdout, seconds)
        self.failures = []        # (argv, reason), one per failed check
        self.problems = []        # run-level faults, outside any request
        self.digits = []

    def add(self, req, rc, stdout, stderr, seconds):
        self.records.append((req, rc, stdout, seconds))
        if rc != 0:
            self.failures.append((req.argv, f"exit {rc}: {stderr.strip()}"))

    def check(self):
        """Per-request checks; run after the timed window."""
        for req, rc, stdout, _ in self.records:
            if rc != 0:
                continue
            ok, d = self.workload.check(req, rc, stdout)
            if not ok:
                self.failures.append((req.argv, "output check failed"))
            if d is not None:
                self.digits.append(d)

    @property
    def failed(self):
        return len({argv for argv, _ in self.failures})


class DigestStore:
    """sha256 of stdout per argv, kept across runs in this checkout.  The
    file is read only in save(), after the run has measured its memory."""

    def __init__(self, workload_name):
        self.path = OUT / f"digests-{workload_name}.json"
        self.seen = []            # (argv as one string, digest)

    def see(self, argv, digest):
        self.seen.append((" ".join(argv), digest))

    def save(self):
        """Add this run's digests; return the argvs whose stdout differs
        from an earlier run or from another request of this run."""
        known = json.loads(self.path.read_text()) \
            if self.path.is_file() else {}
        mismatches = [key for key, digest in self.seen
                      if known.setdefault(key, digest) != digest]
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(known, sort_keys=True))
        os.replace(tmp, self.path)
        return mismatches


def metric(value, unit):
    return {"value": value, "unit": unit}


def tail(latencies):
    """(name, index) of the highest percentile with at least 10 requests
    beyond it: the 11th slowest request."""
    n = len(latencies)
    rank = max(n - 10, 1)
    index = sorted(range(n), key=latencies.__getitem__)[rank - 1]
    return f"p{100.0 * rank / n:.1f}", index


def warm_up(cli, workload, store, ledger):
    """Run the cold requests in this process, so per-configuration caches
    are filled before timing starts; returns [[rc, sha256]] per request."""
    results = []
    for req in workload.cold_requests():
        rc, out, err, _ = execute(cli, req.argv)
        store.see(req.argv, sha256(out))
        if rc != 0:
            ledger.problems.append(f"cold request {' '.join(req.argv)} "
                                   f"exit {rc}: {err.strip()}")
        results.append([rc, sha256(out)])
    return results


def run_plain(cli, workload, seconds, store, ledger, report):
    starts = cold_starts(workload.cold_requests())
    warm = warm_up(cli, workload, store, ledger)
    if any(results != warm for _, _, results in starts):
        ledger.problems.append("a cold start printed other bytes than the "
                               "same requests in this process")

    latencies, probes = [], []
    index = 0
    while sum(latencies) < seconds:
        for req in workload.cycle(index):
            rc, out, err, dt = execute(cli, req.argv)
            ledger.add(req, rc, out, err, dt)
            latencies.append(dt)
            probes.append(probe())
        index += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    for req, rc, out, _ in ledger.records:
        store.see(req.argv, sha256(out))
    ledger.check()
    scale = PROBE_S / trimmed_mean(probes)
    busy = sum(latencies)
    tail_name, tail_index = tail(latencies)
    tail_value = latencies[tail_index]
    p50 = statistics.median(latencies)
    report.update(cycles=index, tail_percentile=tail_name,
                  tail_case=ledger.records[tail_index][0].tag,
                  setup_runs_s=[s for s, _, _ in starts],
                  setup_scales=[k for _, k, _ in starts], scale=scale,
                  probe_mean_s=trimmed_mean(probes),
                  probe_quartiles_s=statistics.quantiles(probes, n=4),
                  unscaled={"setup_s": statistics.median(
                                s for s, _, _ in starts),
                            "throughput_rps": len(latencies) / busy,
                            "latency_p50_s": p50,
                            "latency_tail_s": tail_value})
    return {
        "setup_s": metric(statistics.median(s * k for s, k, _ in starts),
                          "s"),
        "throughput_rps": metric(len(latencies) / (busy * scale),
                                 "requests/s"),
        "latency_p50_s": metric(p50 * scale, "s"),
        "latency_tail_s": metric(tail_value * scale, "s"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
        "accuracy_digits": metric(min(ledger.digits), "digits"),
    }


def run_traced(cli, workload, store, ledger, report, spans_path):
    warm_up(cli, workload, store, ledger)
    deck = [req for i in range(TRACE_CYCLES[workload.name])
            for req in workload.cycle(i)]

    # each request runs plainly and traced, back to back so that both sides
    # of the overhead ratio see the same machine load, and in alternating
    # order so that neither side always finds the caches warm
    tracer = Tracer()
    plain, traced = [], []
    for i, req in enumerate(deck):
        if i % 2 == 0:
            plain.append(execute(cli, req.argv))
        tracer.request, tracer.tag = i, req.tag
        tracer.install()
        try:
            traced.append(execute(cli, req.argv))
        finally:
            tracer.uninstall()
        if i % 2 == 1:
            plain.append(execute(cli, req.argv))
    plain_wall = sum(dt for _, _, _, dt in plain)
    traced_wall = sum(dt for _, _, _, dt in traced)

    for req, (rc, out, err, dt), (rc2, out2, _, _) in zip(deck, plain, traced):
        ledger.add(req, rc, out, err, dt)
        store.see(req.argv, sha256(out))
        if (rc2, out2) != (rc, out):
            ledger.failures.append((req.argv, "tracing changed the output"))
    ledger.check()
    tracer.write_spans(spans_path)

    self_s = tracer.layer_self_s()
    calls = tracer.layer_calls()
    counts = tracer.counts
    report.update(
        traced_requests=len(deck), plain_wall_s=plain_wall,
        traced_wall_s=traced_wall,
        unattributed_s=traced_wall - sum(self_s.values()),
        self_s_by_tag={t: tracer.layer_self_s(t) for t in tracer.tags()},
        calls_by_function=tracer.calls, counters=counts,
        spans=len(tracer.span_name))

    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = metric(self_s[layer], "s")
        metrics[f"{layer}.calls"] = metric(calls[layer], "count")
    terms = counts.get("series.terms", 0)
    values = counts.get("series.values", 0)
    liftings = counts.get("triangulation.liftings", 0)
    metrics.update({
        "series.terms": metric(terms, "count"),
        "series.terms_per_s": metric(
            terms / self_s["series"] if self_s["series"] else 0.0, "1/s"),
        "series.untrusted_share": metric(
            counts.get("series.untrusted", 0) / values if values else 0.0,
            "ratio"),
        "triangulation.triangulate.calls": metric(
            tracer.calls["triangulation.triangulate"], "count"),
        "triangulation.triangulate.rejected": metric(
            counts.get("triangulation.triangulate.rejected", 0), "count"),
        "triangulation.distinct_per_lifting": metric(
            counts.get("triangulation.distinct", 0) / liftings
            if liftings else 0.0, "ratio"),
        "intlinalg.rat_inverse.calls": metric(
            tracer.calls["intlinalg.rat_inverse"], "count"),
        "intlinalg.det_bareiss.calls": metric(
            tracer.calls["intlinalg.det_bareiss"], "count"),
        "config.is_very_generic.calls": metric(
            tracer.calls["config.is_very_generic"], "count"),
        "trace.overhead_share": metric(traced_wall / plain_wall - 1.0,
                                       "ratio"),
    })
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    threads_was_set = os.environ.pop("GKZ_EULER_THREADS", None) is not None
    cli = _import_program()
    workload = WORKLOADS[args.workload](args.seed)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    store = DigestStore(args.workload)
    ledger = Ledger(workload)
    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": environment(threads_was_set)}
    if args.trace:
        metrics = run_traced(cli, workload, store, ledger, report,
                             OUT / f"spans-{stem}.npz")
    else:
        metrics = run_plain(cli, workload, args.seconds, store, ledger,
                            report)
    ledger.problems += [f"stdout differs from an earlier run: {key}"
                        for key in store.save()]
    result = {"correct": not ledger.failures and not ledger.problems,
              "attempted": len(ledger.records),
              "failed": ledger.failed,
              "metrics": metrics}
    report.update(result=result, failures=ledger.failures[:50],
                  problems=ledger.problems[:50],
                  requests=[[" ".join(r.argv), rc, round(dt, 6), sha256(out)]
                            for r, rc, out, dt in ledger.records])
    (OUT / f"{stem}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, sort_keys=True) + "\n")

    for argv, reason in ledger.failures[:5]:
        print(f"FAILED {' '.join(argv)[:160]}: {reason[:300]}",
              file=sys.stderr)
    for problem in ledger.problems[:5]:
        print(f"PROBLEM {problem[:400]}", file=sys.stderr)
    extra = f" ({report['tail_percentile']}, {report['tail_case']})" \
        if "tail_percentile" in report else ""
    for name, m in metrics.items():
        print(f"{args.workload:>12} {name:<36} {m['value']:>14.6g} "
              f"{m['unit']}{extra if name == 'latency_tail_s' else ''}",
              file=sys.stderr)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
