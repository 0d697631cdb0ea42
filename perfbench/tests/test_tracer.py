"""Self-test of the benchmark's trace wrappers, one request per workload:
installing the wrappers leaves stdout bytes unchanged, and the per-layer
self times add up to the traced request's wall time within 2%.

    python3 -m pytest perfbench/tests
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402
from workloads import REFERENCE, WORKLOADS  # noqa: E402

from gkzeuler import cli, intlinalg, series  # noqa: E402

# wall time outside the outermost wrapper (stdout redirection, the call into
# the wrapper) is not attributed to any layer
MARGIN = 0.02

# a light request of each workload's first cycle
TAGS = {"relations": "f1", "fan-scan": "gamma2"}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tracing_keeps_stdout_and_accounts_for_wall_time(name):
    workload = WORKLOADS[name](0)
    req = next(r for r in workload.cycle(0) if r.tag == TAGS[name])
    rc, out, _, _ = run.execute(cli, req.argv)

    tracer = Tracer()
    tracer.install()
    try:
        traced_rc, traced_out, _, seconds = run.execute(cli, req.argv)
    finally:
        tracer.uninstall()

    assert rc == 0 and workload.check(req, rc, out)[0]
    assert (traced_rc, traced_out) == (rc, out)
    self_s = tracer.layer_self_s()
    assert set(self_s) == set(LAYERS)
    assert abs(sum(self_s.values()) - seconds) <= MARGIN * seconds
    assert tracer.calls["cli.main"] == 1
    assert len(tracer.span_name) == sum(tracer.calls.values())


def test_install_rebinds_every_alias_and_uninstall_restores():
    main, verify_case = cli.main, cli.verify_case
    make_simplex = series.make_simplex
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.main is not main
        assert cli.verify_case is not verify_case     # alias in cli
        assert series.make_simplex is not make_simplex
        # generators stay unwrapped
        assert intlinalg.graded_lex_vectors.__name__ == "graded_lex_vectors"
        assert not hasattr(intlinalg.graded_lex_vectors, "__wrapped__")
    finally:
        tracer.uninstall()
    assert (cli.main, cli.verify_case, series.make_simplex) == \
        (main, verify_case, make_simplex)


def test_tail_is_the_eleventh_slowest():
    latencies = [float((7 * x) % 100) for x in range(100)]
    name, index = run.tail(latencies)
    assert (name, latencies[index]) == ("p90.0", 89.0)


def test_reference_agrees_with_pinned_fan_scan_counts():
    # tests/test_acceptance.py::test_fan_scan_counts_and_flags
    counts = {name: len(tris) for name, tris in REFERENCE["fan_scan"].items()}
    assert {k: counts[k] for k in ("g1", "gamma2", "h4")} == \
        {"g1": 5, "gamma2": 3, "h4": 4}
