"""Tests of the benchmark's own code.

Run from the root of a checkout:  python3 -m pytest -q perfbench/test_perfbench.py
"""

import sys
from itertools import islice
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from tracer import Tracer, layer_metrics, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _jobs(workload, seed, n_rounds=3):
    return list(islice(workload.rounds(seed), n_rounds))


# paper_tables runs the same report in every job, whatever the seed.
@pytest.mark.parametrize("name", ["instance_search", "operad_sweep"])
def test_job_list_is_a_function_of_the_seed(name):
    workload = WORKLOADS[name](traced=False)
    assert _jobs(workload, 5) == _jobs(WORKLOADS[name](traced=False), 5)
    assert _jobs(workload, 5) != _jobs(workload, 6)


def test_self_time_on_a_synthetic_span_tree():
    # root [0, 100] holds a [10, 40] (which holds a1 [15, 20]),
    # then b [50, 70] and c [60, 80], which overlap each other.
    parent = [-1, 0, 1, 0, 0]
    start = [0, 10, 15, 50, 60]
    end = [100, 40, 20, 70, 80]
    assert list(self_times(parent, start, end)) == [40, 25, 5, 20, 20]


@pytest.fixture
def tracer():
    t = Tracer()
    t.install()
    yield t
    t.uninstall()


def test_every_binding_gets_the_same_wrapper(tracer):
    from operad_forge import cli, foundation, operad_calculus

    assert operad_calculus.span is foundation.span
    assert cli.span is foundation.span
    assert foundation.span.__wrapped__.__module__ == "operad_forge.foundation"


def test_uninstall_restores_the_originals():
    from operad_forge import foundation, operad_calculus

    original = foundation.span
    t = Tracer()
    t.install()
    t.uninstall()
    assert foundation.span is original
    assert operad_calculus.span is original
    assert not hasattr(foundation.Subspace.reduce, "__wrapped__")


def test_layer_metrics_count_calls_and_repeats(tracer):
    from operad_forge import operad_calculus

    for job in range(2):
        sid = tracer.begin_job(job)
        operad_calculus.preset("leib")
        tracer.end_job(sid)
    metrics = layer_metrics([tracer.dump()], jobs=2)
    assert metrics["operad_calculus.preset.calls"] == (1.0, "count")
    assert metrics["operad_calculus.preset.repeat_frac"] == (0.5, "frac")
    # preset("leib") builds its operad once, from one orbit span.
    assert metrics["operad_calculus.QuadraticOperad.init.calls"][0] == 1.0
    assert metrics["operad_calculus.orbit_span.calls"][0] >= 1.0
    assert metrics["operad_calculus.preset.self_s"][0] > 0
