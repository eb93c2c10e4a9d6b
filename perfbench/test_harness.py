"""Tests of the benchmark's own arithmetic.

Run from the root of a checkout: ``python3 -m pytest perfbench``.
"""

import math
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import harness  # noqa: E402
from loop import ClosedLoop  # noqa: E402


def test_percentile_needs_ten_samples_beyond_it():
    values = list(range(1, 1000))  # 999 samples: 9 lie beyond p99
    with pytest.raises(harness.TooFewSamples):
        harness.tail_percentile(values, 0.99)
    value, beyond = harness.tail_percentile(list(range(1, 1001)), 0.99)
    assert (value, beyond) == (990, 10)


def test_failed_requests_count_as_infinitely_late():
    values = [1.0] * 985 + [math.inf] * 15
    value, beyond = harness.tail_percentile(values, 0.99)
    assert value == math.inf and beyond == 10


def test_geomean_of_per_job_medians():
    samples = {"small": [1.0, 100.0, 2.0], "big": [8.0, 8.0, 9.0]}
    # Medians are 2 and 8; their geometric mean is 4.  A pooled
    # median of all six samples would be 8.
    assert harness.geomean_of_medians(samples) == pytest.approx(4.0)
    with pytest.raises(ValueError):
        harness.geomean([1.0, 0.0])


def test_open_loop_latency_is_measured_from_due_time():
    due = [0.0, 1.0, 2.0]
    sent = [0.0, 1.5, 2.0]  # the generator sent the second one late
    done = [0.2, 1.6, None]  # the third failed
    latency, lateness = harness.open_loop_latencies(due, sent, done)
    assert latency[0] == pytest.approx(0.2)
    assert latency[1] == pytest.approx(0.6)  # not 0.1: the stall counts
    assert latency[2] == math.inf
    assert lateness == pytest.approx([0.0, 0.5, 0.0])


def test_poisson_due_times_are_seeded():
    a = harness.poisson_due_times(7, 100.0, 500)
    assert a == harness.poisson_due_times(7, 100.0, 500)
    assert a != harness.poisson_due_times(8, 100.0, 500)
    assert all(x < y for x, y in zip(a, a[1:]))
    assert 500 / a[-1] == pytest.approx(100.0, rel=0.2)


def test_calibration_scaling():
    # A host running the loop at twice the reference time slowed the
    # jobs by 2 ** CALIB_ELASTICITY.
    assert harness.scale_factor([3.0, 3.0, 2.9, 3.1], ref_ms=1.5) == \
        pytest.approx(0.5 ** harness.CALIB_ELASTICITY)
    assert harness.scale_factor([3.0], ref_ms=1.5, elasticity=1.0) == \
        pytest.approx(0.5)
    gaps = iter([[1.0, 1.0], [2.0, 2.0]])
    calibrator = harness.Calibrator(lambda reps: next(gaps), reps=2,
                                    ref_ms=1.5)
    before, after = calibrator.gap(), calibrator.gap()
    # The job between the gaps ran while the loop took 1.5 ms: unscaled.
    assert calibrator.bracket(before, after) == pytest.approx(1.0)
    assert calibrator.calib_ms() == pytest.approx(1.5)


def test_calibration_loop():
    assert harness.calibration_work(200) == harness.calibration_work(200)
    samples = harness.Calibrator(reps=2).gap()
    assert len(samples) == 2 and all(s > 0 for s in samples)


def test_self_time_and_coverage():
    tracer = harness.Tracer(enabled=True)
    spans = [
        {"id": 0, "parent": None, "name": "job", "start": 0.0, "end": 10.0},
        {"id": 1, "parent": 0, "name": "a", "start": 0.0, "end": 6.0},
        {"id": 2, "parent": 1, "name": "b", "start": 1.0, "end": 3.0},
        {"id": 3, "parent": 0, "name": "c", "start": 6.0, "end": 9.0},
    ]
    own = harness.self_times(spans)
    assert own == {0: 1.0, 1: 4.0, 2: 2.0, 3: 3.0}
    assert harness.coverage(spans) == (pytest.approx(0.9),
                                       pytest.approx(0.9))
    assert tracer.call("x", lambda v: v + 1, 1) == 2
    assert [s["name"] for s in tracer.spans] == ["x"]


class _Job:
    def __init__(self, name):
        self.name = name
        self.cls = "test"


def test_one_seed_gives_one_job_list():
    jobs = [_Job(f"j{i}") for i in range(30)]

    def rounds(seed):
        loop = ClosedLoop(jobs, seed, seconds=0, trace=False,
                          calibrator=None)
        return [[j.name for j in loop.next_round()] for _ in range(3)]

    assert rounds(5) == rounds(5)
    assert rounds(5) != rounds(6)
    assert sorted(rounds(5)[0]) == sorted(j.name for j in jobs)


def test_one_seed_gives_one_request_stream():
    import serve_load

    hot = serve_load.hot_set()

    def stream(seed):
        maker = serve_load.RequestMaker(seed, hot)
        return [(r.cls, r.body, r.violation) for r in
                (maker.next() for _ in range(300))]

    assert stream(3) == stream(3)
    assert stream(3) != stream(4)
    # Every run sends the same mix: 300 requests are 15 whole blocks.
    for seed in (3, 4):
        classes = [cls for cls, _b, _v in stream(seed)]
        assert [classes.count(c) for c in ("hit", "variant", "miss")] == \
            [240, 45, 15]
