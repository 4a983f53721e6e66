"""Span nesting, self times and patching of :class:`perfbench.tracer.Tracer`."""

import threading

import pytest

from perfbench.tracer import Tracer


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class Layers:
    """A toy program: ``outer`` calls ``inner`` twice."""

    def __init__(self, clock):
        self.clock = clock

    def inner(self):
        self.clock.now += 2.0
        return "inner"

    def outer(self):
        self.clock.now += 1.0
        self.inner()
        self.inner()
        self.clock.now += 3.0
        return "outer"

    def batches(self):
        for value in range(3):
            self.clock.now += 0.5
            yield value


@pytest.fixture
def traced():
    clock = FakeClock()
    tracer = Tracer(clock)
    tracer.wrap(Layers, "outer", "outer")
    tracer.wrap(Layers, "inner", "inner")
    tracer.wrap(Layers, "batches", "data", iterate=True)
    yield tracer, Layers(clock), clock
    tracer.restore()


def test_self_time_excludes_traced_children(traced):
    tracer, program, __ = traced
    tracer.phase = "train"
    assert program.outer() == "outer"
    phases = tracer.summary()["phases"]["train"]
    assert phases["outer"]["total_s"] == 8.0
    assert phases["outer"]["self_s"] == 4.0
    assert phases["inner"]["self_s"] == 4.0
    assert phases["inner"]["calls"] == 2
    # Self times add up to the wall time of the outermost span.
    assert sum(v["self_s"] for v in phases.values()) == 8.0
    assert tracer.spans == 3


def test_nothing_is_recorded_without_a_phase(traced):
    tracer, program, __ = traced
    program.outer()
    assert tracer.summary() == {"phases": {}, "spans": 0}


def test_iterator_steps_are_spans(traced):
    tracer, program, __ = traced
    tracer.phase = "train"
    assert list(program.batches()) == [0, 1, 2]
    data = tracer.summary()["phases"]["train"]["data"]
    # Three yielded items plus the step that found the end.
    assert data["calls"] == 4
    assert data["self_s"] == pytest.approx(1.5)


def test_counters_and_kept_durations(traced):
    tracer, program, __ = traced
    tracer.keep_durations("inner")
    tracer.phase = "serve"
    program.outer()
    tracer.count("bytes", 10)
    tracer.count("bytes", 5)
    phase = tracer.summary()["phases"]["serve"]
    assert phase["inner"]["durations_s"] == [2.0, 2.0]
    assert phase["bytes"]["count"] == 15


def test_restore_puts_the_originals_back():
    original = Layers.outer
    tracer = Tracer(FakeClock())
    tracer.wrap(Layers, "outer", "outer")
    assert Layers.outer is not original
    tracer.restore()
    assert Layers.outer is original


def test_an_instance_patch_traces_only_that_instance():
    clock = FakeClock()
    tracer = Tracer(clock)
    mine, other = Layers(clock), Layers(clock)
    tracer.wrap(mine, "inner", "inner")
    tracer.phase = "p"
    mine.inner()
    other.inner()
    assert tracer.summary()["phases"]["p"]["inner"]["calls"] == 1
    tracer.restore()
    assert "inner" not in vars(mine)


def test_spans_nest_per_thread():
    tracer = Tracer()
    tracer.phase = "serve"
    barrier = threading.Barrier(2)

    def work():
        tracer.begin("request")
        barrier.wait(timeout=5)
        tracer.end()

    threads = [threading.Thread(target=work) for __ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=5)
        assert not thread.is_alive()
    request = tracer.summary()["phases"]["serve"]["request"]
    assert request["calls"] == 2
    # Neither thread's span became the other's child.
    assert request["self_s"] == pytest.approx(request["total_s"])


def test_calibration_is_a_small_positive_cost():
    cost = Tracer().calibrate(calls=2000)
    assert 0.0 <= cost < 1e-3
