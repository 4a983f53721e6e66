"""The benchmark's arithmetic on synthetic inputs.

Run with ``python -m pytest perfbench/tests`` from the repository root.
"""

import math

import pytest

from perfbench import stats


# -- the percentile rule ------------------------------------------------
def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 95) == 95
    assert stats.percentile(values, 100) == 100
    assert stats.percentile([7.0], 95) == 7.0


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        stats.percentile([], 50)
    with pytest.raises(ValueError):
        stats.percentile([1.0], 0)


@pytest.mark.parametrize("p, n", [(95.0, 200), (90.0, 100), (99.0, 1000), (50.0, 20)])
def test_a_percentile_needs_ten_samples_beyond_it(p, n):
    assert stats.min_samples(p) == n
    assert stats.supports(n, p)
    assert not stats.supports(n - 1, p)
    assert stats.samples_beyond(n, p) == 10


def test_tail_percentile_is_the_highest_supported():
    assert stats.tail_percentile(200) == 95.0
    assert stats.tail_percentile(199) == 90.0
    assert stats.tail_percentile(1000) == 99.0
    assert stats.tail_percentile(19) is None


# -- backlog detection and the ladder's stop rule -----------------------
def test_flat_queueing_is_not_a_backlog():
    delays = [0.001 * (i % 3) for i in range(200)]
    assert not stats.backlog_growing(delays, threshold_s=0.05)


def test_growing_queueing_is_a_backlog():
    # Each request waits 5 ms longer than the one before it.
    delays = [0.005 * i for i in range(200)]
    assert stats.backlog_growing(delays, threshold_s=0.05)


def test_backlog_needs_enough_requests():
    with pytest.raises(ValueError):
        stats.backlog_growing([0.0] * 7, threshold_s=0.05)


def _rung(latency_s, n=200, failed=0, delays=None):
    ok = [latency_s] * (n - failed)
    return dict(latencies_s=ok, failed=failed, attempted=n,
                queue_delays=delays if delays is not None else [0.0] * n,
                limit_s=0.1, max_fail_ratio=0.001, backlog_threshold_s=0.05)


def test_rung_passes_within_limit():
    assert stats.rung_passes(**_rung(0.05))


def test_rung_fails_on_tail_latency():
    assert not stats.rung_passes(**_rung(0.15))


def test_rung_fails_when_the_tail_is_failures():
    # 11 of 200 failed: beyond 0.1% failures, and failures miss the limit.
    args = _rung(0.01, failed=11)
    assert not stats.rung_passes(**args)
    assert not stats.rung_passes(**dict(args, max_fail_ratio=1.0))


def test_rung_fails_on_growing_backlog():
    assert not stats.rung_passes(**_rung(0.02, delays=[0.001 * i for i in range(200)]))


def test_rung_refuses_a_sample_too_small_for_p95():
    with pytest.raises(ValueError):
        stats.rung_passes(**_rung(0.01, n=199))


def test_ladder_rates_are_geometric_and_capped():
    rates = stats.ladder_rates(32.0, 1.6, 200.0)
    assert rates[0] == 32.0
    assert all(b / a == pytest.approx(1.6) for a, b in zip(rates, rates[1:]))
    assert rates[-1] <= 200.0 < rates[-1] * 1.6
    with pytest.raises(ValueError):
        stats.ladder_rates(10.0, 1.0, 100.0)


def _capacity(limit, seen):
    def probe(rate):
        seen.append(rate)
        return rate <= limit
    return probe


@pytest.mark.parametrize("limit", [21.0, 33.0, 45.0, 50.0, 80.0])
def test_search_resolves_the_limit_within_its_resolution(limit):
    seen = []
    best, verdicts = stats.search_max_rate(
        20.0, stats.ladder_rates(32.0, 1.6, 1000.0), 1.07, _capacity(limit, seen))
    assert best <= limit < best * 1.07
    assert [rate for rate, __ in verdicts] == seen
    assert all(ok == (rate <= limit) for rate, ok in verdicts)


def test_search_climbs_no_further_than_the_first_failure():
    seen = []
    stats.search_max_rate(20.0, [32.0, 51.2, 81.92], 1.07, _capacity(45.0, seen))
    assert seen[:2] == [32.0, 51.2] and 81.92 not in seen
    # Every probe after the climb lies inside the last step.
    assert all(32.0 < rate < 51.2 for rate in seen[2:])


def test_search_keeps_the_top_rung_when_nothing_fails():
    best, verdicts = stats.search_max_rate(
        20.0, [32.0, 51.2], 1.07, _capacity(1e9, []))
    assert best == 51.2 and verdicts == [(32.0, True), (51.2, True)]
    with pytest.raises(ValueError):
        stats.search_max_rate(20.0, [32.0], 1.0, _capacity(1e9, []))


def test_delivered_rate_spans_first_send_to_last_completion():
    # 5 requests sent 0.1 s apart, each answered 0.02 s later: 5 / 0.42 s.
    sent = [i * 0.1 for i in range(5)]
    done = [t + 0.02 for t in sent]
    assert stats.delivered_rate(sent, done) == pytest.approx(5 / 0.42)
    # A slower last answer stretches the span, so the rate drops.
    assert stats.delivered_rate(sent, done[:-1] + [0.5]) == pytest.approx(10.0)
    with pytest.raises(ValueError):
        stats.delivered_rate([], [])


# -- residual arithmetic ------------------------------------------------
def test_residual_is_what_parts_leave_over():
    assert stats.residual(10.0, [2.5, 3.5]) == pytest.approx(4.0)
    assert stats.residual(1.0, []) == 1.0
    # fsum keeps many small parts exact.
    assert stats.residual(1.0, [0.1] * 10) == pytest.approx(0.0, abs=1e-15)
    assert math.isclose(stats.residual(3.0, [1.0, 2.5]), -0.5)
