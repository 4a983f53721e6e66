"""Pure arithmetic of the benchmark: percentiles, the rate ladder, residuals.

Everything here works on plain lists of floats so it can be tested on
synthetic inputs without starting a server or training a model.
"""

from __future__ import annotations

import math
import re
import statistics

#: Every metric name the benchmark reports must match this pattern.
METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")

#: A reported percentile must have at least this many samples beyond it.
MIN_SAMPLES_BEYOND = 10


def percentile(values, p: float) -> float:
    """Nearest-rank ``p``-th percentile (0 < p <= 100) of ``values``."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 < p <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {p}")
    ordered = sorted(values)
    rank = math.ceil(p / 100.0 * len(ordered))
    return float(ordered[max(rank, 1) - 1])


def samples_beyond(n: int, p: float) -> int:
    """How many of ``n`` samples lie strictly beyond the nearest-rank ``p``."""
    return n - max(math.ceil(p / 100.0 * n), 1)


def supports(n: int, p: float) -> bool:
    """Whether ``n`` samples support reporting percentile ``p``."""
    return samples_beyond(n, p) >= MIN_SAMPLES_BEYOND


def min_samples(p: float) -> int:
    """Smallest sample count that supports percentile ``p``."""
    n = 1
    while not supports(n, p):
        n += 1
    return n


def tail_percentile(n: int, candidates=(99.9, 99.0, 95.0, 90.0, 75.0, 50.0)):
    """The highest candidate percentile ``n`` samples support, or None."""
    for p in candidates:
        if supports(n, p):
            return p
    return None


def backlog_growing(queue_delays, threshold_s: float) -> bool:
    """Whether the wait before sending grew over a phase.

    ``queue_delays`` are, in due order, how long each request waited
    after its due time before it could be sent.  A system keeping up
    holds that wait flat; one falling behind accumulates a backlog, so
    the last quarter waits longer than the first by more than
    ``threshold_s``.
    """
    n = len(queue_delays)
    if n < 8:
        raise ValueError(f"need at least 8 requests to judge a backlog, got {n}")
    quarter = n // 4
    first = statistics.median(queue_delays[:quarter])
    last = statistics.median(queue_delays[-quarter:])
    return last - first > threshold_s


def rung_passes(latencies_s, failed: int, attempted: int, queue_delays,
                limit_s: float, max_fail_ratio: float,
                backlog_threshold_s: float) -> bool:
    """The ladder's rule for one rate: tail, failures and backlog.

    ``latencies_s`` are the successful requests' times from due to
    response.  A failed request misses the limit, so it is counted
    as an infinite latency in the percentile.
    """
    if attempted < 1 or attempted > len(latencies_s) + failed:
        raise ValueError("attempted must cover every latency and failure")
    if failed / attempted > max_fail_ratio:
        return False
    padded = list(latencies_s) + [math.inf] * (attempted - len(latencies_s))
    if not supports(len(padded), 95.0):
        raise ValueError(
            f"{len(padded)} requests cannot support a p95; need "
            f"{min_samples(95.0)}"
        )
    if percentile(padded, 95.0) > limit_s:
        return False
    return not backlog_growing(queue_delays, backlog_threshold_s)


def ladder_rates(start: float, factor: float, ceiling: float) -> list[float]:
    """Geometric rates ``start * factor**k`` up to ``ceiling``."""
    if start <= 0 or factor <= 1:
        raise ValueError("a ladder needs start > 0 and factor > 1")
    rates = []
    rate = start
    while rate <= ceiling:
        rates.append(rate)
        rate *= factor
    return rates


def search_max_rate(floor: float, rates, resolution: float, probe):
    """Highest sustained rate: climb the ladder, then bisect its last step.

    ``floor`` is a rate already known to pass; ``probe(rate)`` runs one
    rung and returns whether it passed.  The search climbs ``rates``
    until a rung fails, then probes the geometric midpoint between the
    highest pass and the lowest failure until their ratio is at most
    ``resolution``, so the result is within that factor of the true
    limit.  Returns ``(max_rate, [(rate, passed), ...])``.
    """
    if resolution <= 1:
        raise ValueError("resolution must be a ratio above 1")
    verdicts = []
    passed, failed = floor, None
    for rate in rates:
        ok = probe(rate)
        verdicts.append((rate, ok))
        if not ok:
            failed = rate
            break
        passed = rate
    while failed is not None and failed / passed > resolution:
        rate = math.sqrt(passed * failed)
        ok = probe(rate)
        verdicts.append((rate, ok))
        if ok:
            passed = rate
        else:
            failed = rate
    return passed, verdicts


def delivered_rate(sent_s, done_s) -> float:
    """Responses per second a rung delivered: completions over its span.

    ``sent_s`` and ``done_s`` are the send and completion times of the
    rung's answered requests; the span runs from the first send to the
    last completion.  Unlike the offered rate it is measured, so it
    differs from run to run even when the same rung passes.
    """
    if not done_s:
        raise ValueError("a rung without answered requests delivered nothing")
    return len(done_s) / (max(done_s) - min(sent_s))


def residual(total: float, parts) -> float:
    """What ``total`` leaves unattributed after subtracting ``parts``."""
    return total - math.fsum(parts)
