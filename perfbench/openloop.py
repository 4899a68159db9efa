"""Open-loop request schedule and its lateness accounting.

An open loop sends each request at its scheduled instant whether or
not earlier ones have finished, the way independent users do. Latency
is measured from the scheduled instant, so a stall in the generator or
the system also charges the requests queued behind it; how late the
generator itself ran is reported separately.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable


def poisson_offsets(rng: random.Random, rate_per_s: float,
                    duration_s: float) -> list[float]:
    """Arrival offsets (seconds from the start) of a Poisson process
    at ``rate_per_s`` over ``[0, duration_s)``."""
    if rate_per_s <= 0 or duration_s <= 0:
        raise ValueError("rate and duration must be positive")
    out: list[float] = []
    t = rng.expovariate(rate_per_s)
    while t < duration_s:
        out.append(t)
        t += rng.expovariate(rate_per_s)
    return out


@dataclass
class Sent:
    """One scheduled send: when it was due, when it went out, how long
    the send call took, and what the call returned (or raised)."""

    due: float
    sent: float
    send_s: float
    value: object = None
    error: BaseException | None = None

    @property
    def lateness_s(self) -> float:
        """How far behind schedule the generator issued this send."""
        return self.sent - self.due


def run_schedule(offsets, send: Callable[[int], object], *,
                 clock: Callable[[], float] = time.monotonic,
                 sleep: Callable[[float], None] = time.sleep,
                 lead_s: float = 0.05) -> list[Sent]:
    """Issue ``send(i)`` at ``start + offsets[i]`` from one thread.

    The generator never waits for a reply. When it falls behind it
    sends at once, and the lateness shows in :attr:`Sent.lateness_s`.
    An exception from ``send`` is recorded on that entry and the
    schedule goes on.
    """
    start = clock() + lead_s
    out: list[Sent] = []
    for i, offset in enumerate(offsets):
        due = start + offset
        wait = due - clock()
        if wait > 0:
            sleep(wait)
        sent = clock()
        try:
            value, error = send(i), None
        except Exception as exc:  # recorded per request, loop goes on
            value, error = None, exc
        out.append(Sent(due=due, sent=sent, send_s=clock() - sent,
                        value=value, error=error))
    return out
