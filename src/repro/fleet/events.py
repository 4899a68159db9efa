"""Deterministic event order and canonical event log for the fleet.

The simulator is a time-stepped discrete-event loop; everything that
*happens* comes out of one stream, :func:`event_stream`, in one total
order. Determinism is a contract, not an accident:

* **Integer time.** Event times are integer microseconds
  (``time_us``), never floats — two events that should be simultaneous
  *are* simultaneous, with no epsilon games.
* **Explicit tie-break.** The order is the key
  ``(time_us, kind_rank, seq)``: same-instant events order by kind
  (:data:`EVENT_KIND_RANK` — arrivals are visible to the step that
  dispatches them, so ``arrival`` ranks before ``step``), and
  same-kind same-instant events order by their sequence in the input
  (arrival generation order, then fault-timeline order — both
  deterministic from the seed). Arrivals come in time order and the
  fault timeline is sorted once, stably, on ``(time_us, kind_rank)``,
  so the stream is a two-pointer merge of two pre-sorted lists under
  that key, with one step event per step boundary; no heap is built.
* **Canonical log lines.** :func:`canonical_event_line` renders an
  event dict as sorted-key, compact JSON — the byte form the
  same-seed-twice regression test compares and the result digest
  hashes. The simulator's record shapes render through per-kind
  f-strings that give exactly ``json.dumps``'s bytes; any other dict
  goes through ``json.dumps`` itself.

``tests/test_fleet.py::TestEventQueue`` pins the tie-break and
``TestEventLines`` the line bytes; ``TestDeterminism`` and
``TestBytePins`` pin byte-identical logs across runs, worker counts
and commits.
"""

from __future__ import annotations

import json
import math
from typing import Any, Callable, Iterator, Sequence

from .faults import FLEET_FAULT_KINDS

__all__ = [
    "EVENT_KIND_RANK",
    "canonical_event_line",
    "event_stream",
]

#: Total order over event kinds at equal timestamps. Arrivals rank
#: before the step boundary so a job arriving at exactly t is eligible
#: for dispatch in the step that begins at t; ``stop`` ranks last so
#: same-instant work is processed before the simulation closes.
#: Repairs and faults sit between arrivals and the step: both are
#: visible to the step that begins at the same instant, and ``repair``
#: ranks before ``fault`` so a resource whose repair and (next) fault
#: collide on the same microsecond ends that instant *failed* — the
#: conservative reading, and the one the fault timeline's
#: strictly-alternating schedule already guarantees can only arise
#: between distinct resources.
EVENT_KIND_RANK: dict[str, int] = {
    "arrival": 0,
    "repair": 1,
    "fault": 2,
    "step": 3,
    "stop": 4,
}


def event_stream(arrivals: Sequence, faults: Sequence, step_us: int,
                 n_steps: int) -> Iterator[tuple[int, str, Any]]:
    """Every event of one run as ``(time_us, kind, payload)``, in order.

    Args:
        arrivals: jobs in time order (``time_us`` attribute); payload
            of each ``"arrival"``.
        faults: fault-timeline events in any order (``time_us`` and
            ``action`` attributes, ``action`` ``"fault"`` or
            ``"repair"``); each is the payload of its ``action``.
        step_us: step length; step ``k`` (payload ``k``) is at
            ``k * step_us``.
        n_steps: steps before the ``"stop"`` event at
            ``n_steps * step_us``; nothing after it is yielded.

    The order is ``(time_us, EVENT_KIND_RANK[kind], input sequence)``.
    """
    rank = EVENT_KIND_RANK
    timeline = sorted(faults, key=lambda e: (e.time_us, rank[e.action]))
    n_arr, n_flt = len(arrivals), len(timeline)
    i = j = 0
    for k in range(n_steps + 1):
        t_step = k * step_us
        while True:
            t_a = arrivals[i].time_us if i < n_arr else t_step + 1
            t_f = timeline[j].time_us if j < n_flt else t_step + 1
            if t_a <= t_f and t_a <= t_step:
                yield t_a, "arrival", arrivals[i]
                i += 1
            elif t_f <= t_step:
                fe = timeline[j]
                yield t_f, fe.action, fe
                j += 1
            else:
                break
        if k == n_steps:
            yield t_step, "stop", None
        else:
            yield t_step, "step", k


# --- canonical lines ---------------------------------------------------------
# One renderer per record shape the simulator emits. Each returns the
# line only when the record is exactly that shape with plain int/float
# values (a finite float renders as float.__repr__, as json does) and
# None otherwise, which sends the record to json.dumps. A renderer may
# skip the key check of a key it reads: ``get`` of a missing key gives
# None, which no type test accepts, and the length test rules out
# extra keys.

_FAULT_KINDS = frozenset(FLEET_FAULT_KINDS)
_FAULT_SCOPES = frozenset(FLEET_FAULT_KINDS.values())


def _arrival(r: dict) -> str | None:
    t, job, work = r.get("t_us"), r.get("job"), r.get("work")
    if (len(r) == 4 and type(t) is int and type(job) is int
            and type(work) is float and math.isfinite(work)):
        return (f'{{"ev":"arrival","job":{job},"t_us":{t},'
                f'"work":{float.__repr__(work)}}}')
    return None


def _dispatch(r: dict) -> str | None:
    t, job, tank, board = (r.get("t_us"), r.get("job"), r.get("tank"),
                           r.get("board"))
    if (len(r) == 5 and type(t) is int and type(job) is int
            and type(tank) is int and type(board) is int):
        return (f'{{"board":{board},"ev":"dispatch","job":{job},'
                f'"t_us":{t},"tank":{tank}}}')
    return None


def _complete(r: dict) -> str | None:
    t, job = r.get("t_us"), r.get("job")
    if len(r) == 3 and type(t) is int and type(job) is int:
        return f'{{"ev":"complete","job":{job},"t_us":{t}}}'
    return None


def _fault_or_repair(r: dict) -> str | None:
    t, idx, kind, scope = (r.get("t_us"), r.get("idx"), r.get("kind"),
                           r.get("scope"))
    if not (type(t) is int and type(idx) is int
            and type(kind) is str and kind in _FAULT_KINDS
            and type(scope) is str and scope in _FAULT_SCOPES):
        return None
    head = f'{{"ev":"{r["ev"]}","idx":{idx},"kind":"{kind}",'
    if len(r) == 5:
        return f'{head}"scope":"{scope}","t_us":{t}}}'
    requeued = r.get("requeued")
    if len(r) == 6 and type(requeued) is int:
        return f'{head}"requeued":{requeued},"scope":"{scope}","t_us":{t}}}'
    return None


def _isolate(r: dict) -> str | None:
    t, tank, requeued = r.get("t_us"), r.get("tank"), r.get("requeued")
    if (len(r) == 4 and type(t) is int and type(tank) is int
            and type(requeued) is int):
        return (f'{{"ev":"isolate","requeued":{requeued},"t_us":{t},'
                f'"tank":{tank}}}')
    return None


def _deisolate(r: dict) -> str | None:
    t, tank = r.get("t_us"), r.get("tank")
    if len(r) == 3 and type(t) is int and type(tank) is int:
        return f'{{"ev":"deisolate","t_us":{t},"tank":{tank}}}'
    return None


_RENDERERS: dict[str, Callable[[dict], str | None]] = {
    "arrival": _arrival,
    "dispatch": _dispatch,
    "complete": _complete,
    "fault": _fault_or_repair,
    "repair": _fault_or_repair,
    "isolate": _isolate,
    "deisolate": _deisolate,
}


def canonical_event_line(record: dict[str, Any]) -> str:
    """The canonical byte form of one event-log record.

    Sorted keys, compact separators, no trailing newline — identical
    input dicts give identical bytes, which is the form the
    same-seed regression test and the result digest are stated over.
    Always equal to ``json.dumps(record, sort_keys=True,
    separators=(",", ":"))``; the simulator's own record shapes take a
    per-kind f-string instead of the encoder.
    """
    ev = record.get("ev")
    render = _RENDERERS.get(ev) if type(ev) is str else None
    line = render(record) if render is not None else None
    if line is None:
        line = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return line
