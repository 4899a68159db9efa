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
  event record as sorted-key, compact JSON — the byte form the
  same-seed-twice regression test compares and the result digest
  hashes. Each of the seven kinds the simulator emits has one f-string
  that gives exactly ``json.dumps``'s bytes; a record of any other
  kind, or with a key missing or extra, raises.

``tests/test_fleet.py::TestEventQueue`` pins the tie-break and
``TestEventLines`` the line bytes; ``TestDeterminism`` and
``TestBytePins`` pin byte-identical logs across runs, worker counts
and commits.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, Sequence

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
# One f-string per kind the simulator emits: sorted keys, ints as str and
# floats as float.__repr__, as json.dumps writes them. A missing key is
# a KeyError, an extra one fails the length test; values are unchecked.


def _arrival(r: dict) -> str:
    if len(r) != 4:
        raise ValueError("a key too many")
    return (f'{{"ev":"arrival","job":{r["job"]},"t_us":{r["t_us"]},'
            f'"work":{float.__repr__(r["work"])}}}')


def _dispatch(r: dict) -> str:
    if len(r) != 5:
        raise ValueError("a key too many")
    return (f'{{"board":{r["board"]},"ev":"dispatch","job":{r["job"]},'
            f'"t_us":{r["t_us"]},"tank":{r["tank"]}}}')


def _complete(r: dict) -> str:
    if len(r) != 3:
        raise ValueError("a key too many")
    return f'{{"ev":"complete","job":{r["job"]},"t_us":{r["t_us"]}}}'


def _fault_or_repair(r: dict) -> str:
    head = f'{{"ev":"{r["ev"]}","idx":{r["idx"]},"kind":"{r["kind"]}",'
    tail = f'"scope":"{r["scope"]}","t_us":{r["t_us"]}}}'
    if len(r) == 5:
        return head + tail
    if len(r) == 6:
        return f'{head}"requeued":{r["requeued"]},{tail}'
    raise ValueError("a key too many")


def _isolate(r: dict) -> str:
    if len(r) != 4:
        raise ValueError("a key too many")
    return (f'{{"ev":"isolate","requeued":{r["requeued"]},'
            f'"t_us":{r["t_us"]},"tank":{r["tank"]}}}')


def _deisolate(r: dict) -> str:
    if len(r) != 3:
        raise ValueError("a key too many")
    return f'{{"ev":"deisolate","t_us":{r["t_us"]},"tank":{r["tank"]}}}'


_RENDERERS: dict[str, Callable[[dict], str]] = {
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

    Sorted keys, compact separators, no trailing newline: the bytes
    ``json.dumps(record, sort_keys=True, separators=(",", ":"))`` gives
    for the simulator's records, written by one f-string per kind.
    Identical records give identical bytes, which is the form the
    same-seed regression test and the result digest are stated over.

    Raises:
        ValueError: the record is of no kind the simulator emits, or
            has a key missing or one too many.
    """
    try:
        return _RENDERERS[record["ev"]](record)
    except (KeyError, ValueError) as exc:
        raise ValueError(f"not a fleet event record: {record!r}") from exc
