"""Server-Sent-Events framing for live campaign tailing.

The daemon streams each campaign's event log over a single long-lived HTTP
response (``GET /campaigns/<id>/events``) in the standard SSE wire format::

    id: 42
    event: iteration
    data: {"seq": 42, "generation": 0, "iteration": 3, "kind": ..., "payload": ...}

Every *persisted* :class:`~repro.campaigns.store.CampaignEvent` carries its
store sequence number as the SSE ``id``, so the client's last received id is
a durable cursor: reconnect with ``Last-Event-ID: 42`` (or ``?after=42``)
and the stream resumes right after that event — the catch-up portion is
served generation-collapsed (via
:func:`~repro.campaigns.store.replay_events`), so the concatenation of what
a client saw before and after any number of disconnects equals a single
replay of the finished log.  Durable ``reslice`` events from dynamic
campaigns (see :mod:`repro.slices.discovery`) flow through this same
kind-based framing — the SSE ``event:`` field is the stored kind, so
clients subscribe to re-slice boundaries with no extra plumbing, and
``tick`` frames carry the campaign's current ``slice_generation``.

Two unpersisted frame kinds are interleaved and carry **no id** (they never
advance the cursor): ``tick`` frames mirror live
:class:`~repro.campaigns.scheduler.SchedulerTick` progress, and ``end``
closes the stream with the campaign's terminal status (completed, paused,
failed, or draining).  Comment lines (``: ping``) keep idle connections
alive.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any, IO, Iterator

from repro.telemetry import get_registry
from repro.utils.exceptions import ServeError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serve.app import TunerService

#: Frame kinds that end a stream (the ``end`` event's ``data.status``).
END_EVENT = "end"
TICK_EVENT = "tick"

#: How long one SSE wait quantum is; a heartbeat comment is written after
#: ``_HEARTBEAT_QUANTA`` consecutive idle quanta so proxies and the client's
#: read timeout see regular traffic.
_WAIT_QUANTUM = 0.2
_HEARTBEAT_QUANTA = 10


def format_sse_event(
    data: dict[str, Any], event: str | None = None, event_id: int | None = None
) -> str:
    """Render one SSE frame (``id``/``event``/``data`` lines + blank line)."""
    get_registry().counter("serve.sse_frames").inc()
    lines = []
    if event_id is not None:
        lines.append(f"id: {int(event_id)}")
    if event:
        lines.append(f"event: {event}")
    lines.append(f"data: {json.dumps(data, sort_keys=True)}")
    return "\n".join(lines) + "\n\n"


def stream_campaign_events(
    app: "TunerService",
    campaign_id: str,
    after: int = 0,
    include_ticks: bool = True,
    heartbeat: bool = True,
) -> Iterator[str]:
    """Yield SSE frames for one campaign: replayed catch-up, then live tail.

    The generator ends (with an ``end`` frame) when the campaign reaches a
    terminal store status — completed, failed, or paused — or when the
    service starts draining.  ``after`` is the client's cursor (0 streams
    the log from the beginning).
    """
    # Deferred: TunerClient imports this module, and app pulls in the scheduler.
    from repro.serve.app import TERMINAL_STATUSES

    app.store.get_campaign(campaign_id)  # 404 before the stream starts
    cursor = int(after)
    last_tick_seq = 0
    idle_quanta = 0
    catching_up = True
    while True:
        # The catch-up query replays (generation-collapses) the stored log
        # once; every later poll asks the store only for seq > cursor, so an
        # idle open stream costs O(new events) per quantum, not O(log).
        if catching_up:
            events = app.events_since(campaign_id, cursor)
            catching_up = False
        else:
            events = app.events_after(campaign_id, cursor)
        for event in events:
            cursor = max(cursor, event.seq)
            yield format_sse_event(
                event.to_dict(), event=event.kind, event_id=event.seq
            )
        if include_ticks:
            tick = app.last_tick(campaign_id)
            if tick is not None and tick[0] > last_tick_seq:
                last_tick_seq = tick[0]
                yield format_sse_event(tick[1], event=TICK_EVENT)
        status = app.status(campaign_id)
        if status in TERMINAL_STATUSES or app.closing:
            # A final query closes the race between the last append and the
            # status flip (completed events land before the status does).
            for event in app.events_after(campaign_id, cursor):
                cursor = max(cursor, event.seq)
                yield format_sse_event(
                    event.to_dict(), event=event.kind, event_id=event.seq
                )
            yield format_sse_event(
                {
                    "campaign_id": campaign_id,
                    "status": "draining" if app.closing else status,
                    "last_seq": cursor,
                },
                event=END_EVENT,
            )
            return
        if events:
            idle_quanta = 0
        else:
            idle_quanta += 1
            if heartbeat and idle_quanta % _HEARTBEAT_QUANTA == 0:
                yield ": ping\n\n"
        app.wait_for_activity(_WAIT_QUANTUM)


def parse_sse_stream(lines: IO[bytes]) -> Iterator[dict[str, Any]]:
    """Decode an SSE byte stream into ``{"event", "id", "data"}`` dicts.

    The inverse of :func:`format_sse_event`, used by
    :class:`~repro.serve.client.TunerClient`: comment lines are dropped,
    ``data`` is JSON-decoded, and ``id`` is ``None`` for unpersisted frames
    (ticks, end markers).  Raises :class:`ServeError` on malformed frames.
    """
    event: dict[str, Any] = {}
    data_lines: list[str] = []
    for raw in lines:
        line = raw.decode("utf-8").rstrip("\n").rstrip("\r")
        if line.startswith(":"):
            continue
        if line == "":
            if data_lines:
                try:
                    payload = json.loads("\n".join(data_lines))
                except json.JSONDecodeError as error:
                    raise ServeError(
                        f"malformed SSE data frame: {error}"
                    ) from None
                yield {
                    "event": event.get("event", "message"),
                    "id": event.get("id"),
                    "data": payload,
                }
            event, data_lines = {}, []
            continue
        field, _, value = line.partition(":")
        value = value[1:] if value.startswith(" ") else value
        if field == "data":
            data_lines.append(value)
        elif field == "event":
            event["event"] = value
        elif field == "id":
            try:
                event["id"] = int(value)
            except ValueError:
                raise ServeError(f"malformed SSE id {value!r}") from None
