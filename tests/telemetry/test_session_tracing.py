"""Session-level tracing: span trees, scope routing, and byte identity.

The load-bearing guarantee lives here: a traced run and an untraced run of
the same tuner produce byte-identical results, on the serial executor and
on the process pool (whose workers ship their spans back with the job
results).
"""

from __future__ import annotations

from repro.acquisition.source import GeneratorDataSource
from repro.core.tuner import SliceTuner, SliceTunerConfig
from repro.engine.executor import ProcessPoolExecutor


def make_tuner(task, fast_training, fast_curves, executor=None) -> SliceTuner:
    """One deterministically seeded tuner on a fresh dataset instance."""
    sliced = task.initial_sliced_dataset(30, 50, random_state=0)
    source = GeneratorDataSource(task, random_state=1)
    return SliceTuner(
        sliced,
        source,
        trainer_config=fast_training,
        curve_config=fast_curves,
        config=SliceTunerConfig(evaluation_trials=1, max_iterations=4),
        random_state=0,
        executor=executor,
    )


def run_result_json(task, fast_training, fast_curves, executor=None) -> str:
    tuner = make_tuner(task, fast_training, fast_curves, executor=executor)
    session = tuner.session()
    for _ in session.stream(budget=60, strategy="moderate"):
        pass
    return session.result().to_json()


def assert_lockstep_spans_cover_every_executed_job(spans) -> None:
    """Each wave of two or more executed jobs trains under ``engine.lockstep``.

    Every job here is a softmax regression under Adam, so all of a wave's
    executed jobs share one lockstep call; a lone job trains through
    ``Trainer.fit`` and opens no lockstep span.
    """
    by_id = {span.span_id: span for span in spans}
    lanes_by_submit: dict[str, int] = {}
    for span in spans:
        if span.name == "engine.lockstep":
            parent = by_id[span.parent_id]
            assert parent.name == "engine.submit"
            assert span.attributes["ticks"] > 0
            assert span.attributes["examples"] >= span.attributes["ticks"]
            lanes_by_submit[parent.span_id] = (
                lanes_by_submit.get(parent.span_id, 0) + span.attributes["lanes"]
            )
    stacked = {
        span.span_id: span.attributes["executed"]
        for span in spans
        if span.name == "engine.submit" and span.attributes["executed"] > 1
    }
    assert stacked
    assert lanes_by_submit == stacked


class TestByteIdentity:
    def test_serial_traced_equals_untraced(
        self, tiny_task, fast_training, fast_curves, live_tracer
    ):
        from repro.telemetry import set_tracer

        tracer, sink = live_tracer
        traced = run_result_json(tiny_task, fast_training, fast_curves)
        assert len(sink.spans()) > 0  # tracing was actually on
        assert_lockstep_spans_cover_every_executed_job(sink.spans())
        previous = set_tracer(None)
        try:
            untraced = run_result_json(tiny_task, fast_training, fast_curves)
        finally:
            set_tracer(previous)
        assert traced == untraced

    def test_process_pool_traced_equals_untraced(
        self, tiny_task, fast_training, fast_curves, live_tracer
    ):
        from repro.telemetry import set_tracer

        tracer, sink = live_tracer
        with ProcessPoolExecutor(max_workers=2) as executor:
            traced = run_result_json(
                tiny_task, fast_training, fast_curves, executor=executor
            )
        job_spans = [s for s in sink.spans() if s.name == "engine.job"]
        assert job_spans  # workers shipped their spans back
        previous = set_tracer(None)
        try:
            untraced = run_result_json(tiny_task, fast_training, fast_curves)
        finally:
            set_tracer(previous)
        assert traced == untraced
        # The untraced serial run above trained its waves in lockstep; the
        # traced pool run trained one job per worker task.  Same bytes.
        pool_spans = len(sink.spans())
        serial_traced = run_result_json(tiny_task, fast_training, fast_curves)
        assert serial_traced == traced
        assert_lockstep_spans_cover_every_executed_job(sink.spans()[pool_spans:])


class TestSpanTree:
    def test_iterations_form_a_well_nested_tree(
        self, tiny_task, fast_training, fast_curves, live_tracer
    ):
        _, sink = live_tracer
        run_result_json(tiny_task, fast_training, fast_curves)
        spans = sink.spans()
        by_id = {span.span_id: span for span in spans}
        iterations = [s for s in spans if s.name == "session.iteration"]
        assert iterations
        assert [s.baggage["iteration"] for s in iterations] == list(
            range(1, len(iterations) + 1)
        )
        # Every acquisition span sits under exactly one iteration span (or
        # the iteration-0 top-up) of the same scope.
        scopes = {s.baggage.get("scope") for s in iterations}
        assert len(scopes) == 1
        for span in spans:
            if span.name in ("acquisition.fulfill", "engine.submit"):
                parent = by_id.get(span.parent_id)
                assert parent is not None, span
                assert parent.name in ("session.iteration", "session.top_up")
                assert span.baggage.get("scope") == parent.baggage.get("scope")
            if span.name == "acquisition.provider":
                parent = by_id.get(span.parent_id)
                assert parent is not None and parent.name == "acquisition.fulfill"

    def test_on_span_hook_sees_only_its_own_sessions_spans(
        self, tiny_task, fast_training, fast_curves, live_tracer
    ):
        first_tuner = make_tuner(tiny_task, fast_training, fast_curves)
        second_tuner = make_tuner(tiny_task, fast_training, fast_curves)
        first_seen, second_seen = [], []
        first = first_tuner.session()
        first.on_span(first_seen.append)
        second = second_tuner.session()
        second.on_span(second_seen.append)
        for _ in first.stream(budget=60, strategy="moderate"):
            pass
        for _ in second.stream(budget=60, strategy="moderate"):
            pass
        assert first_seen and second_seen
        first_scopes = {span.baggage.get("scope") for span in first_seen}
        second_scopes = {span.baggage.get("scope") for span in second_seen}
        assert len(first_scopes) == len(second_scopes) == 1
        assert first_scopes.isdisjoint(second_scopes)

    def test_untraced_session_fires_no_span_hooks(
        self, tiny_task, fast_training, fast_curves
    ):
        tuner = make_tuner(tiny_task, fast_training, fast_curves)
        seen = []
        session = tuner.session()
        session.on_span(seen.append)
        for _ in session.stream(budget=60, strategy="moderate"):
            pass
        assert seen == []

    def test_session_iteration_counter_increments(
        self, tiny_task, fast_training, fast_curves, live_tracer
    ):
        from repro.telemetry import get_registry

        _, sink = live_tracer
        run_result_json(tiny_task, fast_training, fast_curves)
        iterations = [s for s in sink.spans() if s.name == "session.iteration"]
        counters = get_registry().snapshot()["counters"]
        assert counters["session.iterations"] == len(iterations)
