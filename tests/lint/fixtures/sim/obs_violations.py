"""Wall-clock observability inside a sim-gated dir: every line fires DET001."""

from repro.obs.trace import wall_event  # DET001: wall-domain import


def instrumented_replay(tracer, seconds):
    with tracer.wall_span("ssd", "replay"):  # DET001: wall span in sim layer
        pass
    tracer.wall_event("ssd", "replay", seconds)  # DET001: wall event
