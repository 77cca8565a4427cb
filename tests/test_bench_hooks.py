"""The benchmark's tracer wraps hpng names by hand; each must still exist."""

from pathlib import Path

import hpng.transient

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_bench_tracer_installs_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    original = hpng.transient.location_region_terms
    with tracing.install(tracing.Tracer()):
        assert hpng.transient.location_region_terms is not original
    assert hpng.transient.location_region_terms is original
