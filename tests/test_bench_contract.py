"""The traced benchmark still finds every name it wraps, and its checks work.

``perfbench/workloads.instrument`` looks up each public function it traces
in the module where its caller finds it.  A rename or deletion there would
only show up as an ``AttributeError`` in a traced benchmark run; this test
makes it fail the suite instead.  The benchmark files are only imported.
"""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_instrument_finds_every_wrapped_name(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans
    import workloads

    tracer = spans.Tracer()
    workloads.instrument(tracer)
    assert len(tracer._patches) == 19
    for module, attr, original, _ in tracer._patches:
        assert getattr(module, attr) is original


def test_benchmark_checks_pass_their_selftest(monkeypatch):
    # The benchmark's accuracy checks must still flag what they exist to
    # flag; checks.py carries its own self-test.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import checks

    assert checks.selftest() == []
