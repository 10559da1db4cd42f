"""The benchmark's tracer still finds every entry point it rebinds."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracing  # noqa: E402
from refugebif import continuation, newton  # noqa: E402


def test_tracer_install_rebinds_and_uninstall_restores():
    bound = [(owner, attr) for owner, attr, *_ in tracing._targets()]
    bound += [(m, name) for m in (newton, continuation) for name in ("residual", "jacobian")]
    originals = [getattr(owner, attr) for owner, attr in bound]
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert all(getattr(o, a) is not f for (o, a), f in zip(bound, originals))
    finally:
        tracer.uninstall()
    assert all(getattr(o, a) is f for (o, a), f in zip(bound, originals))
