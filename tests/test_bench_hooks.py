"""The benchmark's tracer still finds every entry point it rebinds."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracing  # noqa: E402
from conftest import REFUGE_BOX  # noqa: E402
from refugebif import continuation, newton  # noqa: E402
from refugebif.analytics import bifurcation_data  # noqa: E402
from refugebif.geometry import build_grid  # noqa: E402
from refugebif.model import Diffusion, ModelParams  # noqa: E402


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


def test_tracer_sees_both_factorizations_of_a_cold_pattern():
    # a fig1-style branch at n = 16: the ordering LU and the pre-ordered LUs
    # both go through continuation's own splu, so the tracer records them
    grid = build_grid(16, refuge_box=REFUGE_BOX)
    p = ModelParams(lam=0.5, mu=0.2, c=1.0, m=1.0, b=1.0, variant=Diffusion.NONLINEAR)
    mu_min = 0.5 * bifurcation_data(grid, p).mu_lambda
    tracer = tracing.Tracer()
    try:
        tracer.install()
        with tracer.recording("fig1-style"):
            continuation.trace_branch(grid, p, mu_min)
    finally:
        tracer.uninstall()
    spans = [s for s in tracer.spans if s["name"] == "continuation.splu"]
    assert len(spans) > 2 and all(s["nnz"] > 0 for s in spans)
    # the first J is factored twice, once for its ordering, with the same fill
    assert spans[0]["nnz"] == spans[1]["nnz"]
