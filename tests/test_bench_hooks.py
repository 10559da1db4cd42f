"""The benchmark's tracer still finds every entry point it rebinds."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracing  # noqa: E402
from conftest import REFUGE_BOX  # noqa: E402
from refugebif import continuation, newton  # noqa: E402
from refugebif.analytics import bifurcation_data  # noqa: E402
from refugebif.geometry import Region, ScalarField, build_grid  # noqa: E402
from refugebif.model import Diffusion, ModelParams, State  # noqa: E402
from refugebif.timestepping import TimeOptions, evolve_to_steady  # noqa: E402


def test_tracer_install_rebinds_and_uninstall_restores():
    bound = [(owner, attr) for owner, attr, *_ in tracing._targets()]
    bound += [(newton, "residual"), (continuation, "residual"), (continuation, "jacobian")]
    originals = [getattr(owner, attr) for owner, attr in bound]
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert all(getattr(o, a) is not f for (o, a), f in zip(bound, originals))
    finally:
        tracer.uninstall()
    assert all(getattr(o, a) is f for (o, a), f in zip(bound, originals))


def test_tracer_sees_both_factorizations_of_a_cold_pattern():
    # a fig1-style branch at n = 16 factors J twice, both times through
    # continuation's own splu, so the tracer records both LUs
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
    assert len(spans) == 2 and all(s["nnz"] > 0 for s in spans)


def test_tracer_counts_the_prey_factorizations_of_a_nonlinear_run():
    # the stepper factors through timestepping's own splu, so the tracer's
    # timestepping.splu_calls counts every prey LU.  At mu = 0.005 the
    # predators drive the exterior prey into the dead zone, where u is too
    # rough for the DCT preconditioner and the stepper factors; the CG steps
    # on the kept LU leave fewer LUs than steps
    grid = build_grid(16, refuge_box=REFUGE_BOX)
    p = ModelParams(lam=1.0, mu=0.005, c=1.0, m=1.0, b=1.0, variant=Diffusion.NONLINEAR)
    initial = State(
        ScalarField.constant(grid, 0.5), ScalarField.constant(grid, 0.1, Region.EXTERIOR)
    )
    tracer = tracing.Tracer()
    try:
        tracer.install()
        with tracer.recording("simulate-style"):
            evolve_to_steady(p, initial, TimeOptions(dt=0.05, t_max=20.0))
    finally:
        tracer.uninstall()
    names = [s["name"] for s in tracer.spans]
    steps, lus = names.count("timestepping.step"), names.count("timestepping.splu")
    assert steps == 400
    assert 0 < lus < steps
