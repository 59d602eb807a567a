"""The benchmark tracer (perfbench/tracer.py) wraps library functions by
name; these tests fail when a name it patches moves or stops doing the work
its per-layer metric reports."""

import importlib.util
import os
from pathlib import Path

import pytest

from tricklelab import cli

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def tracer(tracer_module):
    tracer = tracer_module.Tracer()
    tracer.attach()
    try:
        yield tracer
    finally:
        tracer.detach()


def test_attach_patches_and_detach_restores_every_name(tracer_module):
    names = tracer_module._SPANNED + tracer_module._AGGREGATED
    originals = [getattr(owner, attr) for owner, attr, _ in names]
    assert len(names) == 27
    tracer = tracer_module.Tracer()
    tracer.attach()
    try:
        assert all(getattr(owner, attr) is not original
                   for (owner, attr, _), original in zip(names, originals))
    finally:
        tracer.detach()
    assert all(getattr(owner, attr) is original
               for (owner, attr, _), original in zip(names, originals))


def test_traced_gf_query_charges_the_solves_and_masters(tracer):
    code = tracer.query("gf", lambda: cli.main(["gf", "--R", "2", "--n", "10",
                                                "--out", os.devnull]))
    assert code == 0
    for name in ("gf.solve_hop_system", "gf.solve_delay_system",
                 "gf.hop_master_series", "gf.delay_master_series"):
        assert tracer._span_sum(name, "self") > 0, name


def test_traced_protocol_query_counts_core_transitions(tracer):
    code = tracer.query("protocol", lambda: cli.main([
        "simulate", "--engine", "protocol", "--R", "5", "--n", "20", "--reps", "2",
        "--out", os.devnull]))
    assert code == 0
    assert tracer.calls["core.on_message"] > 0
