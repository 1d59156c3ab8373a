"""The benchmark's tracer still finds every name it patches.

perfbench/spans.py looks up the package's layer functions by name
(adaptive_quadrature, integrate_minimal, the field methods, ...).  A
rename fails here, in tier-1, rather than only in a traced benchmark
run.
"""

from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans
    return spans


def test_tracer_resolves_every_patched_name(spans):
    tracer = spans.Tracer()
    assert tracer._patches


def test_traced_minimal_job_counts_fields_and_quadrature(spans, capsys):
    from adscmc.cli import main
    tracer = spans.Tracer()
    tracer.begin_job()
    try:
        code = main(["minimal", "--q", "u", "--f", "1", "--r", "v", "--g", "1",
                     "--domain", "-0.2", "0.2", "-0.2", "0.2", "--nu", "21", "--nv", "21"])
    finally:
        metrics, _ = tracer.end_job(0.0)
    assert code == 0
    assert metrics["fields.calls"] > 0
    assert metrics["weierstrass.points_per_cell"] > 0
    assert metrics["weierstrass.integrate_s"] > 0
    assert metrics["geometry.report_s"] > 0


@pytest.mark.parametrize("argv, names", [
    (["cmc1", "--q", "u", "--f", "1", "--r", "v", "--g", "1", "--action", "nu"],
     ("nullcurves.integrate_s", "nullcurves.assemble_s")),
    (["gauss", "--omega=2*ln(1+u*v)", "--H", "1", "--Q", "1", "--R", "1"],
     ("lax.integrate_s", "gaussmaps.s")),
    (["lax", "--omega=2*ln(1+u*v)", "--H", "1", "--Q", "1", "--R", "1"],
     ("lax.integrate_s", "lax.assemble_s")),
])
def test_traced_frame_jobs_time_their_layers(spans, capsys, argv, names):
    from adscmc.cli import main
    tracer = spans.Tracer()
    tracer.begin_job()
    try:
        code = main([*argv, "--domain", "0.2", "0.6", "0.2", "0.6",
                     "--nu", "21", "--nv", "21"])
    finally:
        metrics, _ = tracer.end_job(0.0)
    assert code == 0
    for name in names:
        assert metrics[name] > 0, name
