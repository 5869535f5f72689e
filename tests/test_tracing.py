"""The bench tracer's targets exist, and uninstalling restores them.

``bench/tracing.py`` wraps package attributes by name, so a renamed or
deleted one breaks the traced benchmark.  This loads it from its file,
without changing it, and checks every target it names.
"""

import importlib.util
from pathlib import Path

import delaunay_dilation
from delaunay_dilation import cli, constructions, dilation, experiments, geom, svg, triangulation
from delaunay_dilation.geom import Point2

_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
_spec = importlib.util.spec_from_file_location("bench_tracing", _PATH)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)

MODULES = {m.__name__.rpartition(".")[2]: m for m in
           (geom, triangulation, dilation, constructions, experiments, svg, cli)}


def _targets():
    """(holder, attribute) of every target the tracer names."""
    for layers in (tracing.SPAN_LAYERS, tracing.COUNT_LAYERS):
        for targets in layers.values():
            for module, attr in targets:
                owner = MODULES[module]
                if "." in attr:
                    cls_name, attr = attr.split(".")
                    owner = getattr(owner, cls_name)
                yield owner, attr


def _namespaces():
    return [*MODULES.values(), delaunay_dilation,
            *{owner for owner, _ in _targets() if isinstance(owner, type)}]


def test_install_wraps_every_target_and_uninstall_restores_them():
    before = {id(ns): dict(vars(ns)) for ns in _namespaces()}
    originals = {(owner, attr): getattr(owner, attr) for owner, attr in _targets()}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (owner, attr), fn in originals.items():
            assert getattr(owner, attr) is not fn, f"{owner.__name__}.{attr} not wrapped"
        # The scalar predicates reach their exact names through the module,
        # so the counters see a collinear row go to the exact step.
        geom.orient2d(Point2(0, 0), Point2(1, 1), Point2(2, 2))
        assert tracer.counts["geom.orient2d"] == 1
        assert tracer.counts["geom.exact"] == 1
    finally:
        tracer.uninstall()
    for ns in _namespaces():
        now = vars(ns)
        assert now.keys() == before[id(ns)].keys(), ns.__name__
        assert all(now[k] is v for k, v in before[id(ns)].items()), ns.__name__
    for (owner, attr), fn in originals.items():
        assert getattr(owner, attr) is fn


def test_construct_calls_the_wrapped_generator(tmp_path):
    # cli looks the generator up in constructions when it runs, so the
    # tracer's wrapper there sees the call.
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = cli.main(["construct", "chew", "--n", "16", "--out-dir", str(tmp_path), "--no-svg"])
    finally:
        tracer.uninstall()
    assert code == 0
    assert [s[0] for s in tracer.spans].count("constructions.generate") == 1
