"""The benchmark tracer (``bench/tracing.py``) against the library's surface.

``Tracer.install`` patches confeyn functions and methods by name, so a
renamed or moved name breaks traced benchmark runs.  This test installs the
tracer on the modules already imported (``jobs.Confeyn``; not
``jobs.load_confeyn``, which drops them), drives three hooked layers, checks
the counts the hooks record and that ``uninstall`` restores every patched
attribute.
"""

from __future__ import annotations

from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _patched_namespaces(C, tracing) -> dict:
    """Every namespace the tracer may patch: the confeyn modules, and the
    classes named in its span and counter tables."""
    spaces = {name: getattr(C, name) for name in vars(C)}
    for mod, attr, _ in (*tracing.SPANS, *tracing.COUNTED):
        if "." in attr:
            cls = attr.split(".")[0]
            spaces[f"{mod}.{cls}"] = getattr(getattr(C, mod), cls)
    return spaces


def test_tracer_hooks_count_and_uninstall_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import jobs
    import tracing

    C = jobs.Confeyn()
    spaces = _patched_namespaces(C, tracing)
    before = {name: dict(vars(space)) for name, space in spaces.items()}
    tr = tracing.Tracer()
    try:
        tr.install(C)
        assert tr.patches
        C.specfun.bessel_k(1.0, 0.5)
        C.specfun.bessel_k(0.5, 3.0)
        amp = C.amplitude
        expansion = amp.edge_gegenbauer_expansion(amp.TaylorTermSpec.make(0, 1), 1,
                                                  amp.TruncationOrders(radial=4))
        C.exact.SymbolicCoeff.one().bind()
        cache = tracing.gegen_cache_stats(C)
        agg = tr.aggregates()
    finally:
        tr.uninstall()
    calls, counters = agg["calls"], agg["counters"]
    assert calls["specfun.bessel_k"] == 2
    assert counters["bessel_k.series.calls"] == 1 and counters["bessel_k.half.calls"] == 1
    assert calls["amplitude.edge_gegenbauer_expansion"] == 1
    assert calls["amplitude.taylor_term_coefficient"] >= 1
    assert counters["amplitude.tensor_entries"] == (len(expansion.plain)
                                                    + len(expansion.log_rho)) > 0
    # the log-branch constant is built by exact arithmetic on every expansion
    assert counters["exact.symbolic_add"] > 0 and counters["exact.symbolic_mul"] > 0
    assert calls["exact.bind"] == 1
    assert set(cache) == {"hits", "misses"} and cache["hits"] + cache["misses"] > 0
    for name, space in spaces.items():
        after = vars(space)
        assert all(after.get(key) is value for key, value in before[name].items()), name
