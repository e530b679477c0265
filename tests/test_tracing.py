"""The benchmark tracer (``bench/tracing.py``) against the library's surface.

``Tracer.install`` patches confeyn functions and methods by name, so a
renamed or moved name breaks traced benchmark runs.  This test installs the
tracer on the modules already imported (``jobs.Confeyn``; not
``jobs.load_confeyn``, which drops them), drives three hooked layers, checks
the counts the hooks record and that ``uninstall`` restores every patched
attribute.  A second test runs a small renormalization (both Rota-Baxter
targets, beta and the frame) under the tracer, so that a library path that
stops going through a patched name fails here instead of reading 0 in a
per-layer metric.
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


def _traced(monkeypatch, drive) -> tuple[dict, object]:
    """The tracer's aggregates after ``drive(C, tracing, jobs)``, and what it
    returned; checks that ``uninstall`` puts every patched attribute back."""
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
        result = drive(C, tracing, jobs)
        agg = tr.aggregates()
    finally:
        tr.uninstall()
    for name, space in spaces.items():
        after = vars(space)
        assert all(after.get(key) is value for key, value in before[name].items()), name
    return agg, result


def test_tracer_hooks_count_and_uninstall_restores(monkeypatch):
    def drive(C, tracing, jobs):
        C.specfun.bessel_k(1.0, 0.5)
        C.specfun.bessel_k(0.5, 3.0)
        amp = C.amplitude
        expansion = amp.edge_gegenbauer_expansion(0, 1, amp.TruncationOrders(radial=4))
        one = C.exact.SymbolicCoeff.one()  # one sum, one product, one bind
        ((one + one) * one).bind()
        return expansion, tracing.gegen_cache_stats(C)

    agg, (expansion, cache) = _traced(monkeypatch, drive)
    calls, counters = agg["calls"], agg["counters"]
    assert calls["specfun.bessel_k"] == 2
    assert counters["bessel_k.series.calls"] == 1 and counters["bessel_k.half.calls"] == 1
    assert calls["amplitude.edge_gegenbauer_expansion"] == 1
    assert calls["amplitude.taylor_term_coefficient"] >= 1
    assert counters["amplitude.tensor_entries"] == (len(expansion.plain)
                                                    + len(expansion.log_rho)) > 0
    assert counters["exact.symbolic_add"] > 0 and counters["exact.symbolic_mul"] > 0
    assert calls["exact.bind"] == 1
    assert set(cache) == {"hits", "misses"} and cache["hits"] + cache["misses"] > 0


def test_renormalization_goes_through_the_traced_names(monkeypatch):
    def drive(C, tracing, jobs):
        B = C.birkhoff
        graph = C.feyngraph.FeynmanGraph.build(3, jobs.necklace_edges(3), legs=[0, 1])
        pair = B.birkhoff_factorize(B.Character(C.hopf.HopfAlgebra(),
                                                C.rotabaxter.LaurentAlgebra(),
                                                jobs.laurent_rule(C, 1)))
        log_pair = B.birkhoff_factorize(B.toy_feynman_character(C.hopf.HopfAlgebra(),
                                                                3, 0, 1))
        for p in (pair, log_pair):
            p.phi_minus(graph), p.phi_plus(graph)
        beta = B.beta_function(pair)
        beta(graph)
        frame = B.universal_frame(beta).on_monomial(C.hopf.monomial(graph))
        return frame == pair.phi_minus(graph)

    agg, frame_matches = _traced(monkeypatch, drive)
    assert frame_matches
    calls, counters = agg["calls"], agg["counters"]
    for name in ("hopf.coproduct_generator", "birkhoff.prepare", "rotabaxter.laurent_mul",
                 "rotabaxter.multilog_mul", "rotabaxter.laurent_T", "rotabaxter.multi_T",
                 "birkhoff.frame_on_monomial", "hopf.reduced_coproduct"):
        assert calls.get(name, 0) > 0, name
    for name in ("hopf.coproduct_generator_distinct", "birkhoff.prepared_distinct"):
        assert counters.get(name, 0) > 0, name
