"""Unified tracing & profiling (the PowerPack measurement analogue).

The paper's first contribution is PowerPack itself: a framework that
collects, aligns, and *attributes* per-node power profiles to
application phases.  :mod:`repro.obs` is that layer for the simulated
cluster — one process-wide :class:`Tracer` with bounded ring buffers of
span/counter/instant records, fed by instrumentation hooks across the
stack (sim processes, MPI collectives and point-to-point phases, DVS
transitions, governor control windows, fault apply/clear, cache
hits/misses), exported to Chrome trace-event JSON (Perfetto-loadable)
or JSONL, and joined against the power timeline by
:func:`repro.metrics.attribution.build_attribution_report`.

Disabled tracing is the default and costs one global read plus one
attribute check per hook — every instrumentation site guards with
``if tracer.enabled:`` and touches nothing else.
"""
