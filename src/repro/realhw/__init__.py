"""Real-hardware backend (modern Linux equivalents of the paper's rig).

Everything in :mod:`repro` above the hardware layer — the weighted-ED²P
metrics, the strategy logic, the data alignment — is platform-agnostic.
This package provides the real-platform implementations of the low-level
interfaces, mirroring the simulated ones:

* :class:`SysfsCpuFreq` — CPUFreq via sysfs (``userspace`` governor +
  ``scaling_setspeed``, as the paper's PowerPack libraries did);
* :func:`read_proc_stat` — the actual kernel utilisation accounting;
* :class:`RaplMeter` — RAPL energy counters, today's stand-in for the
  smart battery / Baytech meter;
* :class:`RealCpuspeedDaemon` — the cpuspeed policy (shared verbatim
  with the simulation via :mod:`repro.dvs.policy`) on real sysfs.

Combine with ``mpi4py`` to run the paper's methodology on a live
cluster; every class is dependency-injected/parameterised so the logic is
fully testable without hardware.
"""
