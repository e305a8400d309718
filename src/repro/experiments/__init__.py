"""The experiment harness, imported from its modules.

:mod:`repro.experiments.runner` provides the shared machinery (policy
factory, checkpointed runs); :mod:`repro.experiments.figures` holds one
function per paper table / figure, returning plain dictionaries of series
(``benchmarks/test_figures.py`` is their table);
:mod:`repro.experiments.reporting` renders them as text tables, which is
what the benchmark harness prints.  :mod:`~repro.experiments.serving`,
:mod:`~repro.experiments.cluster` and :mod:`~repro.experiments.adaptive`
drive the serving, cluster and adaptation benchmarks.
"""

__all__: list = []
