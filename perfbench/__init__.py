"""Layer-budget benchmark for ``repro search`` and ``repro align``.

Run one workload with::

    python3 perfbench/run.py --workload search-scan --seed 1 --seconds 18 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
is a separate run that reports where the time went, layer by layer.  See
``perfbench/README.md`` for the workloads and the layer-to-end-to-end map.
"""
