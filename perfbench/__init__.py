"""End-to-end performance benchmark for the APF reproduction.

Three workloads, each driven from one process through an entry point
users hit:

* ``fig8-campaign`` -- the Fig. 8 campaign (16 workloads x base/APF)
  through :class:`repro.analysis.runner.Runner`, cold then warm.
* ``service-sweeps`` -- a closed-loop client driving a ``repro serve``
  daemon with a seeded sequence of sweep/compare requests.
* ``sampled-pairs`` -- base/APF pairs through
  :func:`repro.analysis.harness.run_cached` with one sampling plan.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0``
prints the end-to-end metrics; ``--trace 1`` prints the per-layer
metrics from a traced pass. See ``perfbench/README.md``.
"""
