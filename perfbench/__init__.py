"""The repository's benchmark: three workloads measured from outside the
program (see ``perfbench/README.md`` and ``BENCHMARK.json``)."""
