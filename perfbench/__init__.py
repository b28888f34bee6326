"""Benchmark of the AnDrone reproduction: workloads, tracing, metrics."""
