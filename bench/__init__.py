"""Benchmark for groupbuy: seeded workloads, output checks and an outside-in tracer."""
