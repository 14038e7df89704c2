"""Benchmark of the engine: build, HTTP search and ingest (see README.md)."""
