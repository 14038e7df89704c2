"""End-to-end Ray Data pipelines: index build, query, serving, analysis, similarity."""
