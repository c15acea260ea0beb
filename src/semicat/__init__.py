"""Semiring-parametric multisets, matrix theories, and their law suites."""
