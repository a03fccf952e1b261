"""Shared utilities: unit helpers and argument validation."""
