"""Shared utilities: unit helpers, argument validation and frozen records."""
