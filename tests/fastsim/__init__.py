"""Conformance of :mod:`repro.fastsim` against the reference simulators."""
