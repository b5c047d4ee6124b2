"""Deterministic federated-learning simulator with clustered decoder exchange.

The package root exports nothing; use the submodules (fedswap.harness,
fedswap.server, fedswap.clustering, ...) directly.
"""
