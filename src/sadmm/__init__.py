"""Stochastic ADMM solvers with variance reduction and momentum."""
