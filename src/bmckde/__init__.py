"""Kernel estimation of transition densities for bifurcating Markov chains."""
