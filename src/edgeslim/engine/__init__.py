"""Reverse-mode autodiff, layer kernels, masked models and the SGD loop."""
