"""Adaptive-scale convolution micro-engine.

Per-pixel fractional dilation rates learned by a small side network,
with hand-written forward/backward passes on plain numpy arrays.
"""
