"""Complex-valued network training, spectral complexity, and covering checks."""

__version__ = "0.1.0"
