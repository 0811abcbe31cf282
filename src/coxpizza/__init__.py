"""Exact Taylor expansions, numeric oracles and conjecture checks for
signed volume sums (pizza quantities) of reflection arrangements."""

# The fold engine's name; --version and benchmark records report it.
KERNEL_IMPLEMENTATION = "pure"

__version__ = "0.1.0"
__all__ = ["KERNEL_IMPLEMENTATION", "__version__"]
