"""Exact Taylor expansions, numeric oracles and conjecture checks for
signed volume sums (pizza quantities) of reflection arrangements."""

# The fold engine's name; --version and benchmark records report it.
KERNEL_IMPLEMENTATION = "pure"

__version__ = "0.1.0"
__all__ = ["KERNEL_IMPLEMENTATION", "VerificationFailure", "__version__"]


class VerificationFailure(RuntimeError):
    """An internal contradiction: two routes to one result disagree, or an
    identity the code relies on fails.  It means a bug, and the CLI exits 1
    on it; every refusal is a ValueError instead, and exits 2."""
