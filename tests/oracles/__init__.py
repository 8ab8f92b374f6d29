"""Reference implementations that pin the production fast paths.

Each oracle is the straightforward (slower) derivation a fast path
replaced; the parity tests assert the fast path reproduces it exactly.
"""
