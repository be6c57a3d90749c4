"""Bergman kernel coefficient engine.

Computes the coefficient expansion of Bergman kernels attached to a real
analytic Kahler potential given as a truncated power series, by two
independent routes (a divergence-form recursion and a transport equation
chain), evaluates the truncated off-diagonal kernel, and verifies closed
forms, growth bounds and decay rates against exact model-space oracles.
"""
