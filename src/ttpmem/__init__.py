"""TDMA ring membership with clique avoidance.

Concrete N-station simulator with asymmetric-fault injection, the matching
counter abstraction (single-fault automaton and multi-fault counter tree),
and an explicit-state checker that verifies the counting properties and the
two-round convergence claim, cross-validating concrete runs against the
abstraction.

Import each name from the module that defines it.
"""

__version__ = "0.1.0"
