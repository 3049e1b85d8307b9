"""Regulation-aware evaluation engine.

Reshapes a code-compliance gold corpus into localization and judgment views,
scores ranked and set-valued article predictions, and aggregates the base
metrics into stability-aware composite scores.
"""

__version__ = "0.1.0"
