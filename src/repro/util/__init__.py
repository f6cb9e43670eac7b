"""Small shared utilities: iteration ranges, table rendering, units."""

from repro.util.ranges import IterRange, split_block, split_by_weights

__all__ = ["IterRange", "split_block", "split_by_weights"]
