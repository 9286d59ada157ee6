"""Deterministic corner and center pooling over score maps.

Both transforms are built from one primitive: a directional running
maximum along rows or columns. Scans are prefix/suffix maxima, so every
pooling call is O(H*W) per channel rather than a naive per-cell ray walk.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import DomainError, FeatureMap, KeypointKind, MapRole

__all__ = [
    "Axis",
    "Sense",
    "PoolingDirection",
    "RIGHTWARD",
    "LEFTWARD",
    "DOWNWARD",
    "UPWARD",
    "directional_max_scan",
    "center_pool",
    "cascade_corner_pool",
]


class Axis(Enum):
    HORIZONTAL = "horizontal"
    VERTICAL = "vertical"


class Sense(Enum):
    TOWARD_INCREASING = "increasing"
    TOWARD_DECREASING = "decreasing"


@dataclass(frozen=True)
class PoolingDirection:
    axis: Axis
    sense: Sense

    def __post_init__(self):
        if not isinstance(self.axis, Axis) or not isinstance(self.sense, Sense):
            raise DomainError("direction needs exactly one Axis and one Sense")


RIGHTWARD = PoolingDirection(Axis.HORIZONTAL, Sense.TOWARD_INCREASING)
LEFTWARD = PoolingDirection(Axis.HORIZONTAL, Sense.TOWARD_DECREASING)
DOWNWARD = PoolingDirection(Axis.VERTICAL, Sense.TOWARD_INCREASING)
UPWARD = PoolingDirection(Axis.VERTICAL, Sense.TOWARD_DECREASING)


def _scan(plane, direction):
    """Running max from each cell along the ray in `direction`, inclusive."""
    axis = 1 if direction.axis is Axis.HORIZONTAL else 0
    if direction.sense is Sense.TOWARD_DECREASING:
        return np.maximum.accumulate(plane, axis=axis)
    flipped = np.flip(plane, axis=axis)
    return np.flip(np.maximum.accumulate(flipped, axis=axis), axis=axis)


def directional_max_scan(fmap, channel, direction):
    """out[r, c] = max of the channel along the ray from (r, c) in `direction`."""
    plane = fmap.channel_plane(channel)
    return FeatureMap(_scan(plane, direction)[:, :, None], role=MapRole.GENERIC)


def center_pool(fmap, channel):
    """out[r, c] = (max of row r) + (max of column c)."""
    plane = fmap.channel_plane(channel)
    row_max = plane.max(axis=1, keepdims=True)
    col_max = plane.max(axis=0, keepdims=True)
    return FeatureMap((row_max + col_max)[:, :, None], role=MapRole.GENERIC)


def cascade_corner_pool(fmap, channel, corner):
    """Two-stage cascade sharpening one corner kind.

    For the top-left corner both scans run toward increasing indices: a
    horizontal scan finds each cell's boundary-directed maximum, that
    intermediate map is scanned vertically, and the two scan results are
    summed. For the bottom-right corner both senses are reversed.
    """
    if corner is KeypointKind.TOP_LEFT:
        sense = Sense.TOWARD_INCREASING
    elif corner is KeypointKind.BOTTOM_RIGHT:
        sense = Sense.TOWARD_DECREASING
    else:
        raise DomainError(f"corner must be TOP_LEFT or BOTTOM_RIGHT, got {corner!r}")
    plane = fmap.channel_plane(channel)
    horizontal = _scan(plane, PoolingDirection(Axis.HORIZONTAL, sense))
    vertical = _scan(horizontal, PoolingDirection(Axis.VERTICAL, sense))
    return FeatureMap((vertical + horizontal)[:, :, None], role=MapRole.GENERIC)
