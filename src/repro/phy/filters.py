"""Post-envelope smoothing filter used by the AP's baseband processor."""

from __future__ import annotations

import numpy as np

__all__ = ["moving_average"]


def moving_average(x: np.ndarray, window: int) -> np.ndarray:
    """Centred moving average with edge replication, length preserved.

    Used as the post-envelope smoother: a bit period's worth of averaging
    integrates out noise without smearing neighbouring symbols.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    x = np.asarray(x, dtype=float)
    if window == 1 or x.size == 0:
        return x.copy()
    window = min(window, x.size)
    kernel = np.ones(window) / window
    padded = np.concatenate([
        np.full(window // 2, x[0]),
        x,
        np.full(window - 1 - window // 2, x[-1]),
    ])
    return np.convolve(padded, kernel, mode="valid")
