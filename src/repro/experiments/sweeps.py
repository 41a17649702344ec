"""Shared sweep definitions and small helpers for the figure reproductions."""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Tuple, TypeVar

#: The paper's document-update-rate sweep (updates per unit time, log-spaced;
#: Figures 7-9). 195 is the trace's observed update rate — the dashed
#: vertical line in the figures.
UPDATE_RATE_SWEEP: Tuple[float, ...] = (10.0, 50.0, 100.0, 195.0, 500.0, 1000.0)

#: The Zipf-parameter sweep of Figure 6 ("ranging from 0 to 0.99").
ZIPF_SWEEP: Tuple[float, ...] = (0.0, 0.2, 0.4, 0.6, 0.8, 0.9, 0.99)

#: Cloud sizes of Figure 5.
CLOUD_SIZE_SWEEP: Tuple[int, ...] = (10, 20, 50)

#: Beacon-ring sizes of Figure 5.
RING_SIZE_SWEEP: Tuple[int, ...] = (2, 5, 10)

K = TypeVar("K")
V = TypeVar("V")


def sweep(values: Iterable[K], run: Callable[[K], V]) -> Dict[K, V]:
    """Run ``run`` for each value; returns an ordered value -> result map."""
    return {value: run(value) for value in values}


def rings_for(num_caches: int, ring_size: int) -> int:
    """Number of beacon rings giving ``ring_size`` beacon points per ring.

    Requires divisibility — the paper's configurations (10/20/50 caches with
    rings of 2/5/10) all divide evenly.
    """
    if num_caches % ring_size != 0:
        raise ValueError(
            f"{num_caches} caches cannot form equal rings of {ring_size}"
        )
    return num_caches // ring_size
