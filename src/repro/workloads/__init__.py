"""Workload generators driving every experiment (substrate S12).

Synthetic stand-ins for the paper's external data (see DESIGN.md
Sec. 3 for the substitution rationale):

* :mod:`repro.workloads.stars` — the Fig. 2a star-catalog example.
* :mod:`repro.workloads.tpch` — TPC-H-like lineitem table for query-06.
* :mod:`repro.workloads.signals` — sparse signals and measurement
  matrices for compressed sensing.
* :mod:`repro.workloads.images` — synthetic test images for filtering.
* :mod:`repro.workloads.languages` — Markov-chain language corpus for
  HD language recognition.
* :mod:`repro.workloads.emg` — synthetic EMG gestures for HD biosignal
  classification.
* :mod:`repro.workloads.sensors` — IoT sensory classification tasks
  (HAR/KWS-like feature clusters).
"""

from repro.workloads.emg import EmgGestureGenerator
from repro.workloads.images import edge_texture_image, add_gaussian_noise
from repro.workloads.languages import LanguageCorpus
from repro.workloads.sensors import SensoryTask
from repro.workloads.signals import (
    gaussian_measurement_matrix,
    sparse_signal,
    sparse_signal_batch,
)
from repro.workloads.stars import STAR_CATALOG, star_bitmap_index
from repro.workloads.tpch import generate_lineitem, query6_reference

__all__ = [
    "EmgGestureGenerator",
    "LanguageCorpus",
    "STAR_CATALOG",
    "SensoryTask",
    "add_gaussian_noise",
    "edge_texture_image",
    "gaussian_measurement_matrix",
    "generate_lineitem",
    "query6_reference",
    "sparse_signal",
    "sparse_signal_batch",
    "star_bitmap_index",
]
