"""memcim: Computation-In-Memory architectures based on memristive devices.

A full reproduction of *Applications of Computation-In-Memory
Architectures based on Memristive Devices* (Hamdioui et al., DATE
2019): device and crossbar simulators, Scouting Logic, the dual
architecture analytical models, and the six application studies across
data analytics, signal processing and machine learning.

Quick tour
----------
>>> from repro import CimAccelerator
>>> import numpy as np
>>> acc = CimAccelerator(seed=0)
>>> _ = acc.store_matrix("A", np.eye(4))
>>> acc.matvec("A", np.ones(4)).shape
(4,)

Subpackages
-----------
``repro.devices``    memristive device models (binary, PCM)
``repro.crossbar``   analog MVM crossbar simulator
``repro.logic``      Scouting Logic bitwise fabric
``repro.arch``       Figs. 3-4 architecture analytical models
``repro.analytics``  bitmap database + temporal correlation kernels
``repro.signal``     compressed sensing with AMP recovery
``repro.imaging``    guided/bilateral filtering + access model
``repro.ml``         quantized NN inference and HD computing
``repro.energy``     FPGA/crossbar/MCU/ASIC cost models
``repro.workloads``  synthetic workload generators
``repro.core``       accelerator facade + offload model
"""

from repro.core import CimAccelerator, OffloadedProgram
from repro.crossbar import CrossbarOperator, DenseOperator
from repro.devices import BinaryMemristor, PcmDevice
from repro.logic import BitwiseEngine, ScoutingLogic

__version__ = "1.0.0"

__all__ = [
    "BinaryMemristor",
    "BitwiseEngine",
    "CimAccelerator",
    "CrossbarOperator",
    "DenseOperator",
    "OffloadedProgram",
    "PcmDevice",
    "ScoutingLogic",
    "__version__",
]
