"""Power, energy and area model of a PCM crossbar MVM unit.

Re-derives the Sec. III.B.3 analysis: a 1024x1024 crossbar of 25F^2
1T1R PCM cells (F = 90 nm) read at an average 1 uA / 0.2 V per device,
digitized by 8 ADCs at 125 MSps so all 1024 columns are read within a
1 us cycle.  Published anchors: device power ~0.21 W, ADC power
~12.3 mW, total ~222 mW (~120x below the FPGA's 26.6 W), 222 nJ per
MVM (~80x below the FPGA's 17.7 uJ), area ~0.332 mm^2.

Beyond the single-MVM anchors, the model prices a batch-B ``matmat``
under two readout schedules:

* ``"serial"`` — peripheral reuse: one ADC bank serves every vector of
  the batch back-to-back, so latency grows linearly in B while area
  stays at the single-MVM point.
* ``"parallel"`` — one converter bank per batch vector: the whole batch
  is digitized within a single cycle at the cost of B times the ADC
  area and B times the peak power.

The two named schedules are the endpoints of a continuum: every
batch-pricing API also accepts ``banks=k`` (1 <= k <= B), deploying k
converter banks (and k array copies) that digitize the batch in
``ceil(B / k)`` cycles, each bank time-multiplexing ``ceil(B / k)``
vectors through an input mux of that depth.  ``banks=1`` reproduces the
serial numbers and ``banks=B`` the parallel numbers bit-for-bit; the
optional per-level mux energy/area fractions (default 0, which keeps
the published anchors exact) let design sweeps charge the mux tree.

Conversion energy follows the Walden figure of merit (energy per
conversion independent of sample rate), so all bank counts spend the
*same* converter energy on a batch; they trade latency against
converter area and peak power.
:meth:`CrossbarCostModel.energy_from_stats` additionally prices a real
:class:`~repro.crossbar.operator.CrossbarOperator` run from its DAC/ADC
conversion counters, charging for conversions actually performed
instead of assuming full standalone MVM cycles — including the drift
*maintenance* ledger: calibration probes and program-and-verify pulses
bill per event (``calibration_probe_energy_j`` /
``program_pulse_energy_j``), and zero counters add exactly nothing, so
maintenance-free totals are unchanged bit-for-bit.
:func:`sharded_readout_rows` sweeps a shard-count x bank-count grid for
fleets scheduled by :class:`~repro.crossbar.sharding.ShardedOperator`,
or — given a fleet's real ``loads`` — prices the dispatch that actually
happened, shard for shard.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field

from repro._util import check_in, check_int, check_positive
from repro.energy.adc import AdcModel

__all__ = [
    "BatchReadout",
    "CrossbarCostModel",
    "READOUT_SCHEDULES",
    "REQUIRED_STATS_KEYS",
    "sharded_readout_rows",
]

READOUT_SCHEDULES = ("serial", "parallel")

#: The counters :meth:`CrossbarCostModel.energy_from_stats` requires; a
#: ledger that starts with all of them at zero prices before any traffic.
REQUIRED_STATS_KEYS = ("n_matvec", "n_rmatvec", "dac_conversions", "adc_conversions")


def check_batch_schedule(batch: int, schedule: str) -> None:
    """Shared validation for every batch-pricing API in this package."""
    check_int("batch", batch)
    check_in("schedule", schedule, READOUT_SCHEDULES)


def resolve_banks(
    batch: int, schedule: str | None = None, banks: int | None = None
) -> tuple[int, str]:
    """Normalize a (schedule, banks) request to ``(banks, label)``.

    Exactly one of ``schedule``/``banks`` may be given (neither means
    the serial default).  ``banks`` must be an integer in ``[1, B]``;
    the returned label is ``"serial"`` at one bank, ``"parallel"`` at B
    banks and ``"banked"`` in between, so the endpoints stay
    indistinguishable from the named schedules.
    """
    batch = check_int("batch", batch)
    if banks is None:
        schedule = "serial" if schedule is None else schedule
        check_in("schedule", schedule, READOUT_SCHEDULES)
        return (1 if schedule == "serial" else batch), schedule
    if schedule is not None:
        raise ValueError("pass either schedule or banks, not both")
    banks = check_int("banks", banks)
    if banks > batch:
        raise ValueError(f"banks must be an integer in [1, {batch}], got {banks!r}")
    if banks == 1:
        return banks, "serial"
    if banks == batch:
        return banks, "parallel"
    return banks, "banked"


@dataclass(frozen=True)
class BatchReadout:
    """Cost of one batch-B matmat under a concrete readout schedule.

    A crossbar applies one input vector per read event, so digitizing B
    distinct vectors within a single cycle requires B array copies as
    well as B converter banks — the parallel schedule's area cost
    covers both (``total_area_m2``), not just the ADCs.
    """

    batch: int
    schedule: str
    latency_s: float
    energy_j: float
    device_energy_j: float
    adc_energy_j: float
    adc_banks: int
    """Converter banks in flight (1 for serial reuse, B for parallel,
    k for an intermediate ``banks=k`` deployment)."""
    array_copies: int
    """Crossbar arrays needed for the concurrency (equal to the banks)."""
    adc_area_m2: float
    array_area_m2: float
    peak_power_w: float
    mux_depth: int = 1
    """Vectors each bank time-multiplexes (``ceil(batch / banks)``)."""
    mux_energy_j: float = 0.0
    """Energy of the bank input-mux trees (0 unless the model charges a
    per-level mux fraction)."""
    mux_area_m2: float = 0.0
    """Area of the bank input-mux trees."""

    @property
    def total_area_m2(self) -> float:
        """Silicon cost of the schedule: arrays, ADCs and mux trees."""
        return self.array_area_m2 + self.adc_area_m2 + self.mux_area_m2

    @property
    def energy_per_mvm_j(self) -> float:
        return self.energy_j / self.batch

    @property
    def latency_per_mvm_s(self) -> float:
        """Amortized per-vector latency (the throughput inverse)."""
        return self.latency_s / self.batch

    @property
    def throughput_mvm_per_s(self) -> float:
        return self.batch / self.latency_s


@dataclass(frozen=True)
class CrossbarCostModel:
    """Cost model for one crossbar MVM unit with its ADC readout."""

    rows: int = 1024
    cols: int = 1024
    avg_read_current_a: float = 1e-6
    avg_read_voltage_v: float = 0.2
    cycle_time_s: float = 1e-6
    """Time to perform one full matrix-vector multiplication."""
    n_adcs: int = 8
    adc: AdcModel = field(default_factory=AdcModel)
    cell_area_f2: float = 25.0
    """Cell footprint in units of F^2 (25F^2 1T1R PCM)."""
    feature_size_m: float = 90e-9
    devices_per_cell: int = 1
    """Devices conducting per coefficient (2 for differential pairs)."""
    dac_energy_fraction: float = 0.25
    """Energy of one DAC drive event as a fraction of one ADC
    conversion (same ratio the IoT study uses); only enters the
    counter-driven accounting, not the published single-MVM anchors."""
    mux_energy_per_level_fraction: float = 0.0
    """Per-vector energy of one bank input-mux level, as a fraction of
    that vector's ADC digitization energy.  A bank multiplexing
    ``d = ceil(B / k)`` vectors charges ``d - 1`` levels per vector, so
    the default of 0 — and any value at ``d = 1`` — keeps the published
    serial/parallel endpoints bit-for-bit exact."""
    mux_area_per_level_fraction: float = 0.0
    """Per-bank area of one input-mux level, as a fraction of one ADC
    bank's area (same endpoint-preserving convention as the energy
    fraction)."""
    program_pulse_energy_j: float = 100e-12
    """Energy of one program-and-verify pulse event (the write pulse
    plus its verify read) during maintenance reprogramming.  Enters
    only the counter-driven accounting; stats whose pulse counter is
    zero or absent price exactly as before this field existed."""
    calibration_probe_energy_j: float = 10e-9
    """Digital overhead of one calibration probe — the reference
    product against the stored target matrix and the gain-fit
    arithmetic.  The probe's analog read itself bills through the
    ordinary DAC/ADC conversion and live-read counters; zero/absent
    probe counters keep every existing total bit-for-bit."""

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1 or self.n_adcs < 1:
            raise ValueError("rows, cols and n_adcs must be >= 1")
        if self.devices_per_cell < 1:
            raise ValueError("devices_per_cell must be >= 1")
        if self.dac_energy_fraction < 0:
            raise ValueError("dac_energy_fraction must be non-negative")
        if self.mux_energy_per_level_fraction < 0:
            raise ValueError("mux_energy_per_level_fraction must be non-negative")
        if self.mux_area_per_level_fraction < 0:
            raise ValueError("mux_area_per_level_fraction must be non-negative")
        if self.program_pulse_energy_j < 0:
            raise ValueError("program_pulse_energy_j must be non-negative")
        if self.calibration_probe_energy_j < 0:
            raise ValueError("calibration_probe_energy_j must be non-negative")
        check_positive("avg_read_current_a", self.avg_read_current_a)
        check_positive("avg_read_voltage_v", self.avg_read_voltage_v)
        check_positive("cycle_time_s", self.cycle_time_s)
        check_positive("feature_size_m", self.feature_size_m)

    # -- power ---------------------------------------------------------------
    @property
    def device_power_w(self) -> float:
        """Dynamic power dissipated in the devices during a read."""
        return (
            self.rows
            * self.cols
            * self.devices_per_cell
            * self.avg_read_current_a
            * self.avg_read_voltage_v
        )

    @property
    def adc_sample_rate_sps(self) -> float:
        """Aggregate conversion rate to read every column per cycle."""
        return self.cols / self.cycle_time_s

    @property
    def adc_power_w(self) -> float:
        return self.adc.power_w(self.adc_sample_rate_sps)

    @property
    def total_power_w(self) -> float:
        return self.device_power_w + self.adc_power_w

    # -- energy ----------------------------------------------------------------
    @property
    def mvm_energy_j(self) -> float:
        """Energy of one full MVM (one cycle at total power)."""
        return self.total_power_w * self.cycle_time_s

    def energy_for_reads_j(self, n_mvm: int) -> float:
        if n_mvm < 0:
            raise ValueError("n_mvm must be non-negative")
        return n_mvm * self.mvm_energy_j

    # -- batched readout schedules ---------------------------------------------
    @property
    def device_read_energy_j(self) -> float:
        """Device energy of one full array read (one MVM's worth)."""
        return self.device_power_w * self.cycle_time_s

    def converter_banks(
        self, batch: int, schedule: str | None = None, banks: int | None = None
    ) -> int:
        """ADC banks in flight for a batch-B matmat."""
        return resolve_banks(batch, schedule, banks)[0]

    def readout_mux_depth(
        self, batch: int, schedule: str | None = None, banks: int | None = None
    ) -> int:
        """Vectors each bank time-multiplexes: ``ceil(batch / banks)``."""
        k, _ = resolve_banks(batch, schedule, banks)
        return math.ceil(int(batch) / k)

    def matmat_latency_s(
        self, batch: int, schedule: str | None = None, banks: int | None = None
    ) -> float:
        """Wall time of a batch-B matmat.

        k converter banks digitize the batch in ``ceil(B / k)`` cycles:
        serial peripheral reuse (one bank) runs back-to-back in B
        cycles, parallel converters (B banks) finish in one cycle, and
        intermediate bank counts interpolate.
        """
        return self.readout_mux_depth(batch, schedule, banks) * self.cycle_time_s

    def readout_mux_energy_j(
        self, batch: int, schedule: str | None = None, banks: int | None = None
    ) -> float:
        """Energy of the bank input-mux trees for one batch-B matmat.

        Each of the B vectors traverses ``depth - 1`` mux levels on its
        way into a bank, each level costing
        :attr:`mux_energy_per_level_fraction` of one vector's ADC
        digitization energy.  Zero at the parallel endpoint (depth 1)
        and, with the default fractions, everywhere.
        """
        depth = self.readout_mux_depth(batch, schedule, banks)
        per_vector_adc = self.adc_power_w * self.cycle_time_s
        return (
            int(batch)
            * (depth - 1)
            * self.mux_energy_per_level_fraction
            * per_vector_adc
        )

    def readout_mux_area_m2(
        self, batch: int, schedule: str | None = None, banks: int | None = None
    ) -> float:
        """Area of the bank input-mux trees: ``depth - 1`` levels per
        bank, each a :attr:`mux_area_per_level_fraction` of one ADC
        bank's area."""
        k, _ = resolve_banks(batch, schedule, banks)
        depth = self.readout_mux_depth(batch, banks=k)
        return k * (depth - 1) * self.mux_area_per_level_fraction * self.adc_area_m2

    def matmat_energy_j(
        self, batch: int, schedule: str | None = None, banks: int | None = None
    ) -> float:
        """Energy of a batch-B matmat.

        Every vector needs a full device read plus ``cols`` conversions
        regardless of bank count, and the Walden conversion energy is
        sample-rate independent, so all deployments charge the same
        base energy (plus any configured mux-tree overhead); the serial
        schedule at B = 1 reproduces :attr:`mvm_energy_j` (the paper's
        ~222 nJ anchor).
        """
        k, _ = resolve_banks(batch, schedule, banks)
        return batch * self.mvm_energy_j + self.readout_mux_energy_j(
            batch, banks=k
        )

    def batch_readout(
        self, batch: int, schedule: str | None = None, banks: int | None = None
    ) -> BatchReadout:
        """Full latency/energy/area report of one batch-B matmat.

        Pass a named ``schedule`` for the endpoints or ``banks=k`` for
        an intermediate deployment; ``banks=1`` and ``banks=B``
        reproduce the serial and parallel reports bit-for-bit.
        """
        k, label = resolve_banks(batch, schedule, banks)
        depth = self.readout_mux_depth(batch, banks=k)
        latency = self.matmat_latency_s(batch, banks=k)
        device = batch * self.device_read_energy_j
        adc = batch * self.adc_power_w * self.cycle_time_s
        mux_energy = self.readout_mux_energy_j(batch, banks=k)
        energy = device + adc + mux_energy
        mux_area = self.readout_mux_area_m2(batch, banks=k)
        return BatchReadout(
            batch=int(batch),
            schedule=label,
            latency_s=latency,
            energy_j=energy,
            device_energy_j=device,
            adc_energy_j=adc,
            adc_banks=k,
            array_copies=k,
            adc_area_m2=k * self.adc_area_m2,
            array_area_m2=k * self.array_area_m2,
            peak_power_w=energy / latency,
            mux_depth=depth,
            mux_energy_j=mux_energy,
            mux_area_m2=mux_area,
        )

    # -- counter-driven accounting ---------------------------------------------
    def conversion_energy_j(self, dac_conversions: int, adc_conversions: int) -> float:
        """Converter energy of a run, charged per conversion performed."""
        if dac_conversions < 0 or adc_conversions < 0:
            raise ValueError("conversion counts must be non-negative")
        per_adc = self.adc.energy_per_conversion_j
        return (adc_conversions + self.dac_energy_fraction * dac_conversions) * per_adc

    def energy_from_stats(self, stats: Mapping[str, int]) -> dict[str, float]:
        """Price a real operator run from its conversion counters.

        ``stats`` is the :attr:`CrossbarOperator.stats` dictionary: each
        *live* ``matvec``/``rmatvec`` (the operator skips all-zero
        inputs, which dissipate nothing) bills one full device read of
        this model's array, while the DAC/ADC terms charge exactly the
        conversions the converters counted — zero-skipped columns and
        the true matrix geometry are billed as executed, not as assumed
        standalone 1024x1024 MVM cycles.  Stats dictionaries without
        the live counters fall back to the logical read counts.

        Maintenance work is priced from its own counters: calibration
        probes (``n_calibration_probes``) charge the per-probe digital
        overhead on top of the conversions they already billed, and
        reprogramming pulses (``n_program_pulses``) charge per
        program-and-verify pulse.  Both counters default to zero when
        absent, and a zero counter adds exactly 0.0 — totals for
        maintenance-free runs are bit-for-bit what they were before
        this ledger existed.  The total is monotone non-decreasing in
        every counter.
        """
        for key in REQUIRED_STATS_KEYS:
            if key not in stats:
                raise KeyError(f"stats must provide {key!r}")
        for key, value in stats.items():
            if value < 0:
                raise ValueError(f"stats[{key!r}] must be non-negative")
        reads = stats["n_matvec"] + stats["n_rmatvec"]
        live = stats.get("n_live_matvec", stats["n_matvec"]) + stats.get(
            "n_live_rmatvec", stats["n_rmatvec"]
        )
        device = live * self.device_read_energy_j
        per_adc = self.adc.energy_per_conversion_j
        adc = stats["adc_conversions"] * per_adc
        dac = stats["dac_conversions"] * self.dac_energy_fraction * per_adc
        calibration = (
            stats.get("n_calibration_probes", 0) * self.calibration_probe_energy_j
        )
        programming = stats.get("n_program_pulses", 0) * self.program_pulse_energy_j
        return {
            "n_reads": float(reads),
            "n_live_reads": float(live),
            "device_energy_j": device,
            "adc_energy_j": adc,
            "dac_energy_j": dac,
            "calibration_energy_j": calibration,
            "programming_energy_j": programming,
            "maintenance_energy_j": calibration + programming,
            "total_energy_j": device + adc + dac + calibration + programming,
        }

    # -- area --------------------------------------------------------------------
    @property
    def cell_area_m2(self) -> float:
        return self.cell_area_f2 * self.feature_size_m**2

    @property
    def array_area_m2(self) -> float:
        return self.rows * self.cols * self.cell_area_m2

    @property
    def adc_area_m2(self) -> float:
        return self.n_adcs * self.adc.area_m2

    @property
    def total_area_m2(self) -> float:
        return self.array_area_m2 + self.adc_area_m2

    @property
    def total_area_mm2(self) -> float:
        return self.total_area_m2 * 1e6

    # -- comparisons -------------------------------------------------------------
    def power_advantage_over(self, competitor_power_w: float) -> float:
        """How many times lower this unit's power is (e.g. vs the FPGA)."""
        check_positive("competitor_power_w", competitor_power_w)
        return competitor_power_w / self.total_power_w

    def energy_advantage_over(self, competitor_energy_j: float) -> float:
        """How many times lower this unit's per-MVM energy is."""
        check_positive("competitor_energy_j", competitor_energy_j)
        return competitor_energy_j / self.mvm_energy_j


def sharded_readout_rows(
    batch: int,
    shard_counts: tuple[int, ...] = (1, 2, 4),
    bank_counts: tuple[int, ...] = (1, 2, 4),
    model: CrossbarCostModel | None = None,
    batch_window: int | None = None,
    loads: tuple[int, ...] | None = None,
) -> list[dict[str, float]]:
    """Fleet readout cost over a shard-count x bank-count grid.

    Prices a batch-B matmat dispatched by a
    :class:`~repro.crossbar.sharding.ShardedOperator`-style scheduler:
    ``s`` array shards run concurrently, each digitizing its share of
    the batch through ``k`` converter banks.  Without ``batch_window``
    the batch is assumed to split evenly (``ceil`` split); with it, the
    shares follow the scheduler's actual round-robin dispatch of
    ``batch_window``-column windows, so ragged window/shard
    combinations price the true slowest shard.  Per row: fleet latency
    is the slowest shard's, energies sum, areas and peak powers sum
    over the concurrent shards.  ``shards=1, banks=1`` reproduces
    today's serial schedule and ``shards=1, banks=B`` the parallel
    schedule.

    ``loads`` makes the pricing *schedule-aware*: pass a fleet's actual
    per-shard dispatch record (:attr:`ShardedOperator.loads` — active
    columns per shard, under whatever schedule ran) and each shard is
    priced at exactly the share it served, instead of a hypothetical
    split.  ``loads`` fixes the shard count (one row set for the fleet
    that produced it, per bank count), so it is mutually exclusive with
    both ``batch_window`` and a custom ``shard_counts`` sweep; a
    balanced load vector prices bit-for-bit like the even split it
    equals.

    Requested bank counts are capped at each shard's share (a shard
    never deploys more banks than it has vectors) and shards beyond the
    batch sit idle; each row therefore reports both the *requested*
    ``shards``/``banks`` and the ``shards_active``/``banks_effective``
    actually engaged, and prices only the engaged silicon — idle shards
    and capped-away banks cost nothing in this readout sweep.
    """
    batch = check_int("batch", batch)
    if batch_window is not None:
        batch_window = check_int("batch_window", batch_window)
    if loads is not None:
        if batch_window is not None:
            raise ValueError(
                "pass either loads (the dispatch already happened) or "
                "batch_window, not both"
            )
        if tuple(shard_counts) != (1, 2, 4):  # the default sweep
            raise ValueError(
                "pass either loads (which fixes the shard count) or a "
                "shard_counts sweep, not both"
            )
        loads = list(loads)
        if not loads:
            raise ValueError("loads must name at least one shard")
        loads = [check_int("loads", load, minimum=0) for load in loads]
        if sum(loads) < 1:
            raise ValueError("loads must contain at least one active column")
        if sum(loads) > batch:
            raise ValueError(
                f"loads dispatch {sum(loads)} active columns, more than "
                f"the batch of {batch}"
            )
        shard_counts = (len(loads),)
    model = model if model is not None else CrossbarCostModel()
    rows = []
    for shards in shard_counts:
        shards = check_int("shard counts", shards)
        if loads is not None:
            shares = list(loads)
        elif batch_window is None:
            base, extra = divmod(batch, shards)
            shares = [base + (1 if i < extra else 0) for i in range(shards)]
        else:
            widths = [
                min(batch_window, batch - start)
                for start in range(0, batch, batch_window)
            ]
            shares = [sum(widths[i::shards]) for i in range(shards)]
        shares = [share for share in shares if share > 0]
        for banks in bank_counts:
            banks = check_int("bank counts", banks)
            reports = [
                model.batch_readout(share, banks=min(banks, share))
                for share in shares
            ]
            latency = max(report.latency_s for report in reports)
            rows.append(
                {
                    "batch": float(batch),
                    "shards": float(shards),
                    "shards_active": float(len(shares)),
                    "banks": float(banks),
                    "banks_effective": float(max(r.adc_banks for r in reports)),
                    "latency_s": latency,
                    "latency_cycles": latency / model.cycle_time_s,
                    "mux_depth": float(max(r.mux_depth for r in reports)),
                    "energy_j": sum(r.energy_j for r in reports),
                    "total_area_m2": sum(r.total_area_m2 for r in reports),
                    "peak_power_w": sum(r.peak_power_w for r in reports),
                    "throughput_mvm_per_s": batch / latency,
                }
            )
    return rows
