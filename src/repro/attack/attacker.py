"""High-level attack orchestration.

Attackers turn a voice command waveform into a set of placed acoustic
sources (pressure waveforms referenced to 1 m), ready for the acoustic
channel. Two concrete attackers:

:class:`SingleSpeakerAttacker`
    The short-range baseline: one wideband speaker plays the complete
    AM waveform. Drive is either fixed or capped at the maximum
    inaudible level.
:class:`LongRangeAttacker`
    The paper's design: a split plan across an array — carrier on its
    own element, narrow spectral chunks on the rest, drive levels from
    the allocator.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.acoustics.channel import PlacedSource
from repro.acoustics.geometry import Position
from repro.attack.array import SpeakerArray
from repro.attack.leakage import max_inaudible_drive
from repro.attack.optimizer import AllocationResult, allocate_drive_levels
from repro.attack.pipeline import AttackPipeline, AttackPipelineConfig
from repro.attack.splitter import SpectralSplitter
from repro.dsp.signals import Signal
from repro.hardware.speaker import UltrasonicSpeaker
from repro.errors import AttackConfigError


@dataclass(frozen=True)
class SingleSpeakerEmission:
    """What the single-speaker attacker radiated.

    Attributes
    ----------
    sources:
        Exactly one placed source.
    drive_level:
        The drive level actually used.
    drive:
        The normalised drive waveform.
    """

    sources: tuple[PlacedSource, ...]
    drive_level: float
    drive: Signal


class SingleSpeakerAttacker:
    """Baseline attacker: one speaker, full AM waveform.

    Parameters
    ----------
    speaker:
        The transmitting speaker (typically the horn tweeter preset).
    position:
        Speaker location in the scenario's frame.
    config:
        Attack pipeline parameters.
    """

    def __init__(
        self,
        speaker: UltrasonicSpeaker,
        position: Position,
        config: AttackPipelineConfig | None = None,
    ) -> None:
        self.speaker = speaker
        self.position = position
        self.pipeline = AttackPipeline(config)

    def emit(
        self, voice: Signal, drive_level: float = 1.0
    ) -> SingleSpeakerEmission:
        """Radiate the attack at a fixed drive level."""
        drive = self.pipeline.generate(voice)
        pressure = self.speaker.play(drive, drive_level)
        return SingleSpeakerEmission(
            sources=(PlacedSource(pressure, self.position),),
            drive_level=drive_level,
            drive=drive,
        )

    def emit_inaudibly(
        self,
        voice: Signal,
        bystander_distance_m: float = 0.5,
        margin_db: float = 3.0,
    ) -> SingleSpeakerEmission:
        """Radiate at the maximum drive that keeps the rig inaudible.

        This is the honest configuration for range comparisons against
        the long-range array: both attackers then operate under the
        same "no bystander can hear the rig" rule.
        """
        drive = self.pipeline.generate(voice)
        level = max_inaudible_drive(
            self.speaker, drive, bystander_distance_m, margin_db
        )
        pressure = self.speaker.play(drive, level)
        return SingleSpeakerEmission(
            sources=(PlacedSource(pressure, self.position),),
            drive_level=level,
            drive=drive,
        )


@dataclass(frozen=True)
class LongRangeEmission:
    """What the long-range attacker radiated.

    Attributes
    ----------
    sources:
        One placed source per active speaker (carrier first when
        separated).
    allocation:
        The drive allocation used.
    """

    sources: tuple[PlacedSource, ...]
    allocation: AllocationResult


class LongRangeAttacker:
    """The paper's multi-speaker attacker.

    Parameters
    ----------
    array:
        Speaker array. With a separated carrier, the first
        ``round(carrier_fraction * n)`` elements radiate the carrier
        tone and the rest carry one spectral chunk each.
    config:
        Pipeline configuration shared by the splitter (carrier
        frequency, voice cutoff, acoustic rate).
    separate_carrier:
        The paper's design radiates the carrier separately; disable
        only for the A1 ablation.
    carrier_fraction:
        Fraction of elements dedicated to the carrier. This is a
        first-order design constraint of square-law delivery, not a
        tuning nicety: the victim microphone demodulates
        ``2 a2 m(t) c`` (wanted) alongside ``a2 m(t)^2`` (distortion),
        so the delivered carrier must dominate the summed sidebands —
        with one carrier element against dozens of full-drive chunk
        elements, the squared-envelope distortion drowns the command
        at *any* range. Carrier tones from co-located elements add
        nearly coherently on axis, so dedicating ~40 % of the panel
        buys a carrier that scales with N while chunk power (disjoint
        bands, power-additive) scales with the remainder.
    allocation_strategy:
        ``"uniform"`` or ``"waterfill"`` (see the optimizer module).
    """

    def __init__(
        self,
        array: SpeakerArray,
        config: AttackPipelineConfig | None = None,
        separate_carrier: bool = True,
        carrier_fraction: float = 0.4,
        allocation_strategy: str = "waterfill",
        bystander_distance_m: float = 0.5,
        margin_db: float = 3.0,
    ) -> None:
        if not 0.0 < carrier_fraction < 1.0:
            raise AttackConfigError(
                f"carrier_fraction must be in (0, 1), got "
                f"{carrier_fraction}"
            )
        if separate_carrier:
            n_carrier = max(1, round(carrier_fraction * array.n_elements))
            n_sideband = array.n_elements - n_carrier
        else:
            n_carrier = 0
            n_sideband = array.n_elements
        if n_sideband < 1:
            raise AttackConfigError(
                "the array is too small: no sideband speakers remain "
                "after reserving the carrier elements"
            )
        self.array = array
        self.n_carrier = n_carrier
        self.splitter = SpectralSplitter(
            n_chunks=n_sideband,
            pipeline_config=config,
            separate_carrier=separate_carrier,
        )
        self.allocation_strategy = allocation_strategy
        self.bystander_distance_m = bystander_distance_m
        self.margin_db = margin_db

    def emit(self, voice: Signal) -> LongRangeEmission:
        """Split, allocate and radiate a voice command."""
        plan = self.splitter.split(voice)
        allocation = allocate_drive_levels(
            plan,
            self._sideband_array(),
            strategy=self.allocation_strategy,
            bystander_distance_m=self.bystander_distance_m,
            margin_db=self.margin_db,
        )
        sources = []
        if plan.carrier is not None:
            # A pure tone's quadratic self-product is DC + 2 f_c, both
            # inaudible, so one audibility check covers every carrier
            # element (they are identical by construction).
            level = allocation.carrier_level
            for element in self.array.elements[: self.n_carrier]:
                pressure = element.speaker.play(plan.carrier, level)
                sources.append(PlacedSource(pressure, element.position))
        for index, (chunk, level) in enumerate(
            zip(plan.chunks, allocation.chunk_levels)
        ):
            element = self.array.elements[self.n_carrier + index]
            if level <= 0:
                continue
            pressure = element.speaker.play(chunk.drive, level)
            sources.append(PlacedSource(pressure, element.position))
        if not sources:
            raise AttackConfigError(
                "allocation produced no positive drive level; the "
                "audibility constraint cannot be met by this array"
            )
        return LongRangeEmission(
            sources=tuple(sources),
            allocation=allocation,
        )

    def _sideband_array(self) -> SpeakerArray:
        """The sub-array the chunk allocator sees (carrier first, to
        keep the allocator's element-0 convention)."""
        if self.n_carrier == 0:
            return self.array
        elements = (
            self.array.elements[0],
            *self.array.elements[self.n_carrier :],
        )
        return SpeakerArray(elements=elements)
