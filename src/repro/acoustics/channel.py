"""The multi-source acoustic channel.

This is the physical stage on which the long-range attack plays out:
each ultrasonic speaker radiates its own waveform; the channel
propagates every waveform (direct path plus reflections if a room is
given) to the victim microphone's diaphragm and sums the pressures.
Only *after* this summation does the microphone's nonlinearity square
the total — which is why spectral slices radiated from different
speakers can recombine into a full voice command that no single
speaker ever emitted.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.acoustics.geometry import Position, Room
from repro.acoustics.propagation import PropagationModel
from repro.acoustics.room import ImageSourceRoomModel
from repro.dsp.signals import Signal, SignalBatch, Unit, mix
from repro.errors import GeometryError, SignalDomainError


@dataclass(frozen=True)
class PlacedSource:
    """A pressure waveform (referenced to 1 m) at a spatial position."""

    pressure_at_1m: Signal
    position: Position

    def __post_init__(self) -> None:
        if self.pressure_at_1m.unit != Unit.PASCAL:
            raise SignalDomainError(
                "PlacedSource requires a pressure waveform in pascals, "
                f"got unit {self.pressure_at_1m.unit!r}"
            )


@dataclass
class AcousticChannel:
    """Propagates multiple sources to one receiving point.

    Parameters
    ----------
    room:
        Optional rectangular room; when given, first-order reflections
        are included and positions are validated against the room.
        When ``None`` the channel is free field (direct path only).
    propagation:
        Point-to-point propagation model shared by all paths.
    ambient_noise_spl:
        SPL of the background noise floor added at the receiver,
        dB SPL. Quiet rooms are ~35-45 dB SPL. ``None`` disables noise
        (useful for deterministic analyses).
    """

    room: Room | None = None
    propagation: PropagationModel = field(default_factory=PropagationModel)
    ambient_noise_spl: float | None = 40.0

    def receive(
        self,
        sources: list[PlacedSource],
        receiver: Position,
        rng: np.random.Generator | None = None,
    ) -> Signal:
        """Pressure waveform arriving at ``receiver`` from all sources.

        Parameters
        ----------
        sources:
            Placed source waveforms; all must share one sample rate.
        receiver:
            Microphone position.
        rng:
            Random generator for the ambient noise. Required when
            ``ambient_noise_spl`` is set, to keep runs reproducible.
        """
        return self.add_ambient(self.transmit(sources, receiver), rng)

    def add_ambient(
        self, total: Signal, rng: np.random.Generator | None
    ) -> Signal:
        """Add one trial's ambient-noise draw to a clean waveform.

        The stochastic half of :meth:`receive`: :meth:`ambient_batch`
        for a single generator. To change the ambient noise, override
        :meth:`ambient_batch`, not this method.
        """
        return self.ambient_batch(total, [rng]).row(0)

    def transmit(
        self, sources: list[PlacedSource], receiver: Position
    ) -> Signal:
        """The deterministic arrived pressure: all sources, no noise.

        This is the trial-invariant half of :meth:`receive` — for a
        fixed emission and geometry every trial shares this waveform,
        which is why the batched trial kernel computes it exactly once
        per trial group. Free-field transmissions of equal-length
        sources run through
        :meth:`~repro.acoustics.propagation.PropagationModel.propagate_batch`
        (one stacked FFT for the whole rig); room transmissions stack
        each source's direct + six image paths through the same kernel
        (:meth:`~repro.acoustics.room.ImageSourceRoomModel.transmit_batch`);
        mixed lengths and subclassed propagation models take the
        per-source, per-path scalar path. All produce bitwise
        identical sums.
        """
        if not sources:
            raise SignalDomainError("receive requires at least one source")
        rates = {s.pressure_at_1m.sample_rate for s in sources}
        if len(rates) != 1:
            raise SignalDomainError(
                f"all sources must share one sample rate, got {sorted(rates)}"
            )
        if (
            self.room is not None
            and type(self.propagation) is PropagationModel
        ):
            model = ImageSourceRoomModel(
                room=self.room, propagation=self.propagation
            )
            return mix(
                [
                    model.transmit_batch(
                        source.pressure_at_1m, source.position, receiver
                    )
                    for source in sources
                ]
            )
        lengths = {s.pressure_at_1m.n_samples for s in sources}
        batchable = (
            self.room is None
            and len(sources) > 1
            and len(lengths) == 1
            and type(self.propagation) is PropagationModel
        )
        if batchable:
            distances = []
            for source in sources:
                d = source.position.distance_to(receiver)
                if d == 0.0:
                    raise GeometryError(
                        "source and receiver are coincident; no "
                        "propagation path exists"
                    )
                distances.append(d)
            rate = sources[0].pressure_at_1m.sample_rate
            stack = np.stack(
                [s.pressure_at_1m.samples for s in sources]
            )
            arrived = self.propagation.propagate_batch(
                stack, rate, distances
            )
            # Sequential row accumulation matches mix()'s fold order.
            acc = arrived[0].copy()
            for row in arrived[1:]:
                acc = np.add(acc, row)
            return Signal(acc, rate, Unit.PASCAL)
        contributions = []
        for source in sources:
            contributions.append(
                self._transmit_one(
                    source.pressure_at_1m, source.position, receiver
                )
            )
        return mix(contributions)

    def ambient_batch(
        self,
        clean: Signal | SignalBatch,
        rngs: list[np.random.Generator],
    ) -> SignalBatch:
        """Per-trial ambient-noise copies of the transmitted waveform.

        The one override point for ambient noise. The trial pipeline
        pays for :meth:`transmit` once and then streams trial chunks
        through here with bounded memory. ``clean`` is either one
        shared waveform (static scenarios — every trial hears the same
        transmission) or an already-stacked
        ``(n_trials, n_samples)`` batch (mobile scenarios — each row
        carries that trial's geometry gain). Row ``i`` of the result
        adds white noise drawn from ``rngs[i]``; with
        ``ambient_noise_spl=None`` the rows are noise-free copies.
        """
        if not rngs:
            raise SignalDomainError(
                "ambient_batch requires at least one trial generator"
            )
        if isinstance(clean, SignalBatch) and clean.n_signals != len(rngs):
            raise SignalDomainError(
                f"{clean.n_signals} stacked clean waveforms but "
                f"{len(rngs)} trial generators"
            )
        if self.ambient_noise_spl is not None and any(
            rng is None for rng in rngs
        ):
            raise SignalDomainError(
                "ambient noise enabled but a trial generator is None; "
                "pass one seeded generator per trial or set "
                "ambient_noise_spl=None"
            )
        if self.ambient_noise_spl is None:
            if isinstance(clean, SignalBatch):
                return clean
            return SignalBatch.tiled(clean, len(rngs))
        from repro.acoustics.spl import spl_to_pressure

        rms_pa = spl_to_pressure(self.ambient_noise_spl)
        n = clean.n_samples
        n_draw = int(round(clean.duration * clean.sample_rate))
        rows = np.empty((len(rngs), n), dtype=clean.samples.dtype)
        for index, rng in enumerate(rngs):
            draw = rng.normal(0.0, 1.0, n_draw)
            np.multiply(draw, rms_pa, out=draw)
            if n_draw == n:
                noise = draw
            else:
                noise = np.zeros(n)
                noise[:n_draw] = draw
            row = (
                clean.samples[index]
                if isinstance(clean, SignalBatch)
                else clean.samples
            )
            np.add(row, noise, out=rows[index])
        return SignalBatch.adopt(rows, clean.sample_rate, Unit.PASCAL)

    def _transmit_one(
        self, pressure_at_1m: Signal, source: Position, receiver: Position
    ) -> Signal:
        if self.room is not None:
            model = ImageSourceRoomModel(
                room=self.room, propagation=self.propagation
            )
            return model.transmit(pressure_at_1m, source, receiver)
        d = source.distance_to(receiver)
        if d == 0.0:
            raise GeometryError(
                "source and receiver are coincident; no propagation "
                "path exists"
            )
        return self.propagation.propagate(pressure_at_1m, d)
